"""C1-C4 saturation, the locally fine closure, witnesses, ranks, normality."""

import os
import random

import pytest

from locfine.carrier import (
    Preorder,
    SubsetCarrier,
    all_canonical_covers,
    fold_meet,
    meet_cover,
    cover_key,
    normalize,
    refines,
    restrict,
    sorted_members,
)
from locfine.cli import parse_structure
from locfine.covering import (
    AuditReport,
    CoveringMonoid,
    CoveringRelation,
    DerivationTrace,
    _bits,
    _close,
    _CoverSpace,
    _rounds,
    audit_axioms,
    bounded_member,
    check_witness,
    fine_monoid,
    induced_relation_holds,
    is_locally_fine,
    is_normal,
    lambda_close,
    lazy_view,
    meet_closure,
    member,
    rank,
    saturate,
    witness_tree,
)
from locfine.errors import CarrierMismatchError, LimitExceededError, LocfineError
from locfine.formal import FormalPresentation, Judgment, covers_of_unit
from locfine.frames import (
    frame_from_space,
    space_chain3,
    space_discrete,
    space_sierpinski,
    space_six_opens,
)
from locfine.products import canonical_cov, product_space
from test_acceptance import CORPUS, _commutative_monoids_up_to, random_monoid
from test_carrier import _reference_canonical_covers

f = frozenset
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def cov(*member_sets):
    return f(f(m) for m in member_sets)


@pytest.fixture
def c3():
    return SubsetCarrier(["0", "1", "2"])


@pytest.fixture
def c4_preorder():
    return Preorder.from_edges(
        "tbcde", [("b", "t"), ("c", "t"), ("d", "b"), ("e", "c")], "t")


@pytest.fixture
def c4_generators(c4_preorder):
    return CoveringRelation(c4_preorder, f({
        ("t", f({"b", "c"})),
        ("b", f({"d"})),
        ("c", f({"e"})),
    }))


def filter_leq(gens1, gens2, carrier):
    """filter(gens1) <= filter(gens2) via generator cofinality."""
    return all(any(refines(g2, g1, carrier) for g2 in gens2) for g1 in gens1)


def filters_equal(gens1, gens2, carrier):
    return filter_leq(gens1, gens2, carrier) and filter_leq(gens2, gens1, carrier)


def brute_closure(carrier, pairs, max_covers=2000):
    """Independent naive closure: iterate all rule instances until no change."""
    covers = all_canonical_covers(carrier, max_count=max_covers)
    reps = sorted(carrier.class_reps(), key=carrier.key)
    out = {(carrier.rep(a), normalize(u, carrier)) for (a, u) in pairs}
    for u in covers:
        for a in u:
            out.add((a, u))
    for a in reps:
        for b in reps:
            if carrier.le(a, b):
                out.add((a, normalize([b], carrier)))
    changed = True
    while changed:
        changed = False
        for (a, u) in list(out):
            for (a2, v) in list(out):
                if a == a2:
                    cand = (a, meet_cover(u, v, carrier))
                    if cand not in out:
                        out.add(cand)
                        changed = True
        for (a, u) in list(out):
            for v in covers:
                if all((carrier.rep(x), v) in out for x in u):
                    if (a, v) not in out:
                        out.add((a, v))
                        changed = True
    return out


class TestSaturate:
    def test_c4_composition(self, c4_generators, c4_preorder):
        closed, trace = saturate(c4_generators)
        assert closed.holds("t", f({"d", "e"}))
        assert trace.final_is_empty

    def test_empty_generators_forced_pairs_only(self, c4_preorder):
        closed, _ = saturate(CoveringRelation(c4_preorder, f()))
        # with no generators the closure is exactly the reflexively forced
        # pairs: (a, U) such that a lies below some member of U
        p = c4_preorder
        expected = set()
        for a in p.class_reps():
            for u in all_canonical_covers(p):
                if any(p.le(a, b) for b in u):
                    expected.add((a, u))
        assert closed.pairs == f(expected)
        assert not closed.holds("t", f({"d", "e"}))

    def test_already_closed_is_fixed_with_one_empty_stage(self, c4_generators):
        closed, _ = saturate(c4_generators)
        again, trace = saturate(closed)
        assert again.pairs == closed.pairs
        stages = [added for (_, added) in trace.stages[1:]]
        assert stages[-1] == f()
        assert all(not s for s in stages)

    def test_agrees_with_brute_force_on_small_preorders(self):
        rng = random.Random(7)
        names = ["a", "b", "c", "t"]
        for trial in range(12):
            edges = set()
            for x in names[:-1]:
                edges.add((x, "t"))
            for x in names:
                for y in names:
                    if x != y and rng.random() < 0.3:
                        edges.add((x, y))
            try:
                p = Preorder.from_edges(names, edges, "t")
            except ValueError:
                continue
            covers = all_canonical_covers(p)
            gens = set()
            for _ in range(2):
                a = rng.choice(p.class_reps())
                u = covers[rng.randrange(len(covers))]
                gens.add((a, u))
            rel = CoveringRelation(p, f(gens))
            closed, _ = saturate(rel)
            assert closed.pairs == f(brute_closure(p, gens))

    def test_trace_stages_strictly_grow(self, c4_generators):
        _, trace = saturate(c4_generators)
        for idx, added in trace.stages[1:-1]:
            assert added
        assert trace.stages[-1][1] == f()


def _reference_close(space, initial):
    """The C1-C4 closure on a set of (subject id, cover id) pairs, with the
    subject and holder indexes rebuilt every round and C3 read from
    ``meet_cover``; ``_close`` keeps one subject bitmask per cover and ANDs
    down-set masks instead, and must agree with it exactly."""
    carrier = space.carrier
    present = set(initial)
    provenance = {}
    meets = {}
    stages = []

    forced = []
    for ci, c in enumerate(space.covers):
        for m in c:
            forced.append(((space.sid[carrier.rep(m)], ci), "C1"))
    for a in space.subjects:
        for b in space.subjects:
            if carrier.le(a, b):
                ci = space.cid[normalize([b], carrier)]
                forced.append(((space.sid[a], ci), "C2"))

    round_no = 0
    first = True
    while True:
        round_no += 1
        added = {}

        def propose(pair, rule):
            if pair not in present and pair not in added:
                added[pair] = rule

        if first:
            for pair, rule in forced:
                propose(pair, rule)
        by_subject = {}
        for (si, ci) in present:
            by_subject.setdefault(si, []).append(ci)
        for si, cids in sorted(by_subject.items()):
            cids = sorted(cids)
            for i in cids:
                for j in cids:
                    if i < j:
                        if (i, j) not in meets:
                            meet = meet_cover(space.covers[i], space.covers[j], carrier)
                            meets[i, j] = space.cid[meet]
                        propose((si, meets[i, j]), "C3")
        holders = {}
        for (si, ci) in present:
            holders.setdefault(ci, set()).add(si)
        holder_sets = {ci: frozenset(s) for ci, s in holders.items()}
        for vi in range(len(space.covers)):
            hs = holder_sets.get(vi, frozenset())
            for (si, ui) in present:
                if space.member_sids[ui] <= hs:
                    propose((si, vi), "C4")
        first = False
        stage_pairs = frozenset(
            (space.subjects[si], space.covers[ci]) for (si, ci) in added)
        stages.append((round_no, stage_pairs))
        if not added:
            break
        for pair, rule in added.items():
            present.add(pair)
            provenance[pair] = rule
    return present, stages, provenance


def _reference_initial(space, rel):
    """A relation's pairs as (subject id, cover id), canonicalized here
    through ``rep`` and ``normalize``; ``_close`` takes them as given."""
    carrier = space.carrier
    return {(space.sid[carrier.rep(a)], space.cid[normalize(u, carrier)])
            for (a, u) in rel.pairs}


def _reference_audit(space, initial, present, provenance):
    """``audit_axioms`` read off ``_reference_close``'s provenance."""
    buckets = {"C1": [], "C2": [], "C3": [], "C4": []}
    for si, ci in present - initial:
        buckets[provenance[si, ci]].append((space.subjects[si], space.covers[ci]))
    carrier = space.carrier
    key = lambda p: (carrier.key(p[0]), cover_key(p[1], carrier))
    return AuditReport(*(tuple(sorted(buckets[r], key=key)) for r in ("C1", "C2", "C3", "C4")))


def _random_relations(rng, count):
    """Relations of 0-3 generators (the empty cover among the choices) over
    random preorders of 2-6 elements with top t."""
    out = []
    while len(out) < count:
        names = ["a", "b", "c", "d", "e"][:rng.randint(1, 5)] + ["t"]
        edges = {(x, "t") for x in names}
        edges |= {(x, y) for x in names for y in names if rng.random() < 0.25}
        try:
            p = Preorder.from_edges(names, edges, "t")
        except ValueError:
            continue
        covers = all_canonical_covers(p)
        gens = {(rng.choice(names), rng.choice(covers)) for _ in range(rng.randint(0, 3))}
        out.append(CoveringRelation(p, f(gens)))
    return out


def _random_subset_relations(rng, count):
    """Relations of 0-3 generators over subset carriers of 1-3 points."""
    out = []
    for _ in range(count):
        c = SubsetCarrier(["x", "y", "z"][:rng.randint(1, 3)])
        pieces = list(c.elements())
        covers = all_canonical_covers(c)
        gens = {(rng.choice(pieces), rng.choice(covers)) for _ in range(rng.randint(0, 3))}
        out.append(CoveringRelation(c, f(gens)))
    return out


def _four_point_relations():
    """The benchmark's 4-point shape: a two-point piece covered by its points."""
    c = SubsetCarrier(["p", "q", "r", "s"])
    return [CoveringRelation(c, f({(f(pair), cov(*pair))}))
            for pair in (("p", "q"), ("q", "s"))]


def _closed_relations():
    """Closed relations: ``canonical_cov`` of small frames, and ``saturate``
    outputs of a few random relations."""
    spaces = [space_sierpinski(), space_chain3(), space_six_opens(),
              product_space([space_sierpinski(), space_sierpinski()]),
              product_space([space_chain3(), space_sierpinski()])]
    out = [canonical_cov(frame_from_space(s)) for s in spaces]
    out += [saturate(rel)[0] for rel in _random_relations(random.Random(5), 10)]
    return out


def _frame_generator_relations(rng, count):
    """The benchmark's frame shape: 1-3 pairs of ``canonical_cov`` of the
    10-element frame chain3 x Sierpinski, as generators."""
    closed = canonical_cov(frame_from_space(product_space([space_chain3(), space_sierpinski()])))
    pairs = closed.sorted_pairs()
    return [CoveringRelation(closed.carrier, f(rng.sample(pairs, rng.randint(1, 3))))
            for _ in range(count)]


def _c4_relations():
    with open(os.path.join(os.path.dirname(__file__), "fixtures", "c4_covrel.cov"),
              encoding="utf-8") as fh:
        _, rel = parse_structure(fh.read())
    p = Preorder.from_edges("tbcde", [("b", "t"), ("c", "t"), ("d", "b"), ("e", "c")], "t")
    return [rel, CoveringRelation(p, f({("t", f({"b", "c"})), ("b", f({"d"})),
                                        ("c", f({"e"}))}))]


CLOSE_CORPUS = {
    "random-preorders": lambda: _random_relations(random.Random(31), 150),
    "subset-carriers": lambda: _random_subset_relations(random.Random(37), 80),
    "four-points": _four_point_relations,
    "closed": _closed_relations,
    "frame-generators": lambda: _frame_generator_relations(random.Random(43), 12),
    "c4-fixtures": _c4_relations,
}


class TestCloseMatchesReference:
    """``_close`` keeps one subject bitmask per cover; ``saturate`` must give
    the reference's pairs and stage sets, and ``audit_axioms`` credit each
    pair to the reference's rule."""

    @pytest.mark.parametrize("family", sorted(CLOSE_CORPUS))
    def test_pairs_stages_and_provenance(self, family):
        for rel in CLOSE_CORPUS[family]():
            space = _CoverSpace(rel.carrier, 5000)
            initial = _reference_initial(space, rel)
            present, stages, provenance = _reference_close(space, initial)
            names = lambda ids: f((space.subjects[si], space.covers[ci]) for si, ci in ids)
            held, _ = _close(space, rel, space.meet_id)
            assert {(si, ci) for ci, mask in enumerate(held) for si in _bits(mask)} == present
            closed, trace = saturate(rel)
            assert closed.pairs == names(present)
            assert trace.stages == ((0, names(initial)),) + tuple(stages)
            assert audit_axioms(rel) == _reference_audit(space, initial, present, provenance)


def _meet_carriers():
    """The carriers of ``CLOSE_CORPUS``, subset carriers on 0-4 points, and a
    preorder whose elements a and b are mutually below."""
    carriers = [rel.carrier for family in CLOSE_CORPUS.values() for rel in family()]
    carriers += [SubsetCarrier("pqrs"[:n]) for n in range(5)]
    carriers.append(Preorder.from_edges(
        "abct", [("a", "b"), ("b", "a"), ("a", "t"), ("c", "t")], "t"))
    return list(dict.fromkeys(carriers))


def test_meet_id_is_the_meet_of_the_covers():
    """``meet_id`` ANDs two down-set masks; it must name ``meet_cover``'s
    answer for every pair of canonical covers."""
    for carrier in _meet_carriers():
        space = _CoverSpace(carrier, 5000)
        for i, u in enumerate(space.covers):
            for j, v in enumerate(space.covers):
                assert space.meet_id(i, j) == space.cid[meet_cover(u, v, carrier)], (u, v)


class TestMaskBuiltSpace:
    """``_CoverSpace`` interns the covers from one antichain pass over the
    carrier's own masks; it must agree with the recursive ``le``-driven
    reference and with the masks' definitions."""

    def test_covers_are_the_reference_in_cover_key_order(self):
        for carrier in _meet_carriers():
            assert _CoverSpace(carrier, 5000).covers == _reference_canonical_covers(carrier)

    def test_down_is_the_or_of_under_over_the_members(self):
        for carrier in _meet_carriers():
            space = _CoverSpace(carrier, 5000)
            nonempty = [i for i, a in enumerate(space.subjects) if a != f()]
            for c, u in enumerate(space.covers):
                assert space.members[c] == sum(1 << space.sid[a] for a in u)
                below = 0
                for a in u:
                    below |= space.under[space.sid[a]]
                assert space.down[c] == below & sum(1 << i for i in nonempty), u

    def test_the_cover_guard_is_exact_on_preorder_carriers(self):
        for carrier in _meet_carriers():
            if isinstance(carrier, SubsetCarrier):
                continue
            count = len(_reference_canonical_covers(carrier))
            for max_count in sorted({0, 1, count // 2, count - 1}):
                with pytest.raises(LimitExceededError, match=f"^more than {max_count} "):
                    _CoverSpace(carrier, max_count)
                with pytest.raises(LimitExceededError, match=f"^more than {max_count} "):
                    all_canonical_covers(carrier, max_count=max_count)
            assert len(_CoverSpace(carrier, count).covers) == count

    def test_the_space_asks_no_order_question(self, monkeypatch):
        carriers = _meet_carriers()
        expected = [_reference_canonical_covers(c) for c in carriers]

        def le(self, a, b):
            raise AssertionError("le called while building the space")

        monkeypatch.setattr(Preorder, "le", le)
        monkeypatch.setattr(SubsetCarrier, "le", le)
        for carrier, covers in zip(carriers, expected):
            assert _CoverSpace(carrier, 5000).covers == covers

    @pytest.mark.parametrize("family", sorted(CLOSE_CORPUS))
    def test_saturate_returns_its_closure_canonical(self, family):
        for rel in CLOSE_CORPUS[family]():
            closed, _ = saturate(rel)
            assert closed == CoveringRelation(rel.carrier, closed.pairs)
            assert type(closed.pairs) is frozenset


class TestRoundsAreSemiNaive:
    """``_rounds`` combines two covers only when one of them gained a fact in
    the round before (every initial fact counts as gained before round one);
    a naive kernel combines every pair of held covers in every round."""

    @pytest.mark.parametrize("family", ["c4-fixtures", "frame-generators", "four-points"])
    def test_unchanged_pairs_are_not_combined(self, family):
        idle_pairs = 0
        for rel in CLOSE_CORPUS[family]():
            space = _CoverSpace(rel.carrier, 5000)
            members = [sum(1 << s for s in m) for m in space.member_sids]
            held = [0] * len(space.covers)
            for si, ci in _reference_initial(space, rel):
                held[ci] |= 1 << si
            calls = []

            def combine(i, j):
                calls.append((tuple(held), i, j))
                return space.meet_id(i, j)

            before = [tuple(held)]          # the state before each round
            seeds = [("C1", ci, m) for ci, m in enumerate(members)]
            for found in _rounds(held, seeds, combine, members):
                state = list(before[-1])
                for _, c, fresh, _ in found:
                    state[c] |= fresh
                before.append(tuple(state))
            assert before[-1] == tuple(held)
            round_of = {state: r for r, state in enumerate(before[:-1])}
            gained = [before[0]] + [tuple(x & ~y for x, y in zip(now, then))
                                    for then, now in zip(before, before[1:])]
            for state, i, j in calls:
                news = gained[round_of[state]]
                assert news[i] or news[j], (round_of[state], i, j)
            for r in range(1, len(before) - 1):
                live = [c for c, h in enumerate(before[r]) if h]
                idle_pairs += sum(1 for x, i in enumerate(live) for j in live[x:]
                                  if not gained[r][i] | gained[r][j])
        assert idle_pairs     # a naive kernel would combine these


class TestAudit:
    def test_c4_violation_reported_for_unclosed_generators(self, c4_generators):
        report = audit_axioms(c4_generators)
        assert not report.ok
        assert ("t", f({"d", "e"})) in report.c4

    def test_saturate_output_audits_clean(self, c4_generators):
        closed, _ = saturate(c4_generators)
        assert audit_axioms(closed).ok

    def test_c1_section_empty_when_membership_pairs_present(self, c4_preorder):
        closed, _ = saturate(CoveringRelation(c4_preorder, f()))
        report = audit_axioms(closed)
        assert report.c1 == ()


class TestMonoidBasics:
    def test_empty_basis_means_trivial_cover(self, c3):
        m = CoveringMonoid(c3, ())
        assert m.basis == (f({c3.top}),)

    def test_non_covering_basis_rejected(self, c3):
        with pytest.raises(ValueError):
            CoveringMonoid(c3, (cov("01"),))

    def test_member_trivial_cover(self, c3):
        m = CoveringMonoid(c3, (cov("01", "12"),))
        assert member(m, f({c3.top}))

    def test_member_basis_cover(self, c3):
        u = cov("01", "12")
        m = CoveringMonoid(c3, (u,))
        assert member(m, u)

    def test_member_false_below_every_meet(self, c3):
        m = CoveringMonoid(c3, (cov("012"),))
        assert not member(m, cov("0", "1", "2"))
        # brute force: no cover coarser than the basis refines the singletons
        for u in all_canonical_covers(c3):
            if refines(cov("012"), u, c3):
                assert not refines(u, cov("0", "1", "2"), c3)

    def test_member_wrong_carrier(self, c3):
        m = CoveringMonoid(c3, ())
        with pytest.raises(CarrierMismatchError):
            member(m, cov("07"))


def _sampled_monoids():
    """40 monoids of 1-3 random basis covers on 1-4 points."""
    rng = random.Random(11)
    for trial in range(40):
        pts = [str(i) for i in range(rng.randint(1, 4))]
        c = SubsetCarrier(pts)
        basis = []
        for _ in range(rng.randint(1, 3)):
            members = set()
            rest = set(pts)
            while rest:
                m = f(rng.sample(sorted(c.points), rng.randint(1, len(pts))))
                members.add(m)
                rest -= m
            basis.append(f(members))
        yield CoveringMonoid(c, tuple(basis))


def _reference_lambda_close(m):
    """The closure by its stagewise loop: each stage meets the covers new in
    the one before with every basis cover and keeps the unseen meets."""
    c = m.carrier
    cumulative = list(m.basis)
    seen = set(cumulative)
    stages = [(0, frozenset(m.basis))]
    frontier = list(m.basis)
    idx = 0
    while True:
        idx += 1
        candidates = [meet_cover(u, b, c) for u in frontier for b in m.basis]
        new = []
        for cand in sorted(set(candidates), key=lambda x: cover_key(x, c)):
            if cand not in seen:
                seen.add(cand)
                new.append(cand)
        stages.append((idx, frozenset(new)))
        if not new:
            break
        cumulative.extend(new)
        frontier = new
    return CoveringMonoid(c, tuple(cumulative)), DerivationTrace(tuple(stages))


def _fixture_monoids():
    """The monoids of the monoid and game fixtures."""
    out = []
    for name in sorted(os.listdir(FIXTURES)):
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
            text = fh.read()
        if text.startswith(("kind monoid", "kind game")):
            _, value = parse_structure(text)
            out.append(getattr(value, "monoid", value))
    return out


class TestLambdaClose:
    def test_closure_is_meet_closure_of_basis(self, c3):
        m = CoveringMonoid(c3, (cov("01", "12"), cov("0", "12")))
        lam, _ = lambda_close(m)
        assert set(lam.basis) == set(meet_closure(m.basis, c3))
        assert set(lam.basis) == set(m.basis)  # nothing beyond finite meets here

    def test_trivial_monoid_fixed(self, c3):
        m = CoveringMonoid(c3, (f({c3.top}),))
        lam, trace = lambda_close(m)
        assert lam.basis == m.basis
        assert trace.stages[-1][1] == f()

    def test_meet_closed_basis_gives_one_empty_stage(self, c3):
        base = (cov("01", "12"), cov("0", "12"))
        closed = tuple(meet_closure(base, c3))
        lam, trace = lambda_close(CoveringMonoid(c3, closed))
        assert set(lam.basis) == set(closed)
        assert len(trace.stages) == 2 and trace.stages[1][1] == f()

    def test_coreflection_laws_sampled(self):
        for m in _sampled_monoids():
            c, basis = m.carrier, m.basis
            lam, _ = lambda_close(m)
            # extensive
            assert filter_leq(m.basis, lam.basis, c)
            # idempotent (exact membership equality)
            lam2, _ = lambda_close(lam)
            assert filters_equal(lam.basis, lam2.basis, c)
            # monotone along a basis extension
            extra = f({c.top})
            bigger = CoveringMonoid(c, tuple(basis) + (extra,))
            lam_big, _ = lambda_close(bigger)
            assert filter_leq(m.basis, bigger.basis, c)
            assert filter_leq(lam.basis, lam_big.basis, c)
            # finite collapse oracle: membership equals the meet closure's
            assert filters_equal(lam.basis, meet_closure(m.basis, c), c)

    def test_stages_match_the_reference_loop(self):
        monoids = list(_sampled_monoids()) + _fixture_monoids()
        assert len(monoids) == 45
        for m in monoids:
            lam, trace = lambda_close(m)
            ref, ref_trace = _reference_lambda_close(m)
            assert trace == ref_trace, m
            assert lam.basis == ref.basis, m


class TestLocallyFineAndRank:
    def test_fine_monoid_is_locally_fine(self):
        m = fine_monoid(space_discrete("ab"))
        assert is_locally_fine(m)
        assert rank(m) == 0

    def test_fine_monoid_respects_the_size_guard(self):
        # the discrete five-point space has 7 580 antichains of nonempty opens
        with pytest.raises(LimitExceededError):
            fine_monoid(space_discrete("abcde"))
        assert is_locally_fine(fine_monoid(space_discrete("abcde"), max_covers=8000))

    def test_meet_closed_monoid_is_locally_fine(self, c3):
        base = (cov("01", "12"), cov("0", "12"))
        closed = tuple(meet_closure(base, c3))
        assert is_locally_fine(CoveringMonoid(c3, closed))

    def test_crossing_covers_are_not_locally_fine(self, c3):
        m = CoveringMonoid(c3, (cov("01", "2"), cov("0", "12")))
        assert not is_locally_fine(m)
        assert rank(m) == 1

    def test_trivial_monoid_rank_zero(self, c3):
        assert rank(CoveringMonoid(c3, (f({c3.top}),))) == 0

    def test_rank_counts_combination_stages(self):
        c = SubsetCarrier([str(i) for i in range(4)])
        b1 = cov("01", "23")
        b2 = cov("02", "13")
        b3 = cov("03", "12")
        m = CoveringMonoid(c, (b1, b2, b3))
        # pairwise meets already hit singletons, so one stage suffices
        assert rank(m) == 1
        assert not is_locally_fine(m)

    def test_locally_fine_iff_lambda_membership_unchanged(self, c3):
        rng = random.Random(3)
        for _ in range(30):
            covers = all_canonical_covers(c3)
            covering = [u for u in covers if u and f().union(*u) == c3.points]
            basis = tuple(rng.choice(covering) for _ in range(rng.randint(1, 3)))
            m = CoveringMonoid(c3, basis)
            lam, _ = lambda_close(m)
            assert is_locally_fine(m) == filters_equal(m.basis, lam.basis, c3)


class TestWitness:
    def test_trivial_target_single_node(self, c3):
        m = CoveringMonoid(c3, (cov("01", "12"),))
        t = witness_tree(m, f({c3.top}))
        assert t is not None and t.children == ()
        assert t.node == c3.top

    def test_basis_cover_depth_one(self, c3):
        u = cov("01", "12")
        m = CoveringMonoid(c3, (u,))
        t = witness_tree(m, u)
        assert t.depth() == 1
        assert f(t.leaves()) == u

    def test_absent_iff_not_member(self, c3):
        m = CoveringMonoid(c3, (cov("012"),))
        v = cov("0", "1", "2")
        assert witness_tree(m, v) is None
        assert not member(m, v)

    def test_witness_complete_and_structurally_sound(self, c3):
        rng = random.Random(5)
        covers = all_canonical_covers(c3)
        covering = [u for u in covers if u and f().union(*u) == c3.points]
        for _ in range(25):
            basis = tuple(rng.choice(covering) for _ in range(rng.randint(1, 2)))
            m = CoveringMonoid(c3, basis)
            for v in covers:
                t = witness_tree(m, v)
                assert (t is not None) == member(m, v)
                if t is not None:
                    assert check_witness(m, v, t)

    def test_no_points_give_the_empty_top_as_a_leaf(self):
        m = CoveringMonoid(SubsetCarrier([]), ())
        t = witness_tree(m, f())
        assert t is not None and t.children == () and t.node == f()
        assert check_witness(m, f(), t)

    def test_preorder_carrier_rejected(self, c4_preorder):
        m = CoveringMonoid(c4_preorder, (f({"b", "c"}),))
        with pytest.raises(CarrierMismatchError):
            witness_tree(m, f({"b", "c"}))


def _reference_depth_member(m, v, depth):
    """Noetherian trees of depth <= depth with basis-restriction covers,
    searched directly over the monoid (the former ``rank`` engine)."""
    c = m.carrier
    v = normalize(v, c)
    memo = {}

    def restrict_to(cover, piece):
        if isinstance(c, SubsetCarrier):
            return restrict(cover, piece, c)
        return meet_cover(cover, f([piece]), c)

    def dec(piece, d):
        key = (piece, d)
        got = memo.get(key)
        if got is not None:
            return got
        if any(c.le(piece, t) for t in v):
            memo[key] = True
            return True
        if d == 0:
            memo[key] = False
            return False
        for b in m.basis:
            pieces = restrict_to(b, piece)
            if pieces and all(dec(q, d - 1) for q in sorted_members(pieces, c)):
                memo[key] = True
                return True
        memo[key] = False
        return False

    return dec(c.rep(c.top) if isinstance(c, Preorder) else c.top, depth)


def _reference_rank(m):
    """The first alpha whose depth-(alpha + 1) search reaches the meet."""
    target = fold_meet(m.basis, m.carrier)
    alpha = 0
    while True:
        if _reference_depth_member(m, target, alpha + 1):
            return alpha
        alpha += 1
        if alpha > len(m.basis):
            raise AssertionError("derivative sequence failed to stabilize")


def _rank_or_unstable(rank_fn, m):
    try:
        return rank_fn(m)
    except (AssertionError, LocfineError):  # the reference raises AssertionError
        return "unstable"


def _random_preorder_monoids(rng, count):
    """Monoids of covers over random preorders on <= 5 elements with top t."""
    out = []
    while len(out) < count:
        names = ["a", "b", "c", "d"][:rng.randint(1, 4)] + ["t"]
        edges = {(x, "t") for x in names}
        edges |= {(x, y) for x in names for y in names if rng.random() < 0.25}
        try:
            p = Preorder.from_edges(names, edges, "t")
        except ValueError:
            continue
        covers = [u for u in all_canonical_covers(p) if u]
        basis = tuple(rng.choice(covers) for _ in range(rng.randint(1, 3)))
        out.append(CoveringMonoid(p, basis))
    return out


class TestRankMatchesReference:
    """``rank`` reads the depth of the shallowest ``bounded_member`` tree;
    it must agree with the direct depth-by-depth search it replaced."""

    def test_random_subset_monoids(self):
        # the acceptance corpus reaches rank 1; 1500 more seeds reach rank 2
        corpus = CORPUS + [random_monoid(random.Random(5000 + i))
                           for i in range(1500)]
        ranks = [rank(m) for m in corpus]
        assert ranks == [_reference_rank(m) for m in corpus]
        assert set(ranks) == {0, 1, 2}

    def test_covers_of_unit_up_to_4_elements(self):
        checked = 0
        for elems, unit, table in _commutative_monoids_up_to(4):
            base = FormalPresentation(elems, unit, table)
            presentations = [base] + [
                FormalPresentation(elems, unit, table, (Judgment(unit, u),))
                for u in base.all_covers() if u and len(elems) <= 3]
            for p in presentations:
                m = covers_of_unit(p)
                assert _rank_or_unstable(rank, m) == \
                    _rank_or_unstable(_reference_rank, m)
                checked += 1
        assert checked > 27

    def test_random_preorder_monoids(self):
        outcomes = set()
        for m in _random_preorder_monoids(random.Random(23), 600):
            got = _rank_or_unstable(rank, m)
            assert got == _rank_or_unstable(_reference_rank, m)
            if got == "unstable":
                with pytest.raises(LocfineError):
                    rank(m)
            outcomes.add(got)
        assert "unstable" in outcomes and len(outcomes) > 2


class TestBoundedMember:
    def test_trivial_target_depth_zero(self, c3):
        m = CoveringMonoid(c3, (cov("01", "12"),))
        t = bounded_member(lazy_view(m), f({c3.top}), 0, start=c3.top)
        assert t is not None and t.children == ()

    def test_agrees_with_member_at_rank_bound(self, c3):
        rng = random.Random(9)
        covers = all_canonical_covers(c3)
        covering = [u for u in covers if u and f().union(*u) == c3.points]
        for _ in range(15):
            basis = tuple(rng.choice(covering) for _ in range(rng.randint(1, 3)))
            m = CoveringMonoid(c3, basis)
            bound = rank(m) + 1
            for v in covers[:10]:
                got = bounded_member(lazy_view(m), v, bound, start=c3.top)
                assert (got is not None) == member(m, v)

    def test_depth_zero_unknown(self, c3):
        m = CoveringMonoid(c3, (cov("0", "1", "2"),))
        v = cov("0", "1", "2")
        assert bounded_member(lazy_view(m), v, 0, start=c3.top) is None
        assert bounded_member(lazy_view(m), v, 1, start=c3.top) is not None

    def test_an_empty_cover_after_a_rank_one_cover_keeps_the_first(self):
        # an empty trace is a rank-1 move at any depth; without a key only a
        # lower rank displaces the first rank-1 move
        covers = {"s": [["a"], []]}
        t = bounded_member(lambda p: covers.get(p, []), ["a"], 2, start="s",
                           le=lambda x, y: x == y)
        assert t is not None and [ch.node for ch in t.children] == ["a"]

    def test_enumerator_errors_propagate(self, c3):
        def broken(piece):
            raise RuntimeError("enumerator failed")
        with pytest.raises(RuntimeError):
            bounded_member(broken, cov("0"), 2, start=c3.top)


class TestNormality:
    def test_all_covers_monoid_is_normal(self):
        m = fine_monoid(space_discrete("ab"))
        assert is_normal(m)

    def test_trivial_monoid_is_normal(self, c3):
        assert is_normal(CoveringMonoid(c3, ()))

    def test_overlapping_single_cover_not_normal(self, c3):
        assert not is_normal(CoveringMonoid(c3, (cov("01", "12"),)))

    def test_normality_preserved_by_lambda(self):
        rng = random.Random(13)
        checked = 0
        for _ in range(60):
            pts = [str(i) for i in range(rng.randint(1, 4))]
            c = SubsetCarrier(pts)
            covers = all_canonical_covers(c)
            covering = [u for u in covers if u and f().union(*u) == c.points]
            basis = tuple(rng.choice(covering) for _ in range(rng.randint(1, 3)))
            m = CoveringMonoid(c, basis)
            if not is_normal(m):
                continue
            checked += 1
            lam, _ = lambda_close(m)
            assert is_normal(lam)
        assert checked >= 10


class TestInducedRelation:
    def test_c1_to_c3_always_hold(self, c3):
        rng = random.Random(17)
        covers = all_canonical_covers(c3)
        covering = [u for u in covers if u and f().union(*u) == c3.points]
        subsets = list(c3.elements())
        for _ in range(10):
            basis = tuple(rng.choice(covering) for _ in range(rng.randint(1, 2)))
            m = CoveringMonoid(c3, basis)
            for a in subsets:
                # C1: a member of the family
                for u in covers[:8]:
                    if a in u:
                        assert induced_relation_holds(m, a, u)
                # C2: a below a single element
                for b in subsets:
                    if a <= b:
                        assert induced_relation_holds(m, a, f({b}))
            # C3 on a sample
            for a in subsets[:4]:
                for u in covers[:6]:
                    for v in covers[:6]:
                        if induced_relation_holds(m, a, u) and \
                           induced_relation_holds(m, a, v):
                            assert induced_relation_holds(m, a, meet_cover(u, v, c3))
