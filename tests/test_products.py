"""Products, generated locales, coproducts, and the product theorems."""

import copy
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import product as iproduct
from math import prod
from types import SimpleNamespace

import pytest

import locfine.carrier as carrier_module
import locfine.frames as frames_module
import locfine.products as products

from locfine.carrier import (
    Preorder,
    SubsetCarrier,
    all_canonical_covers,
    antichains,
    fold_meet,
    meet_cover,
    normalize,
    reflexive_transitive_closure,
    refines,
    subsets,
)
from locfine.covering import (
    CoveringMonoid,
    CoveringRelation,
    audit_axioms,
    fine_monoid,
    global_meet,
    meet_closure,
    member,
    saturate,
)
from locfine.errors import LimitExceededError
from locfine.frames import (
    Frame,
    SpaceDescription,
    boolean_frame_2,
    chain_frame,
    frame_from_space,
    frame_iso,
    is_spatial,
    points_of,
    space_chain3,
    space_discrete,
    space_one_point,
    space_sierpinski,
    space_six_opens,
    validate_frame,
)
from locfine.products import (
    EmbeddingPhi,
    GeneratedLocale,
    ProductCoverage,
    _locale_from_sats,
    canonical_cov,
    coproduct_frames,
    embed_phi_check,
    frame_preorder,
    locale_from_cov,
    product_monoid,
    product_points,
    product_space,
    rect_basis_check,
    spatial_product_eq,
    star_variant_eq,
)
from test_frames import (
    _compare_names_with_bits,
    _compare_order_with_reference,
    _compare_points_with_reference,
    _ReferenceFrame,
)

f = frozenset


def cov(*member_sets):
    return f(f(m) for m in member_sets)


class TestProductMonoid:
    def test_single_factor_is_a_copy(self):
        c = SubsetCarrier(["0", "1"])
        m = CoveringMonoid(c, (cov("0", "1"),))
        p = product_monoid([m])
        assert p.carrier.points == c.points
        assert set(p.basis) == set(m.basis)

    def test_rectangle_cover_from_two_pullbacks(self):
        c = SubsetCarrier(["0", "1"])
        m = CoveringMonoid(c, (cov("0", "1"),))
        p = product_monoid([m, m])
        rect = f(f({name}) for name in ("0,0", "0,1", "1,0", "1,1"))
        assert rect in set(p.basis)

    def test_guard_counts_every_nonempty_meet(self):
        # two factors of two basis covers: four pullbacks, 15 nonempty meets
        c = SubsetCarrier(["0", "1", "2"])
        m = CoveringMonoid(c, (cov("0", "12"), cov("01", "2")))
        assert product_monoid([m, m], max_basis=15).basis
        with pytest.raises(LimitExceededError, match="exceed 14 meets"):
            product_monoid([m, m], max_basis=14)

    def test_trivial_factor_absorbed(self):
        c = SubsetCarrier(["0", "1"])
        m = CoveringMonoid(c, (cov("0", "1"),))
        triv = CoveringMonoid(c, ())
        p = product_monoid([m, triv])
        pc = p.carrier
        pulled = normalize(cov("0,0 0,1".split(), "1,0 1,1".split()), pc)
        for v in all_canonical_covers(pc, max_count=3000):
            assert member(p, v) == refines(pulled, v, pc)

    def test_empty_factor_list_rejected(self):
        with pytest.raises(ValueError):
            product_monoid([])

    def test_basis_is_the_meet_closure_of_the_pullbacks(self):
        spaces = dict(ALL_SPACES, discrete3=space_discrete("pqr"))
        checked = 0
        for a in sorted(spaces):
            for b in sorted(spaces):
                ms = [fine_monoid(spaces[a]), fine_monoid(spaces[b])]
                carrier, pullbacks = products._pullbacks(ms)
                if len(pullbacks) > 10:
                    continue
                assert list(product_monoid(ms).basis) == \
                    meet_closure(pullbacks, carrier), (a, b)
                checked += 1
        assert checked == 33

    def test_discrete3_square_answers(self):
        ms = [fine_monoid(space_discrete("pqr"))] * 2
        carrier, pullbacks = products._pullbacks(ms)
        p = product_monoid(ms)
        assert len(pullbacks) == 17 and len(p.basis) == 81
        basis = set(p.basis)
        assert all(meet_cover(u, v, carrier) in basis for u in basis for v in basis)
        assert global_meet(p) == fold_meet(pullbacks, carrier)

    def test_iterator_argument_gives_the_list_product(self):
        # an iterator can be read only once; the trivial monoid on the one
        # point '' is what a second read of it gives
        spaces = [space_sierpinski(), space_chain3()]
        from_list = product_monoid([fine_monoid(s) for s in spaces])
        assert product_monoid(map(fine_monoid, spaces)) == from_list
        assert len(from_list.carrier.points) == 6

    def test_colliding_point_names_are_rejected(self):
        # ("x", "y,z") and ("x,y", "z") both join to "x,y,z"
        spaces = [SpaceDescription(f({"x", "x,y"}), f({f(), f({"x"}), f({"x", "x,y"})})),
                  SpaceDescription(f({"y,z", "z"}), f({f(), f({"z"}), f({"y,z", "z"})}))]
        for build in (product_space, lambda ss: product_monoid([fine_monoid(s) for s in ss])):
            with pytest.raises(ValueError, match=r"\('x', 'y,z'\) and \('x,y', 'z'\)"):
                build(spaces)


class TestCanonicalCov:
    def test_bottom_covered_by_empty_family(self):
        rel = canonical_cov(chain_frame(3))
        assert rel.holds("c0", f())

    def test_top_pair_present(self):
        rel = canonical_cov(chain_frame(3))
        assert rel.holds("c2", f({"c2"}))

    def test_three_chain_pairs(self):
        rel = canonical_cov(chain_frame(3))
        assert rel.holds("c1", f({"c2"}))
        assert not rel.holds("c2", f({"c1"}))
        # C1 forces membership pairs, so (m, {m}) is present
        assert rel.holds("c1", f({"c1"}))

    def test_closed_and_audits_clean(self):
        rel = canonical_cov(boolean_frame_2())
        assert audit_axioms(rel).ok


class TestLocaleFromCov:
    @pytest.mark.parametrize("fr", [
        chain_frame(2), chain_frame(3), chain_frame(4), boolean_frame_2(),
        frame_from_space(space_six_opens()),
    ], ids=["chain2", "chain3", "chain4", "bool4", "six"])
    def test_canonical_relation_regenerates_the_frame(self, fr):
        loc = locale_from_cov(canonical_cov(fr))
        ok, _ = frame_iso(loc.frame, fr)
        assert ok

    def test_empty_generators_on_one_element_carrier(self):
        from locfine.carrier import Preorder
        p = Preorder(["t"], [], "t")
        loc = locale_from_cov(CoveringRelation(p, f()))
        assert len(loc.frame) == 2

    def test_c4_fixture_locale_top_is_full_saturation(self):
        from locfine.carrier import Preorder
        p = Preorder.from_edges(
            "tbcde", [("b", "t"), ("c", "t"), ("d", "b"), ("e", "c")], "t")
        rel = CoveringRelation(p, f({
            ("t", f({"b", "c"})), ("b", f({"d"})), ("c", f({"e"}))}))
        loc = locale_from_cov(rel)
        assert validate_frame(loc.frame).ok
        top_set = loc.frame.meaning(loc.frame.top)
        assert top_set == f(p.class_reps())

    def test_generated_lattice_passes_validate(self):
        loc = locale_from_cov(canonical_cov(boolean_frame_2()))
        assert validate_frame(loc.frame).ok


SPACES = {
    "point": space_one_point(),
    "sierpinski": space_sierpinski(),
    "discrete2": space_discrete("pq"),
    "chain3": space_chain3(),
}


class TestCoproduct:
    def test_single_frame_coproduct_is_itself(self):
        fr = frame_from_space(space_sierpinski())
        loc, _ = coproduct_frames([fr])
        ok, _ = frame_iso(loc.frame, fr)
        assert ok

    def test_two_sierpinski_matches_product_space(self):
        s = space_sierpinski()
        loc, _ = coproduct_frames([frame_from_space(s)] * 2)
        oracle = frame_from_space(product_space([s, s]))
        ok, _ = frame_iso(loc.frame, oracle)
        assert ok

    def test_one_point_coproduct_is_two_frame(self):
        fr = frame_from_space(space_one_point())
        loc, _ = coproduct_frames([fr, fr])
        assert len(loc.frame) == 2

    @pytest.mark.parametrize("a", sorted(SPACES))
    @pytest.mark.parametrize("b", sorted(SPACES))
    def test_coproduct_oracle_all_pairs(self, a, b):
        x, y = SPACES[a], SPACES[b]
        loc, _ = coproduct_frames([frame_from_space(x), frame_from_space(y)])
        oracle = frame_from_space(product_space([x, y]))
        ok, _ = frame_iso(loc.frame, oracle)
        assert ok
        assert len(points_of(loc.frame)) == len(x.points) * len(y.points)


class TestEmbedding:
    @pytest.mark.parametrize("a,b", [
        ("sierpinski", "sierpinski"), ("discrete2", "chain3"),
        ("point", "discrete2"),
    ])
    def test_embedding_report_empty(self, a, b):
        frames = [frame_from_space(SPACES[a]), frame_from_space(SPACES[b])]
        loc, phi = coproduct_frames(frames)
        assert embed_phi_check(loc, phi) == []

    def test_single_factor_report_empty(self):
        fr = frame_from_space(space_sierpinski())
        loc, phi = coproduct_frames([fr])
        assert embed_phi_check(loc, phi) == []

    def test_truncated_saturation_detected(self):
        """Negative control: a coverage that forgets pairs must be reported."""
        frames = [frame_from_space(space_sierpinski())] * 2
        loc, phi = coproduct_frames(frames)

        class Truncated:
            def __init__(self, real):
                self.real = real
                self.factors = real.factors
                self.top = real.top
                self.rules = real.rules

            def derivable_set(self, target):
                # forget that the top piece is covered by anything
                full = self.real.derivable_set(target)
                return full - {self.real.carrier.rep(self.top)}

            def holds(self, a, u):
                return a in self.derivable_set(u)

        report = embed_phi_check(loc, phi, coverage=Truncated(loc.cov))
        assert report


class TestRectBasis:
    def test_two_sierpinski_exhaustive(self):
        assert rect_basis_check([space_sierpinski()] * 2) == []

    def test_single_factor_trivial(self):
        assert rect_basis_check([space_chain3()]) == []


class TestSpatialProductEq:
    def test_one_point_factors(self):
        eq, report = spatial_product_eq([space_one_point(), space_one_point()])
        assert eq

    def test_sierpinski_square(self):
        eq, report = spatial_product_eq([space_sierpinski()] * 2)
        assert eq
        assert any("spatial: true" in line for line in report)

    def test_discrete_times_chain(self):
        eq, _ = spatial_product_eq([space_discrete("pq"), space_chain3()])
        assert eq

    def test_non_t0_rejected(self):
        from locfine.frames import SpaceDescription
        indiscrete = SpaceDescription(f({"a", "b"}), f({f(), f({"a", "b"})}))
        with pytest.raises(ValueError):
            spatial_product_eq([indiscrete, space_one_point()])


class TestStarVariantEq:
    def test_two_discrete_factors(self):
        d = space_discrete("pq")
        eq, report = star_variant_eq([d, d], regular=[True, True])
        assert eq

    def test_one_point_factors(self):
        p = space_one_point()
        eq, _ = star_variant_eq([p, p], regular=[True, True])
        assert eq

    def test_missing_regularity_flag(self):
        with pytest.raises(ValueError):
            star_variant_eq([space_discrete("pq")] * 2)

    def test_non_regular_factor_still_reports(self):
        s = space_sierpinski()
        eq, report = star_variant_eq([s, s], regular=[False, False])
        assert any("not asserted" in line for line in report)
        assert any("top pairs" in line for line in report)


class TestSaturationCanonicalization:
    def test_sat_orders_subsets_exhaustively(self):
        """U <= V iff sat(U) is contained in sat(V), over a 9-element base."""
        s = space_sierpinski()
        frames = [frame_from_space(s)] * 2
        coverage = ProductCoverage(frames)
        carrier = coverage.carrier
        covers = all_canonical_covers(carrier)
        for u in covers:
            su = coverage.derivable_set(u)
            # mutual refinement with the saturation
            assert u <= su
            for v in covers:
                sv = coverage.derivable_set(v)
                u_le_v = all(x in sv for x in u)
                assert u_le_v == (su <= sv)

    def test_lazy_coverage_agrees_with_materialized_saturation(self):
        """Dual route: goal-directed fixpoint vs the generic C1-C4 engine."""
        s = space_sierpinski()
        frames = [frame_from_space(s)] * 2
        coverage = ProductCoverage(frames)
        carrier = coverage.carrier
        gens = set()
        for b in carrier.class_reps():
            for i, fr in enumerate(frames):
                from locfine.carrier import antichains
                for sub in antichains(sorted(fr.elements), fr.le):
                    j = fr.big_join(sub)
                    if j is not None and fr.le(b[i], j):
                        u = f(b[:i] + (x,) + b[i + 1:] for x in sub)
                        gens.add((b, f(u)))
        closed, _ = saturate(CoveringRelation(carrier, f(gens)), max_covers=2000)
        for u in all_canonical_covers(carrier):
            derived = coverage.derivable_set(u)
            for a in carrier.class_reps():
                assert (a in derived) == closed.holds(a, u), (a, u)


def test_product_monoid_restricted_to_top_pairs_is_preuniform_product():
    """The rectangle basis membership coincides with pullback-meet membership."""
    s1 = fine_monoid(space_discrete("pq"))
    s2 = fine_monoid(space_sierpinski())
    p = product_monoid([s1, s2])
    pc = p.carrier
    # every basis cover is a meet of pullbacks and every pullback is a member
    from locfine.products import pullback_cover
    for i, m in enumerate((s1, s2)):
        for b in m.basis:
            pulled = normalize(
                pullback_cover(b, i, [s1.carrier.points, s2.carrier.points]), pc)
            assert member(p, pulled, use_lambda=False)


def _reference_product_space(spaces):
    """The product topology by closing the rectangles under pairwise union."""
    names, _ = product_points([s.points for s in spaces])
    rects = set()
    for opens in iproduct(*[sorted(s.opens, key=lambda o: tuple(sorted(o)))
                            for s in spaces]):
        rects.add(frozenset(",".join(c) for c in iproduct(*[sorted(o) for o in opens])))
    opens = set(rects)
    opens.add(frozenset())
    changed = True
    while changed:
        changed = False
        for a in list(opens):
            for b in list(opens):
                u = a | b
                if u not in opens:
                    opens.add(u)
                    changed = True
    return names, frozenset(opens)


@pytest.mark.parametrize("factors", [
    ("chain3", "chain3"), ("six", "six"), ("discrete2",) * 3,
    ("chain3", "chain3", "sierpinski"), ("chain3",) * 3,
], ids="x".join)
def test_product_space_matches_pairwise_union_closure(factors):
    spaces = dict(SPACES, six=space_six_opens())
    got = product_space([spaces[k] for k in factors])
    names, opens = _reference_product_space([spaces[k] for k in factors])
    assert got.points == frozenset(names)
    assert got.opens == opens


def _reference_coproduct_frames(fs, max_covers=5000):
    """The coproduct locale by closing the singleton saturations under
    pairwise joins, frontier against every element found so far."""
    coverage = ProductCoverage(fs, max_covers=max_covers)
    carrier = coverage.carrier
    sats = {}

    def note(satset, rep):
        if satset not in sats:
            sats[satset] = normalize(rep, carrier)
            return True
        return False

    note(coverage.derivable_set(frozenset()), frozenset())
    for b in carrier.class_reps():
        note(coverage.derivable_set(frozenset([b])), frozenset([b]))
    frontier = list(sats)
    while frontier:
        items = list(sats.items())
        new_frontier = []
        for s1 in frontier:
            r1 = sats[s1]
            for s2, r2 in items:
                u = normalize(r1 | r2, carrier)
                satu = coverage.derivable_set(u)
                if note(satu, u):
                    new_frontier.append(satu)
        frontier = new_frontier
        if len(sats) > max_covers:
            raise LimitExceededError("coproduct locale exceeded the size guard")
    locale = _locale_of_sets(carrier, coverage, sats)
    phi = EmbeddingPhi({
        b: locale.label_of(coverage.derivable_set(frozenset([b])))
        for b in carrier.class_reps()})
    return locale, phi


def _locale_of_sets(carrier, cov, sats_with_reps):
    """The locale builder on saturations and representatives given as sets
    of names: the one place they become masks, over the atoms of ``cov`` or
    of a kernel with no rules."""
    kernel = cov if cov is not None else products._Coverage(carrier, [])
    sats = {kernel._mask(s): kernel._mask(rep) for s, rep in sats_with_reps.items()}
    locale, _ = _locale_from_sats(carrier, kernel, sats)
    return locale


COPRODUCT_SHAPES = [(a, b) for a in sorted(SPACES) + ["six"]
                    for b in sorted(SPACES) + ["six"]] + [
    ("chain3", "sierpinski", "sierpinski"),
    ("chain3", "discrete2", "sierpinski"),
    ("chain3", "chain3", "sierpinski"),
]


@pytest.mark.parametrize("factors", COPRODUCT_SHAPES, ids="x".join)
def test_coproduct_matches_pairwise_join_closure(factors):
    spaces = dict(SPACES, six=space_six_opens())
    frames = [frame_from_space(spaces[k]) for k in factors]
    loc, phi = coproduct_frames(frames)
    ref, ref_phi = _reference_coproduct_frames(frames)
    assert loc.frame.elements == ref.frame.elements
    assert loc.frame.le_set == ref.frame.le_set
    assert phi.assignments == ref_phi.assignments
    # the fold may pick other representatives, but each presents its element
    for x in loc.frame.elements:
        assert loc.cov.derivable_set(loc.reps[x]) == loc.frame.meaning(x)


def test_coproduct_size_guard_boundary():
    frames = [frame_from_space(space_sierpinski())] * 2
    with pytest.raises(LimitExceededError):
        coproduct_frames(frames, max_covers=5)
    loc, _ = coproduct_frames(frames, max_covers=6)
    assert len(loc.frame) == 6


def _reference_rect_basis_check(spaces, max_covers=5000):
    """Every geometric cover of a box is refined by a derivable box cover,
    checked cover by cover.

    Exhaustive over canonical covers of the product poset when the count
    fits the guard; otherwise each subject is reduced to its finest
    atomistic box cover (valid when atoms denote single points, e.g. for
    discrete factors).
    """
    factors = [frame_from_space(s) for s in spaces]
    coverage = ProductCoverage(factors, max_covers=max_covers)
    carrier = coverage.carrier
    rect = products._rects(factors, [s.points for s in spaces])
    elems = carrier.class_reps()
    report = []
    try:
        covers = all_canonical_covers(carrier, max_count=max_covers)
    except LimitExceededError:
        covers = None
    if covers is not None:
        for a in elems:
            for u in covers:
                union = frozenset().union(*(rect[x] for x in u)) if u else frozenset()
                if not rect[a] <= union:
                    continue
                finest = normalize(
                    frozenset(b for b in elems
                              if carrier.le(b, a) and
                              any(rect[b] <= rect[x] for x in u)), carrier)
                if not coverage.holds(a, finest):
                    report.append(
                        f"no rectangular refinement derivable for "
                        f"({a}, cover of size {len(u)})")
        return report
    for a in elems:
        below = [b for b in elems if carrier.le(b, a) and rect[b]]
        atoms = [b for b in below
                 if not any(b2 != b and carrier.le(b2, b) and rect[b2] for b2 in below)]
        atom_union = frozenset().union(*(rect[b] for b in atoms)) if atoms else frozenset()
        applicable = (all(len(rect[b]) == 1 for b in atoms)
                      and atom_union == rect[a])
        if not applicable:
            raise LimitExceededError(
                "exhaustive cover scan too large and the atomistic reduction "
                "does not apply")
        if not coverage.holds(a, normalize(frozenset(atoms), carrier)):
            report.append(f"finest box cover of {a} is not derivable")
    return report


def _reference_spatial_product_eq(spaces, max_covers=5000):
    """The closed product relation against the geometric one, pair by pair
    over every canonical cover of the product poset."""
    for s in spaces:
        s.validate()
        if not s.is_t0:
            raise ValueError("spatial_product_eq needs T0 factors")
    factors = [frame_from_space(s) for s in spaces]
    coverage = ProductCoverage(factors, max_covers=max_covers)
    carrier = coverage.carrier
    rect = products._rects(factors, [s.points for s in spaces])
    covers = all_canonical_covers(carrier, max_count=max_covers)
    mismatches = 0
    for u in covers:
        union = frozenset().union(*(rect[x] for x in u)) if u else frozenset()
        derived = coverage.derivable_set(u)
        for a in carrier.class_reps():
            geo = rect[a] <= union
            if geo != (a in derived):
                mismatches += 1
    locale, _ = coproduct_frames(factors, max_covers=max_covers)
    spatial, _ = is_spatial(locale.frame)
    equal = mismatches == 0
    report = [
        f"closed product relation equals geometric covering: {str(equal).lower()}"
        + ("" if equal else f" ({mismatches} mismatching pairs)"),
        f"coproduct frame spatial: {str(spatial).lower()} "
        f"(elements={len(locale.frame)}, points={len(points_of(locale.frame))})",
    ]
    return equal and spatial, report


def _answer(check, spaces):
    """The check's result, or None where it stops at its size guard."""
    try:
        return check(spaces)
    except LimitExceededError:
        return None


ALL_SPACES = dict(SPACES, six=space_six_opens())
ALL_PAIRS = [(a, b) for a in sorted(ALL_SPACES) for b in sorted(ALL_SPACES)]


def test_reports_agree_with_the_cover_by_cover_references():
    unanswered = []
    for pair in ALL_PAIRS:
        spaces = [ALL_SPACES[k] for k in pair]
        ref = _answer(_reference_spatial_product_eq, spaces)
        if ref is None:
            unanswered.append(pair)
            continue
        got = spatial_product_eq(spaces)
        assert got[0] == ref[0], pair
        if got[0]:
            assert got[1] == ref[1], pair
    assert unanswered == [("six", "six")]


@pytest.mark.parametrize("factors", [
    ("sierpinski",), ("sierpinski", "sierpinski"), ("discrete2", "discrete2"),
    ("discrete2", "sierpinski"), ("point", "discrete2", "sierpinski"),
    ("discrete2",) * 3,
], ids="x".join)
def test_rect_basis_agrees_with_reference_on_acceptance_cases(factors):
    spaces = [SPACES[k] for k in factors]
    ref = _reference_rect_basis_check(spaces, max_covers=3000)
    assert (rect_basis_check(spaces, max_covers=3000) == []) == (ref == [])


@pytest.mark.parametrize("factors", [
    ("six", "six"), ("chain3", "chain3", "sierpinski"), ("sierpinski",) * 4,
    ("discrete2",) * 3, ("discrete3",) * 2,
], ids="x".join)
def test_reports_answer_past_the_cover_guard(factors):
    spaces = [dict(ALL_SPACES, discrete3=space_discrete("pqr"))[k] for k in factors]
    assert _answer(_reference_spatial_product_eq, spaces) is None
    assert rect_basis_check(spaces) == []
    eq, report = spatial_product_eq(spaces)
    assert eq, report
    eq, report = star_variant_eq(spaces, regular=[True] * len(spaces))
    assert eq, report
    loc, phi = coproduct_frames([frame_from_space(s) for s in spaces])
    assert embed_phi_check(loc, phi) == []


# Mutations that break the product coverage, applied to every
# ProductCoverage (and so to the references too) or to the boxes.

def _drop_a_split_per_element(coverage):
    """Factor 0 loses its first split other than {x} at every element x."""
    for x, splits in coverage._splits[0].items():
        nontrivial = [s for s in splits if s != frozenset([x])]
        if nontrivial:
            splits.remove(nontrivial[0])


def _cover_top_by_any_element(coverage):
    """Unsound: factor 0's top is covered by any single non-bottom element."""
    fr = coverage.factors[0]
    coverage._splits[0][fr.top].extend(
        frozenset([y]) for y in fr.elements if y not in (fr.bottom, fr.top))


def _apply_mutation(monkeypatch, mutation):
    """Apply a mutation to every ProductCoverage built from now on."""
    init = ProductCoverage.__init__

    def mutated(self, *args, **kwargs):
        init(self, *args, **kwargs)
        mutation(self)
        # the kernel's rules are built from the splits, so build them again
        products._Coverage.__init__(self, self.carrier, self.rules)

    monkeypatch.setattr(ProductCoverage, "__init__", mutated)


MUTATION_SPACES = ["chain3", "discrete2", "sierpinski", "six"]
MUTATION_PAIRS = [(a, b) for a in MUTATION_SPACES for b in MUTATION_SPACES
                  if (a, b) != ("six", "six")]


@pytest.mark.parametrize("mutation", [_drop_a_split_per_element,
                                      _cover_top_by_any_element],
                         ids=["dropped-split", "unsound-split"])
def test_coverage_mutations_agree_with_references(monkeypatch, mutation):
    _apply_mutation(monkeypatch, mutation)
    verdicts = []
    for pair in MUTATION_PAIRS:
        spaces = [ALL_SPACES[k] for k in pair]
        eq, report = spatial_product_eq(spaces)
        assert eq == _reference_spatial_product_eq(spaces)[0], pair
        assert eq or "unsound split rules, " in report[0]
        ref_rect = _answer(_reference_rect_basis_check, spaces)
        if ref_rect is not None:
            assert (rect_basis_check(spaces) == []) == (ref_rect == []), pair
        verdicts.append(eq)
    assert not all(verdicts)
    if mutation is _cover_top_by_any_element:
        assert not any(verdicts)


def test_a_box_that_loses_a_point_is_caught(monkeypatch):
    rects = products._rects
    rng = random.Random(6)
    for pair in MUTATION_PAIRS:
        spaces = [ALL_SPACES[k] for k in pair]
        boxes = rects([frame_from_space(s) for s in spaces],
                      [s.points for s in spaces])
        for b in rng.sample(sorted(b for b in boxes if boxes[b]), 2):
            lost = min(boxes[b])

            def shrunk(factors, point_sets, b=b, lost=lost):
                out = rects(factors, point_sets)
                out[b] = out[b] - {lost}
                return out

            monkeypatch.setattr(products, "_rects", shrunk)
            eq, _ = spatial_product_eq(spaces)
            assert not eq and not _reference_spatial_product_eq(spaces)[0], (pair, b)


def test_product_order_matches_the_factorwise_test():
    for pair in ALL_PAIRS:
        factors = [frame_from_space(ALL_SPACES[k]) for k in pair]
        elems = [tuple(c) for c in iproduct(*[fr.elements for fr in factors])]
        le = {(a, b) for a in elems for b in elems
              if all(fr.le(x, y) for fr, x, y in zip(factors, a, b))}
        assert ProductCoverage(factors).carrier.le_pairs() == le, pair


# The mask-built product coverage against the name-built construction it
# replaced: the preorder from its pair set, each factor's families from
# ``antichains`` over ``f.le``, and the split rules by name.

def _reference_product_coverage(factors, max_covers=5000):
    elems = [tuple(c) for c in iproduct(*[fr.elements for fr in factors])]
    le = {(a, b) for a in elems
          for b in iproduct(*[fr.up_set(x) for fr, x in zip(factors, a)])}
    carrier = Preorder(elems, le, tuple(fr.top for fr in factors))
    splits = []
    for fr in factors:
        covers = antichains(sorted(fr.elements), fr.le, max_count=max_covers)
        splits.append({x: [c for c in covers if fr.le(x, fr.big_join(c))]
                       for x in fr.elements})
    rules = [(b, f(b[:i] + (x,) + b[i + 1:] for x in s))
             for b in carrier.class_reps()
             for i, table in enumerate(splits) for s in table[b[i]]]
    return SimpleNamespace(factors=factors, carrier=carrier, _splits=splits, rules=rules)


def _random_t0_space(rng, n):
    """The up-sets of a random order on n points: a finite T0 space."""
    names = rng.sample("abcdefgh", n)
    le = reflexive_transitive_closure(names, [
        (names[i], names[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5])
    opens = {f(x for x in names if any((y, x) in le for y in low)) for low in subsets(names)}
    return SpaceDescription(f(names), f(opens))


def _random_products(count, seed):
    """Products of two spaces of 1-3 points or three of 1-2 points."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.choice([2, 3])
        yield [_random_t0_space(rng, rng.randint(1, 5 - k)) for _ in range(k)]


TRIPLES = list(iproduct(["chain3", "discrete2", "sierpinski"], repeat=3))
RANDOM_PRODUCTS = list(_random_products(50, seed=28))


def _reference_factor_lists():
    """Every pair of ALL_PAIRS, every triple of TRIPLES, the random products,
    and two products with a factor whose bit order is not its name order."""
    spaces = dict(ALL_SPACES)
    out = [[frame_from_space(spaces[k]) for k in shape] for shape in ALL_PAIRS + TRIPLES]
    out += [[frame_from_space(s) for s in spaces] for spaces in RANDOM_PRODUCTS]
    sq, _ = coproduct_frames([frame_from_space(space_chain3())] * 2)
    assert tuple(sq.frame._by_bit) != sq.frame.elements
    out += [[sq.frame, frame_from_space(space_sierpinski())],
            [frame_from_space(space_discrete("pq")), sq.frame]]
    return out


def test_mask_built_product_matches_the_name_built_reference():
    checked = 0
    for factors in _reference_factor_lists():
        got, ref = ProductCoverage(factors), _reference_product_coverage(factors)
        assert got.carrier.le_pairs() == ref.carrier.le_pairs()
        assert got.carrier.class_reps() == ref.carrier.class_reps()
        assert got._splits == ref._splits
        assert got.rules == ref.rules
        for target in [f()] + [f([b]) for b in ref.carrier.class_reps()]:
            assert got.derivable_set(target) == _reference_derivable_set(ref, target)
            checked += 1
    assert checked == 2643


def test_an_intransitive_factor_raises_as_the_pair_set_preorder_does():
    bad = Frame(["a", "b", "c"], {("a", "b"), ("b", "c")})
    for factors in ([bad], [bad, frame_from_space(space_sierpinski())],
                    [frame_from_space(space_discrete("pq")), bad]):
        with pytest.raises(ValueError) as want:
            _reference_product_coverage(factors)
        with pytest.raises(ValueError) as got:
            ProductCoverage(factors)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("relation is not transitive")


def test_transitive_factors_are_never_scanned_as_a_product(monkeypatch):
    """A product of transitive orders is transitive: only each factor's own
    masks are checked."""
    sizes = []
    scan = carrier_module._intransitive

    def recorded(order, up):
        sizes.append(len(order))
        return scan(order, up)

    for module in (carrier_module, frames_module, products):
        monkeypatch.setattr(module, "_intransitive", recorded, raising=False)
    for factors in _reference_factor_lists():
        sizes.clear()
        ProductCoverage(factors)
        assert sizes == [len(fr.elements) for fr in factors]


def _preorder_factors():
    """Factors with two mutually-below elements, the later name no class
    representative: below a top, and between a bottom and a top."""
    twins = Frame("abt", {("a", "b"), ("b", "a"), ("a", "t"), ("b", "t")})
    middle = Frame("0ab1", reflexive_transitive_closure(
        "0ab1", {("0", "a"), ("a", "b"), ("b", "a"), ("b", "1")}))
    sier = frame_from_space(space_sierpinski())
    return [[twins, sier], [sier, middle], [middle, twins], [middle, sier, middle]]


def test_shifted_compile_matches_the_rule_by_rule_compile():
    """Each atom watches the (head, head | body) pairs that compiling
    ``rules`` one by one gives it, as a multiset, and the start agrees."""
    watched = 0
    for factors in _reference_factor_lists() + _preorder_factors():
        got = ProductCoverage(factors)
        ref = products._Coverage(got.carrier, got.rules)
        assert got.rules == _reference_product_coverage(factors).rules
        assert got._start == ref._start
        assert [Counter(w) for w in got._watch] == [Counter(w) for w in ref._watch]
        watched += sum(map(len, ref._watch))
    assert watched > 10000


def test_the_family_guard_raises_before_any_product_mask(monkeypatch):
    """Sierpinski^4's 168-element locale has more than 5000 antichains, so
    its square is refused before its 28 224-element order is built."""
    sier4, _ = coproduct_frames([frame_from_space(space_sierpinski())] * 4)

    def refuse(*args):
        raise AssertionError("a product mask was built")

    monkeypatch.setattr(Preorder, "_from_masks", classmethod(refuse))
    monkeypatch.setattr(products, "_product_masks", refuse)
    with pytest.raises(LimitExceededError):
        ProductCoverage([sier4.frame, sier4.frame])


# The coproduct of finite frames is the frame of opens of the product of
# their point spaces, so its size is the number of up-sets of the product of
# the factors' specialization orders.

def _count_up_sets(spaces):
    """The up-sets of the product order, counted as its antichains: those
    within ``allowed`` either skip its lowest point i or hold i and then
    nothing comparable with i; memoised on the mask."""
    combos = list(iproduct(*[sorted(s.points) for s in spaces]))

    def le(p, q):
        return all(y in o for s, x, y in zip(spaces, p, q) for o in s.opens if x in o)

    comparable = [sum(1 << j for j, q in enumerate(combos) if le(p, q) or le(q, p))
                  for p in combos]
    memo = {0: 1}

    def count(allowed):
        got = memo.get(allowed)
        if got is None:
            low = allowed & -allowed
            i = low.bit_length() - 1
            got = memo[allowed] = (count(allowed ^ low)
                                   + count(allowed & ~comparable[i]))
        return got

    return count((1 << len(combos)) - 1)


@pytest.mark.parametrize("shape,size", [
    (("chain3",) * 3, 980), (("six", "six", "sierpinski"), 2160),
    (("chain3", "chain3", "six"), 3500)], ids=["chain3^3", "six^2xsierpinski", "chain3^2xsix"])
def test_coproduct_size_is_the_up_set_count(shape, size):
    spaces = [ALL_SPACES[k] for k in shape]
    assert _count_up_sets(spaces) == size
    loc, _ = coproduct_frames([frame_from_space(s) for s in spaces])
    assert len(loc.frame) == size
    assert len(points_of(loc.frame)) == prod(len(s.points) for s in spaces)


def test_random_coproducts_have_the_up_set_count():
    for spaces in RANDOM_PRODUCTS:
        loc, _ = coproduct_frames([frame_from_space(s) for s in spaces])
        assert len(loc.frame) == _count_up_sets(spaces)
        assert len(points_of(loc.frame)) == prod(len(s.points) for s in spaces)


# The Horn-clause kernel against the loops it replaced.

def _reference_derivable_set(coverage, target):
    """All product elements b with (b, target) in the closure, by
    rescanning every element until no split lands in the derived set."""
    target = normalize(target, coverage.carrier)
    elems = coverage.carrier.class_reps()
    derived = {b for b in elems
               if any(coverage.carrier.le(b, t) for t in target)}
    changed = True
    while changed:
        changed = False
        for b in elems:
            if b in derived:
                continue
            hit = False
            for i in range(len(coverage.factors)):
                for s in coverage._splits[i][b[i]]:
                    kids = [b[:i] + (x,) + b[i + 1:] for x in s]
                    if all(k in derived for k in kids):
                        hit = True
                        break
                if hit:
                    break
            if hit:
                derived.add(b)
                changed = True
    return frozenset(derived)


def test_kernel_matches_the_rescanning_loop_on_every_cover():
    checked = 0
    for pair in ALL_PAIRS:
        frames = [frame_from_space(ALL_SPACES[k]) for k in pair]
        coverage = ProductCoverage(frames)
        try:
            covers = all_canonical_covers(coverage.carrier)
        except LimitExceededError:
            assert pair == ("six", "six")
            continue
        for u in covers:
            assert coverage.derivable_set(u) == \
                _reference_derivable_set(coverage, u), (pair, u)
        checked += len(covers)
    assert checked == 3938


def _reference_locale_from_cov(rel, max_covers=5000):
    """The locale of the distinct saturations of every canonical cover,
    read off the materialised C1-C4 closure."""
    rel, _ = saturate(rel, max_covers=max_covers)
    carrier = rel.carrier
    by_cover = {}
    for (a, u) in rel.pairs:
        by_cover.setdefault(u, set()).add(a)
    sats = {}
    for u in all_canonical_covers(carrier, max_count=max_covers):
        sats.setdefault(frozenset(by_cover.get(u, ())), u)
    return _locale_of_sets(carrier, None, sats)


def _random_relation(rng, carrier, gens):
    """Up to ``gens`` pairs of a random piece and a family of 0-3 pieces."""
    pieces = sorted(carrier.elements(), key=carrier.key)
    return CoveringRelation(carrier, f(
        (rng.choice(pieces), f(rng.sample(pieces, rng.randint(0, 3))))
        for _ in range(rng.randint(0, gens))))


def _random_preorder(rng, size):
    names = list("abcde")[:size - 1] + ["t"]
    edges = {(x, "t") for x in names}
    edges |= {(x, y) for x in names for y in names if rng.random() < 0.25}
    return Preorder.from_edges(names, edges, "t")


def _frame_relations(rng, fr, count):
    """``count`` relations of 1-3 pairs drawn from the canonical relation."""
    pairs = canonical_cov(fr).sorted_pairs()
    carrier = frame_preorder(fr)
    return [CoveringRelation(carrier, f(rng.sample(pairs, rng.randint(1, 3))))
            for _ in range(count)]


def _relation_corpus():
    rng = random.Random(7)
    small = [chain_frame(4), chain_frame(5), boolean_frame_2()] + [
        frame_from_space(s) for s in (
            space_six_opens(), space_chain3(), space_discrete("pqr"),
            product_space([space_sierpinski()] * 2),
            product_space([space_discrete("pq"), space_sierpinski()]),
            product_space([space_chain3(), space_sierpinski()]))]
    big = frame_from_space(product_space([space_six_opens(), space_sierpinski()]))
    c4 = Preorder.from_edges(
        "tbcde", [("b", "t"), ("c", "t"), ("d", "b"), ("e", "c")], "t")
    corpus = [canonical_cov(fr) for fr in (
        chain_frame(2), chain_frame(3), chain_frame(4), boolean_frame_2(),
        frame_from_space(space_six_opens()), big)]
    c4_rel = CoveringRelation(c4, f({
        ("t", f({"b", "c"})), ("b", f({"d"})), ("c", f({"e"}))}))
    corpus.append(c4_rel)
    corpus.append(CoveringRelation(c4, f()))
    corpus += [CoveringRelation(SubsetCarrier("pqr"[:n]), f()) for n in (1, 2, 3)]
    on_preorders = [_random_relation(rng, _random_preorder(rng, rng.randint(3, 6)), 3)
                    for _ in range(160)]
    corpus += on_preorders
    for fr in small:
        corpus += _frame_relations(rng, fr, 6)
    corpus += _frame_relations(rng, big, 3)
    corpus += [_random_relation(rng, SubsetCarrier("pqr"), 3) for _ in range(40)]
    on_subsets = [_random_relation(rng, SubsetCarrier("pqrs"), 2) for _ in range(3)]
    corpus += on_subsets
    # closed relations take the same rules as their generators
    corpus += [saturate(rel)[0] for rel in [c4_rel, *on_preorders[:4], *on_subsets]]
    return corpus


RELATIONS = _relation_corpus()


def test_locale_from_cov_matches_the_materialised_closure():
    for rel in RELATIONS:
        loc = locale_from_cov(rel)
        ref = _reference_locale_from_cov(rel)
        assert loc.frame.elements == ref.frame.elements, rel
        assert loc.frame.meanings == ref.frame.meanings, rel
        assert loc.frame.le_set == ref.frame.le_set, rel
        for x in loc.frame.elements:
            assert loc.cov.derivable_set(loc.reps[x]) == loc.frame.meaning(x)


def test_kernel_holds_matches_saturate_on_small_carriers():
    checked = 0
    for rel in RELATIONS:
        carrier = rel.carrier
        if len(carrier.class_reps()) > 8:
            continue
        cov = locale_from_cov(rel).cov
        closed, _ = saturate(rel)
        for u in all_canonical_covers(carrier):
            for a in carrier.elements():
                assert cov.holds(a, u) == closed.holds(a, u), (rel, a, u)
                checked += 1
    assert checked > 10000


def test_binary_joins_present_a_frame_past_the_cover_guard():
    """{(y \\/ z, {y, z})} with (bottom, {}) presents a finite frame; the
    36 elements of six-opens x discrete-2 have more than 5000 canonical
    covers, so only rules built from the generators can answer."""
    fr = frame_from_space(product_space([space_six_opens(), space_discrete("pq")]))
    carrier = frame_preorder(fr)
    with pytest.raises(LimitExceededError):
        all_canonical_covers(carrier)
    gens = {(fr.join(y, z), f({y, z})) for y in fr.elements for z in fr.elements}
    loc = locale_from_cov(CoveringRelation(carrier, f(gens | {(fr.bottom, f())})))
    ok, _ = frame_iso(loc.frame, fr)
    assert ok


def test_star_variant_builds_one_product_coverage(monkeypatch):
    built = []
    init = ProductCoverage.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ProductCoverage, "__init__", counted)
    d = space_discrete("pq")
    eq, _ = star_variant_eq([d, d], regular=[True, True])
    assert eq and len(built) == 1


# The closure step against the rescanning loops.

def _extend_visits(monkeypatch, build):
    """Each (coverage, closed set, atoms, least closed superset) that the
    kernel steps through while build() runs: fold steps add one atom to
    sat(U), single questions start from the empty set."""
    visits = []
    extend = products._Coverage._extend

    def recorded(self, closed, atoms):
        out = extend(self, closed, atoms)
        # the kernel steps on masks; the coverage's own decoder names them
        visits.append((self, self._names(closed), tuple(self._names(atoms)),
                       self._names(out)))
        return out

    with monkeypatch.context() as m:
        m.setattr(products._Coverage, "_extend", recorded)
        build()
    return visits


def _least_closed_superset(coverage, seed):
    """The least superset of seed closed under the splits, by rescanning."""
    derived = set(seed)
    changed = True
    while changed:
        changed = False
        for b in coverage.carrier.class_reps():
            if b not in derived and any(
                    all(b[:i] + (x,) + b[i + 1:] in derived for x in s)
                    for i, table in enumerate(coverage._splits) for s in table[b[i]]):
                derived.add(b)
                changed = True
    return frozenset(derived)


@pytest.mark.parametrize("mutation", [None, _drop_a_split_per_element,
                                      _cover_top_by_any_element],
                         ids=["sound", "dropped-split", "unsound-split"])
def test_fold_step_matches_the_rescanning_loop(monkeypatch, mutation):
    """Each step is the least closed superset of its closed set and atoms,
    under the splits as mutated.  That is sat of their union as the
    reference finds it, which seeds the down-set of its target, wherever
    every order step b <= b' is still a split: not under the dropped
    splits."""
    if mutation is not None:
        _apply_mutation(monkeypatch, mutation)
    steps = 0
    for pair in ALL_PAIRS:
        frames = [frame_from_space(ALL_SPACES[k]) for k in pair]
        for coverage, s, atoms, out in _extend_visits(
                monkeypatch, lambda: coproduct_frames(frames)):
            seed = s.union(atoms)
            assert out == _least_closed_superset(coverage, seed), (pair, atoms)
            if mutation is not _drop_a_split_per_element:
                assert out == _reference_derivable_set(coverage, seed), (pair, atoms)
            if s:
                assert len(atoms) == 1 and atoms[0] not in s, (pair, atoms)
                steps += 1
    assert steps > 400


def test_fold_step_matches_the_closure_on_presentations(monkeypatch):
    """Each fold step sat(U) | {b} of a presentation gives the saturation
    that the materialised C1-C4 closure holds for the normalized union."""
    steps = 0
    for rel in RELATIONS:
        closure, _ = saturate(rel)
        by_cover = {}
        for (a, u) in closure.pairs:
            by_cover.setdefault(u, set()).add(a)
        for cov, s, atoms, out in _extend_visits(monkeypatch, lambda: locale_from_cov(rel)):
            u = normalize(s.union(atoms), cov.carrier)
            assert out == frozenset(by_cover.get(u, ())), (rel, atoms)
            steps += bool(s)
    assert steps > 1000


# The locale's masks against the pair set they replaced.

def _reference_locale_from_sats(carrier, cov, sats_with_reps) -> GeneratedLocale:
    """The locale with its order built as the set of all pairs a <= b of
    saturations."""
    ordered = sorted(sats_with_reps,
                     key=lambda s: (len(s), tuple(sorted(carrier.key(e) for e in s))))
    labels = {s: f"x{i}" for i, s in enumerate(ordered)}
    le = {(labels[a], labels[b]) for a in ordered for b in ordered if a <= b}
    frame = Frame(labels.values(), le, meanings={labels[s]: s for s in ordered})
    rep_masks = {labels[s]: cov._mask(sats_with_reps[s]) for s in ordered}
    return GeneratedLocale(carrier, cov, tuple(ordered), frame, rep_masks)


def _assert_same_locale(loc, ref):
    """Same labels, order and representatives; on up to 40 elements, every
    order question answered as the search-based frame does."""
    assert loc.elements == ref.elements
    assert loc.frame.elements == ref.frame.elements
    assert loc.frame.meanings == ref.frame.meanings
    assert loc.reps == ref.reps
    assert loc.frame.le_set == ref.frame.le_set
    if len(loc.frame) <= 40:
        _compare_order_with_reference(
            loc.frame, _ReferenceFrame(ref.frame.elements, ref.frame.le_set))
    _compare_points_with_reference(loc.frame, ref.frame)


def _rebuilt(loc):
    sats = {loc.frame.meaning(x): loc.reps[x] for x in loc.frame.elements}
    return _reference_locale_from_sats(loc.carrier, loc.cov, sats)


@pytest.mark.parametrize("factors", COPRODUCT_SHAPES, ids="x".join)
def test_coproduct_masks_match_the_pair_set(factors):
    spaces = dict(SPACES, six=space_six_opens())
    loc, _ = coproduct_frames([frame_from_space(spaces[k]) for k in factors])
    # the join-dense point search runs on every coproduct
    assert loc.frame._join_dense is not None
    _assert_same_locale(loc, _rebuilt(loc))


@pytest.mark.parametrize("factors", COPRODUCT_SHAPES, ids="x".join)
def test_coproduct_names_read_through_the_selector_match_the_bit_walk(factors):
    spaces = dict(SPACES, six=space_six_opens())
    loc, _ = coproduct_frames([frame_from_space(spaces[k]) for k in factors])
    assert _compare_names_with_bits(loc.frame) == prod(len(spaces[k].points) for k in factors)


def test_presented_locale_masks_match_the_pair_set():
    for rel in RELATIONS:
        loc = locale_from_cov(rel)
        assert loc.frame._join_dense is not None
        _assert_same_locale(loc, _rebuilt(loc))


def test_masks_of_arbitrary_set_families_match_the_pair_set():
    """Families not closed under anything: the frame is seldom a lattice,
    has no known join-dense set, and points come from the full test."""
    rng = random.Random(3)
    carrier = SubsetCarrier("pqr")
    atoms = carrier.class_reps()
    lattices = 0
    for _ in range(300):
        family = {f(rng.sample(atoms, rng.randint(0, len(atoms)))): f([atoms[i % len(atoms)]])
                  for i in range(rng.randint(1, 9))}
        got = _locale_of_sets(carrier, None, family)
        ref = _reference_locale_from_sats(carrier, got.cov, family)
        assert got.frame._join_dense is None
        _assert_same_locale(got, ref)
        lattices += validate_frame(ref.frame).ok
    assert 0 < lattices < 150


@pytest.mark.parametrize("n,elements", [(1, 3), (2, 6), (3, 20), (4, 168)])
def test_free_frame_ladder(n, elements):
    """The coproduct of n Sierpinski frames is the free frame on n
    generators: M(n) elements (Dedekind numbers, OEIS A000372), 2^n points,
    and spatial."""
    loc, _ = coproduct_frames([frame_from_space(space_sierpinski())] * n)
    assert len(loc.frame) == elements
    assert len(points_of(loc.frame)) == 2 ** n
    assert is_spatial(loc.frame) == (True, None)


# The checks behind star_variant_eq and embed_phi_check against the cover
# scans they replaced.

def _reference_top_pairs(spaces, max_covers=5000):
    """Top in sat(U) against closure membership of the boxes of U, for every
    canonical cover U of the product poset."""
    factors = [frame_from_space(s) for s in spaces]
    locale, _ = products.coproduct_frames(factors, max_covers=max_covers)
    coverage = locale.cov
    carrier = coverage.carrier
    rect = products._rects(factors, [s.points for s in spaces])
    pm = products.product_monoid(
        [products.fine_monoid(s, max_covers=max_covers) for s in spaces],
        max_basis=max_covers)
    top = carrier.rep(coverage.top)
    eq74 = True
    for u in all_canonical_covers(carrier, max_count=max_covers):
        point_cover = normalize(f(rect[x] for x in u), pm.carrier)
        if coverage.holds(top, u) != member(pm, point_cover, use_lambda=True):
            eq74 = False
    return eq74


def _reference_closure_check(spaces, max_covers=5000):
    """Closure membership against refinement by the finest open cover, for
    every canonical cover of the product's points.  The scan lists all
    2^|points| subsets before its guard applies."""
    pm = products.product_monoid(
        [products.fine_monoid(s, max_covers=max_covers) for s in spaces],
        max_basis=max_covers)
    pcarrier = pm.carrier
    prod = product_space(spaces)
    finest_open = normalize(f(prod.min_open(p) for p in prod.points), pcarrier)
    return all(member(pm, v, use_lambda=True) == refines(finest_open, v, pcarrier)
               for v in all_canonical_covers(pcarrier, max_count=max_covers))


def _reference_embed_phi_check(locale, phi, coverage=None, max_covers=5000):
    """The embedding report with pairs checked over every canonical cover of
    the product poset and covers over every antichain of the locale."""
    coverage = coverage if coverage is not None else locale.cov
    carrier = locale.carrier
    frame = locale.frame
    report = []
    elems = carrier.class_reps()
    bottoms = [fr.bottom for fr in coverage.factors]
    degenerate = {b for b in elems
                  if any(x == bot for x, bot in zip(b, bottoms))}
    for u in elems:
        for v in elems:
            if carrier.le(u, v) and not frame.le(phi[u], phi[v]):
                report.append(f"phi drops the order at {u} <= {v}")
            if u in degenerate or v in degenerate:
                continue
            if frame.le(phi[u], phi[v]) and not carrier.le(u, v):
                report.append(f"phi conflates {u} and {v}")
    for u in degenerate:
        if phi[u] != frame.bottom:
            report.append(f"degenerate element {u} misses the bottom")
    for u in all_canonical_covers(carrier, max_count=max_covers):
        derived = coverage.derivable_set(u)
        image_join = frame.big_join(phi[x] for x in u)
        for a in elems:
            if a in derived and not frame.le(phi[a], image_join):
                report.append(f"phi drops pair ({a}, {sorted(map(str, u))})")
    for e in antichains(sorted(frame.elements), frame.le, max_count=max_covers):
        if frame.big_join(e) != frame.top:
            continue
        u = normalize(f().union(*(locale.reps[x] for x in e)), carrier)
        if not coverage.holds(carrier.rep(coverage.top), u):
            report.append(f"no derivable preimage for locale cover {sorted(e)}")
            continue
        for b in u:
            if not any(frame.le(phi[b], x) for x in e):
                report.append(
                    f"image member {phi[b]} escapes locale cover {sorted(e)}")
    return report


def _truncated(coverage):
    """The coverage, forgetting that the top piece is covered by anything."""
    fake = copy.copy(coverage)
    top = coverage.carrier.rep(coverage.top)
    fake.derivable_set = lambda target: coverage.derivable_set(target) - {top}
    return fake


def _drop_the_finest_fine_cover(monkeypatch):
    """Each fine monoid with another cover loses the cover by minimal opens."""
    fine = products.fine_monoid

    def mutated(space, *args, **kwargs):
        m = fine(space, *args, **kwargs)
        finest = normalize(map(space.min_open, space.points), m.carrier)
        if len(m.basis) > 1:
            m = CoveringMonoid(m.carrier, tuple(c for c in m.basis if c != finest))
        return m

    monkeypatch.setattr(products, "fine_monoid", mutated)


def _drop_the_first_pullbacks(monkeypatch):
    """product_monoid replaces the pullback of each cover of the first
    factor that has more than one member by the trivial cover."""
    pullback = products.pullback_cover

    def mutated(cover, axis, point_sets):
        if axis == 0 and len(cover) > 1:
            cover = f([f(point_sets[0])])
        return pullback(cover, axis, point_sets)

    monkeypatch.setattr(products, "pullback_cover", mutated)


def _shrink_a_box(monkeypatch):
    """The middle nonempty box, in element order, loses its least point."""
    rects = products._rects

    def shrunk(factors, point_sets):
        out = rects(factors, point_sets)
        boxes = sorted(b for b in out if out[b])
        if boxes:
            b = boxes[len(boxes) // 2]
            out[b] = out[b] - {min(out[b])}
        return out

    monkeypatch.setattr(products, "_rects", shrunk)


REPORT_SPACES = dict(ALL_SPACES, empty=SpaceDescription(f(), f([f()])))
REPORT_SHAPES = ALL_PAIRS + [
    ("sierpinski",) * 3, ("chain3", "sierpinski", "sierpinski"),
    ("empty", "sierpinski"), ("chain3", "empty")]
REPORT_MUTATIONS = {
    "sound": lambda mp: None,
    "dropped-split": lambda mp: _apply_mutation(mp, _drop_a_split_per_element),
    "unsound-split": lambda mp: _apply_mutation(mp, _cover_top_by_any_element),
    "shrunk-box": _shrink_a_box,
    "fine-monoid-loses-finest": _drop_the_finest_fine_cover,
    "dropped-pullback": _drop_the_first_pullbacks,
    "truncated-coverage": lambda mp: _truncated,
}


def _report_verdicts(spaces, wrap):
    """Each check's verdict, new and by reference, where the reference
    answers; the closure reference only on up to 12 points, as its scan
    lists every subset first."""
    out = {}
    _, report = star_variant_eq(spaces, regular=[True] * len(spaces))
    top_pairs, closure = (line.endswith("true") for line in report[:2])
    ref = _answer(_reference_top_pairs, spaces)
    if ref is not None:
        out["top pairs"] = (top_pairs, ref)
    if len(product_space(spaces).points) <= 12:
        ref = _answer(_reference_closure_check, spaces)
        if ref is not None:
            out["closure"] = (closure, ref)
    loc, phi = coproduct_frames([frame_from_space(s) for s in spaces])
    coverage = wrap(loc.cov) if wrap else loc.cov
    try:
        ref = _reference_embed_phi_check(loc, phi, coverage)
    except LimitExceededError:
        return out
    out["embedding"] = (embed_phi_check(loc, phi, coverage) == [], ref == [])
    return out


@pytest.mark.parametrize("mutation", REPORT_MUTATIONS)
def test_report_checks_agree_with_the_cover_scans(monkeypatch, mutation):
    """Every verdict matches its reference, and each mutation makes both
    forms of some check say false on some shape."""
    wrap = REPORT_MUTATIONS[mutation](monkeypatch)
    answered, false = Counter(), Counter()
    for shape in REPORT_SHAPES:
        for check, (got, want) in _report_verdicts(
                [REPORT_SPACES[k] for k in shape], wrap).items():
            assert got == want, (shape, check)
            answered[check] += 1
            false[check] += not got
    # a mutated locale can change how many shapes the scans reach
    assert answered.keys() == {"top pairs", "closure", "embedding"}
    if mutation == "sound":
        assert answered == {"top pairs": 28, "closure": 15, "embedding": 26}
    assert (sum(false.values()) == 0) == (mutation == "sound"), false


def test_embedding_report_does_not_depend_on_the_hash_seed():
    """Tuples with a bottom coordinate sent to the top: the report lists
    them, and the order it lists them in is the same under every seed."""
    script = (
        "from locfine.frames import frame_from_space, space_chain3, space_sierpinski\n"
        "from locfine.products import EmbeddingPhi, coproduct_frames, embed_phi_check\n"
        "frames = [frame_from_space(space_chain3()), frame_from_space(space_sierpinski())]\n"
        "loc, phi = coproduct_frames(frames)\n"
        "bottoms = [fr.bottom for fr in frames]\n"
        "bad = EmbeddingPhi({b: loc.frame.top if any(x == y for x, y in zip(b, bottoms))\n"
        "                    else phi[b] for b in phi.assignments})\n"
        "print('\\n'.join(embed_phi_check(loc, bad)))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(products.__file__)))
    runs = [subprocess.run([sys.executable, "-c", script], check=True,
                           env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
                           capture_output=True, text=True).stdout
            for seed in ("0", "1")]
    assert runs[0] == runs[1]
    assert "misses the bottom" in runs[0]
