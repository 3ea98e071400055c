"""Cover combinatorics: refinement, meets, normalization, stars."""

import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from locfine.carrier import (
    CarrierMismatchError,
    Preorder,
    SubsetCarrier,
    all_canonical_covers,
    antichains,
    cover_key,
    fold_meet,
    meet_cover,
    mutually_refine,
    normalize,
    reflexive_transitive_closure,
    refines,
    restrict,
    star_refines,
    subsets,
)
from locfine.errors import LimitExceededError
from locfine.frames import chain_frame

f = frozenset


def s(*names):
    return f(names)


@pytest.fixture
def c3():
    return SubsetCarrier(["0", "1", "2"])


def cov(*member_sets):
    return f(f(m) for m in member_sets)


class TestRefines:
    def test_member_containment(self, c3):
        u = cov("0", "12")
        v = cov("01", "12")
        assert refines(u, v, c3)

    def test_reflexive(self, c3):
        u = cov("01", "12")
        assert refines(u, u, c3)

    def test_negative(self, c3):
        u = cov("01", "12")
        v = cov("0", "12")
        # {0,1} is contained in neither {0} nor {1,2}
        assert not refines(u, v, c3)

    def test_unknown_element_rejected(self, c3):
        with pytest.raises(CarrierMismatchError):
            refines(cov("03"), cov("01"), c3)


class TestMeetCover:
    def test_pairwise_intersections(self, c3):
        u = cov("01", "2")
        v = cov("0", "12")
        assert meet_cover(u, v, c3) == cov("0", "1", "2")

    def test_top_is_identity(self, c3):
        u = cov("01", "12")
        m = meet_cover(u, f({c3.top}), c3)
        assert m == normalize(u, c3)

    def test_preorder_common_lower_bound(self):
        p = Preorder.from_edges("tbcd", [("d", "b"), ("d", "c"), ("b", "t"), ("c", "t")], "t")
        assert meet_cover(f({"b"}), f({"c"}), p) == f({"d"})

    @pytest.mark.parametrize("carrier,stranger", [
        (Preorder(["a", "t"], {("a", "t")}, "t"), "zz"),
        (SubsetCarrier(["a", "t"]), f({"zz"})),
    ])
    def test_a_stranger_is_rejected_beside_an_empty_cover(self, carrier, stranger):
        for u, v in ((f(), f({stranger})), (f({stranger}), f())):
            with pytest.raises(CarrierMismatchError):
                meet_cover(u, v, carrier)


class TestNormalize:
    def test_subsumed_members_removed(self, c3):
        assert normalize(cov("01", "0", "1"), c3) == cov("01")

    def test_idempotent_on_normal_cover(self, c3):
        u = cov("01", "12")
        assert normalize(u, c3) == u

    def test_empty_member_dropped(self, c3):
        assert normalize(f({f(), f({"2"})}), c3) == cov("2")

    def test_preorder_equivalent_elements_collapse(self):
        p = Preorder(["a", "b", "t"], [("a", "b"), ("b", "a"), ("a", "t"), ("b", "t")], "t")
        assert normalize(f({"a", "b"}), p) == f({"a"})


class TestRestrict:
    def test_intersect_then_normalize(self, c3):
        u = cov("01", "12")
        assert restrict(u, s("1", "2"), c3) == cov("12")

    def test_top_restriction(self, c3):
        u = cov("01", "0")
        assert restrict(u, c3.top, c3) == normalize(u, c3)

    def test_empty_restriction(self, c3):
        assert restrict(cov("01"), f(), c3) == f()

    def test_union_equals_trace(self, c3):
        u = cov("01", "2")
        a = s("1", "2")
        traced = restrict(u, a, c3)
        assert frozenset().union(*traced) == a & frozenset().union(*u)


class TestStarRefines:
    def test_singletons_star_refine(self, c3):
        v = cov("0", "1", "2")
        u = cov("01", "12")
        assert star_refines(v, u, c3)

    def test_trivial_cover(self, c3):
        v = f({c3.top})
        assert star_refines(v, v, c3)

    def test_overlapping_cover_fails(self, c3):
        v = cov("01", "12")
        # St({0,1}, v) = {0,1,2} fits in no member.
        assert not star_refines(v, v, c3)


# Exhaustive law checks over every canonical cover of a 3-point carrier.

def _all_covers(carrier):
    return all_canonical_covers(carrier)


def test_refines_is_reflexive_and_transitive_exhaustively(c3):
    covers = _all_covers(c3)
    for u in covers:
        assert refines(u, u, c3)
    for u in covers:
        for v in covers:
            if not refines(u, v, c3):
                continue
            for w in covers:
                if refines(v, w, c3):
                    assert refines(u, w, c3)


def test_meet_cover_is_glb_exhaustively(c3):
    covers = _all_covers(c3)
    for u in covers:
        for v in covers:
            m = meet_cover(u, v, c3)
            assert refines(m, u, c3) and refines(m, v, c3)
            for w in covers:
                if refines(w, u, c3) and refines(w, v, c3):
                    assert refines(w, m, c3)


def test_meet_cover_commutative_associative_up_to_mutual_refinement(c3):
    covers = [u for u in _all_covers(c3) if u][:12]
    for u in covers:
        for v in covers:
            assert meet_cover(u, v, c3) == meet_cover(v, u, c3)
    for u in covers[:6]:
        for v in covers[:6]:
            for w in covers[:6]:
                left = meet_cover(meet_cover(u, v, c3), w, c3)
                right = meet_cover(u, meet_cover(v, w, c3), c3)
                assert mutually_refine(left, right, c3)


points4 = st.frozensets(st.sampled_from(["0", "1", "2", "3"]), max_size=4)
covers4 = st.frozensets(points4, max_size=4)


@settings(max_examples=150, deadline=None)
@given(covers4)
def test_normalize_idempotent(u):
    c = SubsetCarrier(["0", "1", "2", "3"])
    n = normalize(u, c)
    assert normalize(n, c) == n
    assert mutually_refine(u, n, c)


@settings(max_examples=150, deadline=None)
@given(covers4, covers4)
def test_refines_invariant_under_normalization(u, v):
    c = SubsetCarrier(["0", "1", "2", "3"])
    assert refines(u, v, c) == refines(normalize(u, c), normalize(v, c), c)


@settings(max_examples=100, deadline=None)
@given(st.lists(covers4, min_size=1, max_size=3))
def test_fold_meet_refines_every_input(cs):
    c = SubsetCarrier(["0", "1", "2", "3"])
    m = fold_meet(cs, c)
    for u in cs:
        assert refines(m, normalize(u, c), c)


def test_cover_key_is_deterministic(c3):
    u = cov("01", "2")
    assert cover_key(u, c3) == (("0", "1"), ("2",))


def test_preorder_rejects_non_transitive_relation():
    with pytest.raises(ValueError):
        Preorder("abc", [("a", "b"), ("b", "c")], "c")


def test_preorder_requires_dominating_top():
    with pytest.raises(ValueError):
        Preorder.from_edges("ab", [], "a")


def _brute_closure(names, edges):
    """Close under composition until nothing new appears."""
    rel = {(a, a) for a in names} | set(edges)
    while True:
        more = {(a, d) for (a, b) in rel for (c, d) in rel if b == c} - rel
        if not more:
            return rel
        rel |= more


@st.composite
def _edge_lists(draw):
    """Names drawn from six letters, and edges over them; with a stray
    name ``z`` in the pool when the flag is drawn."""
    names = draw(st.lists(st.sampled_from("abcdef"), unique=True, max_size=6))
    pool = names + ["z"] if draw(st.booleans()) else names
    if not pool:
        return names, []
    node = st.sampled_from(pool)
    return names, draw(st.lists(st.tuples(node, node), max_size=12))


@settings(max_examples=300, deadline=None)
@given(_edge_lists())
def test_reflexive_transitive_closure_matches_brute_force(case):
    names, edges = case
    if any(x not in names for e in edges for x in e):
        with pytest.raises(ValueError, match="relation mentions unknown element"):
            reflexive_transitive_closure(names, edges)
    else:
        assert reflexive_transitive_closure(names, edges) == _brute_closure(names, edges)


def _doubling_subsets(elements):
    """The former ``FormalPresentation.all_covers``: double, then sort."""
    out = [f()]
    for e in elements:
        out += [s | {e} for s in out]
    return sorted(set(out), key=lambda s: (len(s), tuple(sorted(s))))


@pytest.mark.parametrize("n", range(7))
def test_subsets_by_size_then_lexicographic(n):
    elems = tuple("abcdefg"[:n])
    assert [f(s) for s in subsets(elems)] == _doubling_subsets(elems)
    assert list(SubsetCarrier(elems).elements()) == _doubling_subsets(elems)


def test_preorder_names_the_least_undominated_element():
    with pytest.raises(ValueError, match=r"^top does not dominate a$"):
        Preorder("abct", [("a", "b")], "t")


def test_preorder_names_the_least_intransitive_triple():
    with pytest.raises(ValueError, match=r"^relation is not transitive: a <= b <= c$"):
        Preorder("abcd", [("a", "b"), ("b", "c"), ("c", "d")], "d")


def test_le_on_an_unknown_name_is_false():
    assert not chain_frame(3).le("c0", None)
    p = Preorder.from_edges("ab", [("a", "b")], "b")
    assert not p.le("a", "z") and not p.le("z", "b")


def test_preorders_are_equal_when_their_orders_are():
    chain = Preorder.from_edges("abt", [("a", "b"), ("b", "t")], "t")
    again = Preorder("tba", chain.le_pairs(), "t")
    assert chain == again and hash(chain) == hash(again)
    assert chain != Preorder.from_edges("abt", [("a", "t"), ("b", "t")], "t")


# The pair-set preorder the up/down-set one replaced, kept as a reference.

class _ReferencePreorder:
    def __init__(self, elements, le_pairs, top):
        self.elements_tuple = tuple(sorted(set(elements)))
        names = set(self.elements_tuple)
        rel = {(a, b) for (a, b) in le_pairs}
        for a, b in rel:
            if a not in names or b not in names:
                raise ValueError(f"relation mentions unknown element: {(a, b)}")
        for a in names:
            rel.add((a, a))
        for a, b in list(rel):
            for c in names:
                if (b, c) in rel and (a, c) not in rel:
                    raise ValueError(f"relation is not transitive: {a} <= {b} <= {c}")
        if top not in names:
            raise ValueError(f"unknown top element: {top}")
        for a in names:
            if (a, top) not in rel:
                raise ValueError(f"top does not dominate {a}")
        self.top = top
        self._le = frozenset(rel)
        self._rep = {}
        for a in names:
            cls = sorted(b for b in names if (a, b) in rel and (b, a) in rel)
            self._rep[a] = cls[0]

    def check_element(self, e):
        if e not in self._rep:
            raise CarrierMismatchError(f"unknown element id: {e!r}")

    def le(self, a, b):
        return (a, b) in self._le

    def meet2(self, a, b):
        lower = {self._rep[p] for p in self.elements_tuple
                 if self.le(p, a) and self.le(p, b)}
        return [p for p in lower
                if not any(q != p and self.le(p, q) for q in lower)]

    def rep(self, e):
        return self._rep[e]

    def class_reps(self):
        return sorted(set(self._rep.values()))


def _reference_normalize(u, carrier):
    members = set()
    for m in u:
        carrier.check_element(m)
        members.add(carrier.rep(m))
    return f(m for m in members
             if not any(m2 != m and carrier.le(m, m2) for m2 in members))


def _reference_meet_cover(u, v, carrier):
    return _reference_normalize(
        [p for a in u for b in v for p in carrier.meet2(a, b)], carrier)


def _reference_refines(u, v, carrier):
    return all(any(carrier.le(a, b) for b in v) for a in u)


def _least_failure(names, rel, top):
    """The message the checks give: the least intransitive triple, else the
    least element the top does not dominate."""
    rel = set(rel) | {(a, a) for a in names}
    triples = [(a, b, c) for (a, b) in rel for c in names
               if (b, c) in rel and (a, c) not in rel]
    if triples:
        return "relation is not transitive: {} <= {} <= {}".format(*min(triples))
    if top not in names:
        return f"unknown top element: {top}"
    return f"top does not dominate {min(a for a in names if (a, top) not in rel)}"


def _compare_with_reference(names, rel, top):
    """Whether the relation makes a preorder, after checking every order
    question against the reference."""
    try:
        ref = _ReferencePreorder(names, rel, top)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            Preorder(names, rel, top)
        assert str(got.value) == _least_failure(names, rel, top)
        assert str(got.value).split()[:3] == str(exc).split()[:3]
        return False
    p = Preorder(names, rel, top)
    assert p.le_pairs() == ref._le
    assert p.class_reps() == ref.class_reps()
    for a in names:
        assert p.rep(a) == ref.rep(a)
        for b in names:
            assert p.le(a, b) == ref.le(a, b)
            assert p.meet((a,), (b,)) == set(ref.meet2(a, b)), (a, b)
    covers = [f(c) for k in range(3) for c in combinations(sorted(names), k)]
    for u in covers:
        assert normalize(u, p) == _reference_normalize(u, ref), u
        for v in covers:
            assert meet_cover(u, v, p) == _reference_meet_cover(u, v, ref), (u, v)
            assert refines(u, v, p) == _reference_refines(u, v, ref), (u, v)
    return True


def test_preorder_matches_the_pair_set_reference_on_every_small_relation():
    valid = 0
    for n in range(1, 5):
        names = "abcd"[:n]
        off_diagonal = [(a, b) for a in names for b in names if a != b]
        for rel in subsets(off_diagonal):
            for top in names + "z":
                valid += _compare_with_reference(names, rel, top)
    # (preorder, element of its greatest class) pairs on 1-4 labelled names
    assert valid == 1 + 4 + 21 + 180


def test_preorder_matches_the_pair_set_reference_on_random_preorders():
    rng = random.Random(8)
    valid = 0
    for size in range(5, 9):
        names = "abcdefgh"[:size - 1] + "t"
        for _ in range(6):
            edges = {(x, "t") for x in names}
            edges |= {(x, y) for x in names for y in names if rng.random() < 0.2}
            rel = _brute_closure(names, edges) if rng.random() < 0.75 else edges
            valid += _compare_with_reference(names, rel, "t")
    # both sides: closed relations build, most unclosed ones raise
    assert 12 < valid < 24
    # multi-character names given out of sorted order, where "x10" < "x2"
    names = ["x10", "x2", "x1", "t"]
    valid = 0
    for edges in (set(), {("x2", "x10")}, {("x2", "x10"), ("x10", "x2")},
                  {("x1", "x2"), ("x2", "x10")}):
        edges |= {(x, "t") for x in names}
        for rel in (edges, _brute_closure(names, edges)):
            valid += _compare_with_reference(names, rel, "t")
    # only the unclosed x1 <= x2 <= x10 raises
    assert valid == 7


def test_the_cover_guard_fires_before_the_subsets_are_listed():
    """n points carry at least 2^n canonical covers, so on 18 points the
    default guard fires before any of the 262 144 subsets is built."""
    carrier = SubsetCarrier([f"p{i}" for i in range(18)])
    tracemalloc.start()
    try:
        with pytest.raises(LimitExceededError):
            all_canonical_covers(carrier)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_cover_guard_is_exact_on_subset_carriers(n):
    carrier = SubsetCarrier("pqr"[:n])
    count = len(all_canonical_covers(carrier))
    for max_count in range(count + 1):
        if count > max_count:
            with pytest.raises(LimitExceededError):
                all_canonical_covers(carrier, max_count=max_count)
        else:
            assert len(all_canonical_covers(carrier, max_count=max_count)) == count


def _reference_antichains(elements, le, max_count=5000):
    """The former ``antichains``: a recursive search that asks ``le`` of each
    candidate against the antichain built so far."""
    elems = list(elements)
    out = [f()]

    def extend(prefix, start):
        for i in range(start, len(elems)):
            e = elems[i]
            if any(le(e, p) or le(p, e) for p in prefix):
                continue
            chosen = prefix + [e]
            out.append(f(chosen))
            if len(out) > max_count:
                raise LimitExceededError(
                    f"more than {max_count} canonical covers; raise the guard to proceed")
            extend(chosen, i + 1)

    extend([], 0)
    return out


def _reference_canonical_covers(carrier, max_count=5000):
    """The former ``all_canonical_covers``: the recursive search over the
    nonempty class representatives, then a sort by ``cover_key``."""
    reps = sorted((e for e in carrier.class_reps() if e), key=carrier.key)
    return sorted(_reference_antichains(reps, carrier.le, max_count),
                  key=lambda u: cover_key(u, carrier))


def _small_posets():
    """(elements, le) pairs: nonempty subsets of 0-4 points by inclusion,
    chains, and the class representatives of seeded random preorders."""
    out = []
    for n in range(5):
        c = SubsetCarrier("pqrs"[:n])
        out.append((sorted((e for e in c.elements() if e), key=c.key), c.le))
    for n in range(1, 5):
        fr = chain_frame(n)
        out.append((list(fr.elements), fr.le))
    out += [(p.class_reps(), p.le) for p in _random_preorders()]
    return out


def _random_preorders():
    """Seeded random preorders on 2-8 elements, most with a class of two or
    more mutually below elements."""
    rng = random.Random(26)
    out = []
    for size in range(2, 9):
        names = "abcdefgh"[:size - 1] + "t"
        edges = {(x, "t") for x in names}
        edges |= {(x, y) for x in names for y in names if rng.random() < 0.1}
        out.append(Preorder.from_edges(names, edges, "t"))
    return out


def test_antichains_match_the_recursive_reference_in_order():
    """The mask pass lists antichains in lexicographic order of position,
    as the recursive search did, and its guard fires at the same count."""
    for elems, le in _small_posets():
        expected = _reference_antichains(elems, le)
        assert antichains(elems, le) == expected, elems
        for max_count in (0, 1, len(expected) // 2, len(expected) - 1, len(expected)):
            try:
                want = _reference_antichains(elems, le, max_count)
            except LimitExceededError as exc:
                with pytest.raises(LimitExceededError, match=f"^{exc}$"):
                    antichains(elems, le, max_count=max_count)
            else:
                assert antichains(elems, le, max_count=max_count) == want


def test_canonical_covers_come_in_cover_key_order_without_a_sort():
    """Over subjects in key order the antichains' lexicographic order is
    ``cover_key`` order, so the list equals the sorted reference."""
    for carrier in [SubsetCarrier("pqrs"[:n]) for n in range(5)] + _random_preorders():
        covers = all_canonical_covers(carrier)
        assert covers == _reference_canonical_covers(carrier), carrier
        assert covers == sorted(covers, key=lambda u: cover_key(u, carrier))
