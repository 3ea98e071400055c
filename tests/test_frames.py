"""Frames of finite spaces, points, spatiality, isomorphism."""

import random
from itertools import combinations, combinations_with_replacement, product

import pytest

import locfine.frames as frames_module
from locfine.carrier import _bits, reflexive_transitive_closure, subsets
from locfine.errors import InvalidTopologyError
from locfine.frames import (
    Frame,
    Point,
    SpaceDescription,
    boolean_frame_2,
    chain_frame,
    diamond_m3,
    frame_from_space,
    frame_iso,
    is_spatial,
    point_extent,
    points_of,
    space_chain3,
    space_discrete,
    space_one_point,
    space_sierpinski,
    space_six_opens,
    validate_frame,
)
from locfine.products import product_space

f = frozenset


class TestFrameFromSpace:
    def test_sierpinski_gives_three_chain(self):
        fr = frame_from_space(space_sierpinski())
        assert len(fr) == 3
        ok, _ = frame_iso(fr, chain_frame(3))
        assert ok

    def test_one_point_space_gives_two_frame(self):
        fr = frame_from_space(space_one_point())
        assert len(fr) == 2

    def test_discrete_two_points_gives_boolean_frame(self):
        fr = frame_from_space(space_discrete(["a", "b"]))
        assert len(fr) == 4
        ok, _ = frame_iso(fr, boolean_frame_2())
        assert ok

    def test_invalid_topology_rejected(self):
        bad = SpaceDescription(
            f({"a", "b"}),
            f({f(), f({"a"}), f({"b"}), f({"a", "b"})}) - {f({"a", "b"})} | {f({"a", "b"})})
        # remove closure under union instead: opens {(), {a}, {b}} misses {a,b}? keep full set but drop a union
        bad = SpaceDescription(f({"a", "b", "c"}),
                               f({f(), f({"a"}), f({"b"}), f({"a", "b", "c"})}))
        with pytest.raises(InvalidTopologyError):
            frame_from_space(bad)


    def test_opens_whose_labels_collide_are_rejected(self):
        # the one point "a,b" and the two points a, b both label as {a,b}
        s = SpaceDescription(f({"a", "b", "a,b"}),
                             f({f(), f({"a,b"}), f({"a", "b"}), f({"a", "b", "a,b"})}))
        s.validate()
        with pytest.raises(InvalidTopologyError, match=r"\['a,b'\] and \['a', 'b'\]"):
            frame_from_space(s)


def _base_spaces():
    return [space_one_point(), space_sierpinski(), space_chain3(), space_six_opens(),
            space_discrete("ab")]


class TestValidateFrame:
    def test_chain_is_valid(self):
        assert validate_frame(chain_frame(3)).ok

    def test_m3_fails_heyting(self):
        report = validate_frame(diamond_m3())
        assert not report.ok
        assert any("Heyting" in v for v in report.violations)

    def test_space_frames_are_valid(self):
        # frame_from_space does not validate: the opens of a topology are a
        # distributive lattice under inclusion, which this keeps checked
        spaces = _base_spaces() + all_t0_spaces_on(["0", "1", "2"])
        spaces += [product_space(pair) for pair in
                   combinations_with_replacement(_base_spaces(), 2)]
        for s in spaces:
            assert validate_frame(frame_from_space(s)).ok

    def test_accepts_exactly_distributive_lattices(self):
        # Oracle: brute-force distributivity scan over the same fixtures.
        n5_le = {("0", "a"), ("a", "1"), ("0", "b"), ("b", "c"), ("c", "1"),
                 ("0", "1"), ("0", "c"), ("b", "1")}
        n5 = Frame(["0", "a", "b", "c", "1"], n5_le)
        fixtures = [chain_frame(2), chain_frame(4), boolean_frame_2(),
                    diamond_m3(), n5, frame_from_space(space_six_opens())]
        for fr in fixtures:
            distributive = all(
                fr.meet(x, fr.join(y, z)) == fr.join(fr.meet(x, y), fr.meet(x, z))
                for x in fr.elements for y in fr.elements for z in fr.elements)
            assert validate_frame(fr).ok == distributive


class TestPoints:
    def test_two_frame_has_one_point(self):
        pts = points_of(chain_frame(2))
        assert len(pts) == 1
        assert pts[0].filter == f({"c1"})

    def test_three_chain_has_two_points(self):
        pts = points_of(chain_frame(3))
        assert len(pts) == 2
        assert {p.filter for p in pts} == {f({"c2"}), f({"c1", "c2"})}

    def test_boolean_frame_has_two_points(self):
        assert len(points_of(boolean_frame_2())) == 2

    def test_points_agree_with_filter_scan(self):
        # Oracle: every completely prime filter found by brute force.
        for fr in (chain_frame(4), boolean_frame_2(),
                   frame_from_space(space_six_opens())):
            found = {p.filter for p in points_of(fr)}
            brute = set()
            elems = list(fr.elements)
            for r in range(1, len(elems) + 1):
                for sub in combinations(elems, r):
                    filt = frozenset(sub)
                    if fr.bottom in filt or fr.top not in filt:
                        continue
                    if not all(y in filt for x in filt for y in fr.up_set(x)):
                        continue
                    if not all(fr.meet(x, y) in filt for x in filt for y in filt):
                        continue
                    # complete primeness over every subset join
                    prime = True
                    subsets = [[]]
                    for e in elems:
                        subsets += [s + [e] for s in subsets]
                    for s in subsets:
                        if fr.big_join(s) in filt and not any(x in filt for x in s):
                            prime = False
                            break
                    if prime:
                        brute.add(filt)
            assert found == brute


class TestExtents:
    def test_top_extent_is_everything(self):
        fr = chain_frame(3)
        assert point_extent(fr, fr.top) == f(points_of(fr))

    def test_bottom_extent_is_empty(self):
        fr = chain_frame(3)
        assert point_extent(fr, fr.bottom) == f()

    def test_middle_of_three_chain(self):
        fr = chain_frame(3)
        ext = point_extent(fr, "c1")
        assert {p.filter for p in ext} == {f({"c1", "c2"})}

    def test_unknown_element(self):
        with pytest.raises(KeyError):
            point_extent(chain_frame(2), "zzz")


class TestSpatial:
    def test_small_frames_spatial(self):
        for fr in (chain_frame(2), chain_frame(3), boolean_frame_2()):
            ok, witness = is_spatial(fr)
            assert ok and witness is None

    def test_space_frames_spatial(self):
        for s in (space_sierpinski(), space_chain3(), space_six_opens()):
            ok, _ = is_spatial(frame_from_space(s))
            assert ok

    def test_is_spatial_matches_pairwise_scan(self):
        for fr in (chain_frame(4), boolean_frame_2(), diamond_m3()):
            verdict, witness = is_spatial(fr)
            brute = True
            pts = points_of(fr)
            for x in fr.elements:
                for y in fr.elements:
                    if x < y:
                        ex = f(p for p in pts if x in p.filter)
                        ey = f(p for p in pts if y in p.filter)
                        if ex == ey:
                            brute = False
            assert verdict == brute
            if not verdict:
                x, y = witness
                ex = f(p for p in pts if x in p.filter)
                ey = f(p for p in pts if y in p.filter)
                assert x != y and ex == ey


class TestFrameIso:
    def test_identity(self):
        fr = chain_frame(3)
        ok, mapping = frame_iso(fr, fr)
        assert ok
        assert mapping == {x: x for x in fr.elements}

    def test_different_cardinality(self):
        ok, mapping = frame_iso(chain_frame(3), boolean_frame_2())
        assert not ok and mapping is None

    def test_chain_not_iso_to_boolean_of_same_size(self):
        ok, _ = frame_iso(chain_frame(4), boolean_frame_2())
        assert not ok

    def test_mapping_preserves_order_both_ways(self):
        fr = frame_from_space(space_six_opens())
        relabel = {x: f"e{i}" for i, x in enumerate(fr.elements)}
        g = Frame(relabel.values(),
                  {(relabel[a], relabel[b]) for (a, b) in fr.le_set})
        ok, mapping = frame_iso(fr, g)
        assert ok
        for a in fr.elements:
            for b in fr.elements:
                assert fr.le(a, b) == g.le(mapping[a], mapping[b])


def all_t0_spaces_on(points):
    """Every T0 topology on the given points, via up-sets of partial orders."""
    pts = sorted(points)
    n = len(pts)
    rels = []
    pairs = [(a, b) for a in pts for b in pts if a != b]
    for bits in range(2 ** len(pairs)):
        rel = {(a, a) for a in pts}
        for i, p in enumerate(pairs):
            if bits >> i & 1:
                rel.add(p)
        ok = all((a, c) in rel
                 for (a, b) in rel for (b2, c) in rel if b == b2)
        antisym = all(not ((a, b) in rel and (b, a) in rel) for (a, b) in pairs)
        if ok and antisym:
            rels.append(rel)
    out = []
    for rel in rels:
        opens = set()
        subsets = [[]]
        for p in pts:
            subsets += [s + [p] for s in subsets]
        for s in subsets:
            sset = frozenset(s)
            if all(b in sset for a in sset for (a2, b) in rel if a2 == a):
                opens.add(sset)
        out.append(SpaceDescription(frozenset(pts), frozenset(opens)))
    return out


def test_finite_t0_spaces_are_sober():
    """Points of T(X) biject with X and extents reproduce the opens."""
    for s in all_t0_spaces_on(["0", "1", "2"]):
        fr = frame_from_space(s)
        assert s.is_t0
        pts = points_of(fr)
        assert len(pts) == len(s.points)
        extents = {}
        for x in fr.elements:
            extents[x] = point_extent(fr, x)
        assert len(set(map(f, extents.values()))) == len(fr.elements)
        # Each point filter corresponds to a unique space point via min opens.
        filters = {p.filter for p in pts}
        expected = set()
        for p in sorted(s.points):
            mo = s.min_open(p)
            expected.add(f(x for x in fr.elements if p in fr.meaning(x)))
        assert filters == expected


class TestFrameConstruction:
    def test_unknown_name_in_relation_rejected(self):
        with pytest.raises(ValueError, match="relation mentions unknown element"):
            Frame(["0", "1"], {("0", "1"), ("1", "z")})

    def test_bounds_without_bottom_or_top(self):
        fr = Frame(["a", "b"], set())
        assert fr.bottom is None and fr.top is None
        assert fr.big_join(["a"]) == "a" and fr.big_meet(["b"]) == "b"
        assert fr.big_join(["a", "b"]) is None and fr.big_meet(["a", "b"]) is None
        assert fr.big_join([]) is None and fr.big_meet([]) is None

    def test_bounds_on_a_cycle(self):
        # a and b are both least upper bounds of {a}: neither is *the* join
        fr = Frame(["a", "b"], {("a", "b"), ("b", "a")})
        for xs in ([], ["a"], ["b"], ["a", "b"]):
            assert fr.big_join(xs) is None and fr.big_meet(xs) is None


# ---------------------------------------------------------------------------
# Differential tests: Frame's up-set lookups against the search they replaced
# ---------------------------------------------------------------------------

class _ReferenceFrame:
    """Join and meet tables filled by searching the common bounds of each
    pair; big joins and meets folded from the bottom and top."""

    def __init__(self, elements, le_pairs):
        self.elements = tuple(sorted(set(elements)))
        names = set(self.elements)
        rel = {(a, b) for (a, b) in le_pairs if a in names and b in names}
        for a in names:
            rel.add((a, a))
        self.le_set = frozenset(rel)
        self._down = {x: frozenset(y for y in self.elements if (y, x) in rel)
                      for x in self.elements}
        self._up = {x: frozenset(y for y in self.elements if (x, y) in rel)
                    for x in self.elements}
        self.bottom = self._unique_extremum(min_side=True)
        self.top = self._unique_extremum(min_side=False)
        self.join_table = {}
        self.meet_table = {}
        for a in self.elements:
            for b in self.elements:
                self.join_table[(a, b)] = self._bound(a, b, upper=True)
                self.meet_table[(a, b)] = self._bound(a, b, upper=False)

    def _unique_extremum(self, min_side):
        side = self._down if min_side else self._up
        cands = [x for x in self.elements if len(side[x]) == 1]
        full = [x for x in cands
                if all((x, y) in self.le_set if min_side else (y, x) in self.le_set
                       for y in self.elements)]
        return full[0] if len(full) == 1 else None

    def _bound(self, a, b, upper):
        if upper:
            common = self._up[a] & self._up[b]
            best = [x for x in common
                    if all((x, y) in self.le_set for y in common)]
        else:
            common = self._down[a] & self._down[b]
            best = [x for x in common
                    if all((y, x) in self.le_set for y in common)]
        return best[0] if len(best) == 1 else None

    def le(self, a, b):
        return (a, b) in self.le_set

    def join(self, a, b):
        return self.join_table[(a, b)]

    def meet(self, a, b):
        return self.meet_table[(a, b)]

    def big_join(self, xs):
        acc = self.bottom
        for x in xs:
            acc = self.join_table[(acc, x)]
            if acc is None:
                return None
        return acc

    def big_meet(self, xs):
        acc = self.top
        for x in xs:
            acc = self.meet_table[(acc, x)]
            if acc is None:
                return None
        return acc

    def is_lattice(self):
        return (self.bottom is not None and self.top is not None
                and None not in self.join_table.values()
                and None not in self.meet_table.values())


def _reference_subset_heyting(ref):
    """The Heyting law checked against every subset of the elements."""
    out = []
    for x in ref.elements:
        for sub in subsets(ref.elements):
            lhs = ref.meet(x, ref.big_join(sub))
            rhs = ref.big_join(ref.meet(x, y) for y in sub)
            if lhs != rhs:
                out.append(f"Heyting law fails on subset {list(sub)} at {x}")
    return out


def _reference_validate(ref, exhaustive_limit=10):
    """validate_frame as it was, with the subset pass on small frames."""
    out = []
    elems = ref.elements
    le_pairs = sorted(ref.le_set)
    for a, b in le_pairs:
        if (b, a) in ref.le_set and a != b:
            out.append(f"antisymmetry fails: {a} and {b} are mutually below each other")
    for a, b in le_pairs:
        for c in elems:
            if (b, c) in ref.le_set and (a, c) not in ref.le_set:
                out.append(f"transitivity fails: {a} <= {b} <= {c}")
    if ref.bottom is None:
        out.append("no bottom element")
    if ref.top is None:
        out.append("no top element")
    for a in elems:
        for b in elems:
            if ref.join_table[(a, b)] is None:
                out.append(f"join of {a} and {b} does not exist")
            if ref.meet_table[(a, b)] is None:
                out.append(f"meet of {a} and {b} does not exist")
    if out:
        return tuple(out)
    for x in elems:
        for y in elems:
            for z in elems:
                lhs = ref.meet(x, ref.join(y, z))
                rhs = ref.join(ref.meet(x, y), ref.meet(x, z))
                if lhs != rhs:
                    out.append(
                        f"Heyting law fails: {x} /\\ ({y} \\/ {z}) = {lhs} "
                        f"but ({x} /\\ {y}) \\/ ({x} /\\ {z}) = {rhs}")
    if not out and len(elems) <= exhaustive_limit:
        out += _reference_subset_heyting(ref)
    return tuple(out)


def _reference_points(ref):
    """Join-prime elements found by testing every pair's join."""
    out = []
    for q in ref.elements:
        if q == ref.bottom:
            continue
        prime = True
        for x in ref.elements:
            for y in ref.elements:
                if ref.le(q, ref.join(x, y)) and not (ref.le(q, x) or ref.le(q, y)):
                    prime = False
                    break
            if not prime:
                break
        if prime:
            out.append(Point(least=q, filter=ref._up[q]))
    return tuple(out)


def _reference_is_spatial(ref):
    pts = _reference_points(ref)
    seen = {}
    for x in ref.elements:
        ext = frozenset(p for p in pts if x in p.filter)
        if ext in seen:
            return False, (seen[ext], x)
        seen[ext] = x
    return True, None


def _compare_with_reference(fr, max_subset=None):
    """Assert that fr answers as the search-based frame does; return
    (is a lattice, passes validation) for corpus bookkeeping."""
    ref = _ReferenceFrame(fr.elements, fr.le_set)
    assert (fr.bottom, fr.top) == (ref.bottom, ref.top)
    for a, b in product(fr.elements, repeat=2):
        assert fr.join(a, b) == ref.join(a, b), (a, b)
        assert fr.meet(a, b) == ref.meet(a, b), (a, b)
    report = validate_frame(fr)
    # On up to 10 elements the reference adds the subset Heyting pass once
    # binary distributivity holds, so equal reports show that pass finds
    # nothing on any lattice validate_frame accepts.
    assert report.violations == _reference_validate(ref)
    if not ref.is_lattice():
        return False, report.ok
    for sub in subsets(fr.elements):
        if max_subset is not None and len(sub) > max_subset:
            break
        assert fr.big_join(sub) == ref.big_join(sub), sub
        assert fr.big_meet(sub) == ref.big_meet(sub), sub
    assert points_of(fr) == _reference_points(ref)
    assert is_spatial(fr) == _reference_is_spatial(ref)
    return True, report.ok


def _transitive_relations(n):
    """Every reflexive, transitive relation on n named elements."""
    names = "abcd"[:n]
    pairs = [(a, b) for a in names for b in names if a != b]
    for bits in range(2 ** len(pairs)):
        rel = {p for i, p in enumerate(pairs) if bits >> i & 1}
        rel |= {(a, a) for a in names}
        if all((a, c) in rel for (a, b) in rel for (b2, c) in rel if b == b2):
            yield Frame(names, rel)


def _n5():
    le = {("0", "a"), ("0", "b"), ("b", "c"), ("a", "1"), ("c", "1")}
    names = ["0", "a", "b", "c", "1"]
    return Frame(names, reflexive_transitive_closure(names, le))


def _random_posets(count, seed):
    """Random posets on 5-7 elements; about half get a bottom and a top."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(5, 7)
        names = rng.sample("abcdefg", n)
        density = rng.random()
        edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < density]
        if rng.random() < 0.5:
            edges += [(names[0], x) for x in names[1:]]
            edges += [(x, names[-1]) for x in names[:-1]]
        yield Frame(names, reflexive_transitive_closure(names, edges))


class TestMatchesSearchReference:
    def test_every_transitive_relation_up_to_four_elements(self):
        frames = [fr for n in range(1, 5) for fr in _transitive_relations(n)]
        assert len(frames) == 389
        verdicts = [_compare_with_reference(fr) for fr in frames]
        assert sum(lat for lat, _ in verdicts) == 45  # labelled lattices

    def test_random_posets_with_n5_and_m3(self):
        frames = [_n5(), diamond_m3()] + list(_random_posets(3000, seed=11))
        verdicts = [_compare_with_reference(fr) for fr in frames]
        lattices = [ok for lat, ok in verdicts if lat]
        # the corpus must exercise both sides of every verdict
        assert len(lattices) > 1000
        assert lattices.count(False) > 500 and lattices.count(True) > 500
        assert not verdicts[0][1] and not verdicts[1][1]

    @pytest.mark.parametrize("a,b", [
        ("point", "point"), ("point", "sierpinski"), ("sierpinski", "sierpinski"),
        ("sierpinski", "discrete2"), ("discrete2", "discrete2"),
        ("sierpinski", "chain3"), ("discrete2", "chain3"), ("chain3", "chain3"),
    ])
    def test_product_space_frames(self, a, b):
        spaces = {"point": space_one_point(), "sierpinski": space_sierpinski(),
                  "discrete2": space_discrete("pq"), "chain3": space_chain3()}
        fr = frame_from_space(product_space([spaces[a], spaces[b]]))
        # every subset up to 10 elements, subsets of at most 3 beyond
        limit = None if len(fr) <= 10 else 3
        assert _compare_with_reference(fr, max_subset=limit) == (True, True)


def _heyting_loop(fr):
    """validate_frame's loop over every triple, the test that the join-prime
    test replaces on distributive lattices."""
    out = []
    for x in fr.elements:
        for y in fr.elements:
            for z in fr.elements:
                lhs = fr.meet(x, fr.join(y, z))
                rhs = fr.join(fr.meet(x, y), fr.meet(x, z))
                if lhs != rhs:
                    out.append(
                        f"Heyting law fails: {x} /\\ ({y} \\/ {z}) = {lhs} "
                        f"but ({x} /\\ {y}) \\/ ({x} /\\ {z}) = {rhs}")
    return tuple(out)


def test_join_prime_test_agrees_with_the_triple_loop():
    """On every lattice of the corpora above, the join-irreducibles are all
    join-prime exactly when the loop finds nothing, and validate_frame
    reports the loop's lines byte for byte."""
    frames = [_n5(), diamond_m3()] + list(_random_posets(3000, seed=11))
    frames += [fr for n in range(1, 5) for fr in _transitive_relations(n)]
    verdicts = []
    for fr in frames:
        if not _ReferenceFrame(fr.elements, fr.le_set).is_lattice():
            continue
        loop = _heyting_loop(fr)
        assert frames_module._irreducibles_are_prime(fr) == (not loop)
        assert validate_frame(fr).violations == loop
        verdicts.append(not loop)
    assert verdicts.count(True) > 500 and verdicts.count(False) > 500
    assert not verdicts[0] and not verdicts[1]


# ---------------------------------------------------------------------------
# The bitmask Frame against the frozenset order and point test it replaced
# ---------------------------------------------------------------------------

def _reference_points_of(fr):
    """points_of as it was: every element tested by one join over all the
    elements not above it."""
    return tuple(
        Point(least=q, filter=fr.up_set(q)) for q in fr.elements
        if not fr.le(q, fr.big_join(x for x in fr.elements if not fr.le(q, x))))


def _reference_extents(fr):
    """point_extent of every element, as it was: a scan of every point."""
    pts = _reference_points_of(fr)
    return {x: f(p for p in pts if x in p.filter) for x in fr.elements}


def _reference_is_spatial_of(fr):
    seen = {}
    for x, ext in _reference_extents(fr).items():
        if ext in seen:
            return False, (seen[ext], x)
        seen[ext] = x
    return True, None


def _least_bound(ref, xs, upper):
    """The unique least common upper (greatest common lower) bound, by
    search, or None."""
    side = ref._up if upper else ref._down
    common = set(ref.elements).intersection(*(side[x] for x in xs))
    best = [x for x in common
            if all(ref.le(x, y) if upper else ref.le(y, x) for y in common)]
    return best[0] if len(best) == 1 else None


def _compare_order_with_reference(fr, ref, max_subset=3):
    """Assert that fr answers every order question as ref does: le (also on
    names that are not elements), le_set, up_set, down_set, bottom, top,
    binary joins and meets, and big joins and meets of up to max_subset
    elements."""
    assert fr.elements == ref.elements
    assert fr.le_set == ref.le_set
    assert (fr.bottom, fr.top) == (ref.bottom, ref.top)
    for a in fr.elements:
        assert fr.up_set(a) == ref._up[a] and fr.down_set(a) == ref._down[a], a
        assert not fr.le(a, "no such element") and not fr.le("no such element", a)
        assert not fr.le(a, None) and not fr.le(None, a)
    for a, b in product(fr.elements, repeat=2):
        assert fr.le(a, b) == ref.le(a, b), (a, b)
        assert fr.join(a, b) == ref.join(a, b), (a, b)
        assert fr.meet(a, b) == ref.meet(a, b), (a, b)
    for r in range(max_subset + 1):
        for sub in combinations(fr.elements, r):
            assert fr.big_join(sub) == _least_bound(ref, sub, upper=True), sub
            assert fr.big_meet(sub) == _least_bound(ref, sub, upper=False), sub


def _compare_points_with_reference(fr, ref_frame):
    """points_of, point_extent and is_spatial of fr against the old bodies
    run on ref_frame."""
    assert points_of(fr) == _reference_points_of(ref_frame)
    extents = _reference_extents(ref_frame)
    for x in fr.elements:
        assert point_extent(fr, x) == extents[x], x
    assert is_spatial(fr) == _reference_is_spatial_of(ref_frame)


def _random_relations(count, seed):
    """Reflexive-transitive closures of random edge sets on 3-7 elements:
    cycles make some of them preorders, and most are not lattices."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 7)
        names = rng.sample("abcdefg", n)
        density = rng.random() * 0.6
        edges = [(a, b) for a in names for b in names
                 if a != b and rng.random() < density]
        if rng.random() < 0.5:
            edges += [(names[0], x) for x in names[1:]]
            edges += [(x, names[-1]) for x in names[:-1]]
        yield names, reflexive_transitive_closure(names, edges)


def _names_by_bits(fr, mask):
    return f(fr._by_bit[i] for i in _bits(mask))


def _compare_names_with_bits(fr):
    """up_set, down_set, points_of and point_extent, whose names are read
    through the bit selector, against names built bit by bit."""
    primes = fr._join_primes()
    points = tuple(Point(least=q, filter=_names_by_bits(fr, fr._up[q]))
                   for q in fr.elements if primes & fr._bit[q])
    assert points_of(fr) == points
    by_least = {p.least: p for p in points}
    for x in fr.elements:
        assert fr.up_set(x) == _names_by_bits(fr, fr._up[x]), x
        assert fr.down_set(x) == _names_by_bits(fr, fr._down[x]), x
        assert point_extent(fr, x) == f(
            by_least[q] for q in _names_by_bits(fr, fr._down[x] & primes)), x
    return len(points)


def test_names_read_through_the_selector_match_the_bit_walk():
    frames = [_n5(), diamond_m3()] + list(_random_posets(3000, seed=11))
    assert sum(map(_compare_names_with_bits, frames)) > 3000


def test_mask_frame_matches_the_search_reference_on_random_relations():
    cases = [(["0", "1", "a", "b", "c"], diamond_m3().le_set),
             (_n5().elements, _n5().le_set)] + list(_random_relations(400, seed=5))
    kinds = set()
    for names, rel in cases:
        fr, ref = Frame(names, rel), _ReferenceFrame(names, rel)
        _compare_order_with_reference(fr, ref)
        _compare_points_with_reference(fr, fr)
        kinds.add((len(set(map(fr.up_set, fr.elements))) < len(fr), ref.is_lattice()))
    # preorders and posets, lattices and not
    assert kinds == {(False, False), (False, True), (True, False)}


def _order_lines(violations):
    return tuple(v for v in violations if v.startswith(("antisymmetry", "transitivity")))


def test_validate_frame_reports_the_order_laws_of_unclosed_relations():
    """Raw edge sets, not closed under transitivity, against the reference's
    antisymmetry and transitivity lines (its join and meet lines assume a
    transitive relation); last, a frame whose bit order x0, x1, ..., x10 is
    not name order."""
    rng = random.Random(12)
    cases = []
    for _ in range(400):
        names = rng.sample("abcdefg", rng.randint(3, 7))
        density = rng.random() * 0.6
        edges = {(a, b) for a in names for b in names if a != b and rng.random() < density}
        fr = Frame(names, edges)
        assert fr.le_set == edges | {(a, a) for a in names}
        cases.append(fr)
    order = tuple(f"x{i}" for i in range(11))
    rel = {(order[i], order[i + 1]) for i in range(10)} | {("x2", "x1"), ("x10", "x0")}
    rel |= {(x, x) for x in order}
    up = {a: sum(1 << j for j, b in enumerate(order) if (a, b) in rel) for a in order}
    down = {b: sum(1 << i for i, a in enumerate(order) if (a, b) in rel) for b in order}
    masked = Frame._from_masks(order, up, down)
    assert masked.le_set == rel
    cases.append(masked)
    kinds = {"antisymmetry": 0, "transitivity": 0}
    for fr in cases:
        got = _order_lines(validate_frame(fr).violations)
        assert got == _order_lines(_reference_validate(_ReferenceFrame(fr.elements, fr.le_set)))
        for kind in {line.split()[0] for line in got}:
            kinds[kind] += 1
    assert "transitivity fails: x0 <= x1 <= x2" in got
    assert "antisymmetry fails: x1 and x2 are mutually below each other" in got
    assert kinds["antisymmetry"] > 100 and kinds["transitivity"] > 200, kinds


def test_point_extent_rejects_unknown_names():
    fr = diamond_m3()
    for x in ("zzz", None, ""):
        with pytest.raises(KeyError):
            point_extent(fr, x)
