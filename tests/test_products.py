"""Products, generated locales, coproducts, and the product theorems."""

from itertools import product as iproduct

import pytest

from locfine.carrier import (
    SubsetCarrier,
    all_canonical_covers,
    normalize,
    refines,
)
from locfine.covering import (
    CoveringMonoid,
    CoveringRelation,
    audit_axioms,
    fine_monoid,
    member,
    saturate,
)
from locfine.errors import LimitExceededError
from locfine.frames import (
    boolean_frame_2,
    chain_frame,
    frame_from_space,
    frame_iso,
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
    ProductCoverage,
    _locale_from_sats,
    canonical_cov,
    coproduct_frames,
    embed_phi_check,
    locale_from_cov,
    product_monoid,
    product_points,
    product_space,
    rect_basis_check,
    spatial_product_eq,
    star_variant_eq,
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
        assert rel.closed
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

    def test_three_discrete_factors_via_atoms(self):
        d = space_discrete("pq")
        assert rect_basis_check([d, d, d], max_covers=3000) == []


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
    locale = _locale_from_sats(carrier, coverage, sats)
    phi = EmbeddingPhi({
        b: locale.label_of(coverage.derivable_set(frozenset([b])))
        for b in carrier.class_reps()})
    return locale, phi


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
