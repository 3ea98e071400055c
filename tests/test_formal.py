"""Formal entailment: rules of inference, proof trees, covers of the unit."""

import os
import time

import pytest
from test_acceptance import _commutative_monoids_up_to
from test_carrier import _doubling_subsets

from locfine.carrier import normalize
from locfine.cli import parse_structure
from locfine.covering import CoveringMonoid, is_locally_fine, member, saturate
from locfine.errors import LimitExceededError
from locfine.formal import (
    Derivation,
    FormalPresentation,
    Judgment,
    covers_of_unit,
    derivable_judgments,
    derivation,
    divisibility_preorder,
    entails,
    to_covering_relation,
)

f = frozenset
FORMAL_MEET = os.path.join(os.path.dirname(__file__), "fixtures", "formal_meet.cov")


def _reference_saturate(p: FormalPresentation):
    """The naive saturation over every raw judgment: every round re-runs
    every rule over the whole derived set."""
    derived = {}

    def jkey(j):
        return (j.subject, tuple(sorted(j.cover)))

    def propose(batch, j, rule, premises):
        if j not in derived and j not in batch:
            batch[j] = (rule, premises)

    covers = p.all_covers()
    batch = {}
    for j in p.axioms:
        propose(batch, j, "axiom", ())
    for u in covers:
        for a in sorted(u):
            propose(batch, Judgment(a, u), "member", ())
    for a in p.elements:
        for b in p.elements:
            propose(batch, Judgment(p.product(a, b), frozenset({a})), "divide", ())
    while batch:
        for j in sorted(batch, key=jkey):
            derived[j] = batch[j]
        batch = {}
        by_subject = {}
        for j in derived:
            by_subject.setdefault(j.subject, []).append(j)
        for a, js in sorted(by_subject.items()):
            js = sorted(js, key=jkey)
            for j1 in js:
                for j2 in js:
                    prod = p.cover_product(j1.cover, j2.cover)
                    propose(batch, Judgment(a, prod), "product", (j1, j2))
        for j in sorted(derived, key=jkey):
            for v in covers:
                sub = []
                ok = True
                for u in sorted(j.cover):
                    ju = Judgment(u, v)
                    if ju not in derived:
                        ok = False
                        break
                    sub.append(ju)
                if ok:
                    propose(batch, Judgment(j.subject, v), "compose",
                            (j,) + tuple(sub))
    return derived


def _presentations(n_max, with_axiom):
    """Every commutative monoid on <= n_max elements, either bare or with
    each single axiom a |= U (empty U included)."""
    for elems, unit, table in _commutative_monoids_up_to(n_max):
        base = FormalPresentation(elems, unit, table)
        if not with_axiom:
            yield base
            continue
        for a in elems:
            for u in base.all_covers():
                yield FormalPresentation(elems, unit, table, (Judgment(a, u),))



def _monoid(n, product, axioms=()):
    """The commutative monoid on e00 .. e{n-1} whose product of ei and ej is
    e{product(i, j)}, with unit e00."""
    names = [f"e{i:02d}" for i in range(n)]
    mul = {(names[a], names[b]): names[product(a, b)] for a in range(n) for b in range(n)}
    return FormalPresentation(tuple(names), names[0], mul, axioms)


@pytest.fixture
def meet_semilattice():
    """Subsets of {b, c} under intersection, coded as a monoid table.

    1 = {b,c} (the unit), b = {b}, c = {c}, 0 = {}.
    """
    elems = ("0", "1", "b", "c")
    mul = {
        ("b", "b"): "b", ("c", "c"): "c", ("b", "c"): "0",
        ("0", "0"): "0", ("0", "b"): "0", ("0", "c"): "0",
    }
    return elems, mul


@pytest.fixture
def rule4_fixture(meet_semilattice):
    elems, mul = meet_semilattice
    axioms = (Judgment("1", f({"b", "c"})),
              Judgment("b", f({"0"})),
              Judgment("c", f({"0"})))
    return FormalPresentation(elems, "1", mul, axioms)


class TestPresentation:
    def test_rejects_non_associative_table(self):
        # (a*a)*b = b*b = a but a*(a*b) = a*b = b
        mul = {("a", "a"): "b", ("a", "b"): "b", ("b", "b"): "a"}
        with pytest.raises(ValueError):
            FormalPresentation(("1", "a", "b"), "1", mul)

    def test_rejects_axioms_outside_base(self, meet_semilattice):
        elems, mul = meet_semilattice
        with pytest.raises(ValueError):
            FormalPresentation(elems, "1", mul, (Judgment("z", f({"b"})),))

    def test_all_covers_by_size_then_lexicographic(self, rule4_fixture):
        assert rule4_fixture.all_covers() == _doubling_subsets(rule4_fixture.elements)

    def test_unit_products_filled_in(self, meet_semilattice):
        elems, mul = meet_semilattice
        p = FormalPresentation(elems, "1", mul)
        assert p.product("1", "b") == "b"
        assert p.product("b", "1") == "b"


class TestEntails:
    def test_membership_rule(self, rule4_fixture):
        assert entails(rule4_fixture, Judgment("b", f({"b"})))
        assert entails(rule4_fixture, Judgment("b", f({"b", "c"})))

    def test_rule4_two_step(self, rule4_fixture):
        assert entails(rule4_fixture, Judgment("1", f({"0"})))

    def test_empty_cover_not_derivable_without_axioms(self, meet_semilattice):
        elems, mul = meet_semilattice
        p = FormalPresentation(elems, "1", mul)
        for a in elems:
            assert not entails(p, Judgment(a, f()))

    def test_divisibility_rule(self, rule4_fixture):
        # 0 = b*c, so 0 |= {b} and 0 |= {c}
        assert entails(rule4_fixture, Judgment("0", f({"b"})))
        assert entails(rule4_fixture, Judgment("0", f({"c"})))

    def test_product_rule(self, rule4_fixture):
        # b |= {b} and b |= {0} give b |= {b}*{0} = {0}; sanity check products
        assert entails(rule4_fixture, Judgment("b", f({"0"})))
        p = rule4_fixture
        assert p.cover_product(f({"b"}), f({"c"})) == f({"0"})

    def test_unknown_elements_rejected(self, rule4_fixture):
        with pytest.raises(ValueError):
            entails(rule4_fixture, Judgment("q", f({"b"})))

    def test_null_monoid_of_15_exceeds_the_guard(self):
        """Its 13 middle elements are pairwise incomparable, so divisibility
        has 2**13 + 2 normalized covers, past the default guard."""
        p = _monoid(15, lambda a, b: b if a == 0 else a if b == 0 else 14)
        with pytest.raises(LimitExceededError):
            entails(p, Judgment("e01", f({"e14"})))

    def test_empty_covers_agree_with_relational_engine(self):
        checked = 0
        for bare in (True, False):
            for p in _presentations(3, with_axiom=not bare):
                closed, _ = saturate(to_covering_relation(p))
                for a in p.elements:
                    assert closed.holds(a, f()) == entails(p, Judgment(a, f())), \
                        (p.elements, p.mul, p.axioms, a)
                    checked += 1
        assert checked == 414


class TestDerivation:
    def test_rule1_single_leaf(self, rule4_fixture):
        d = derivation(rule4_fixture, Judgment("b", f({"b"})))
        assert d.rule in ("member", "divide", "axiom")
        assert d.premises == ()
        assert d.height() == 1

    def test_rule4_fixture_height_two(self, rule4_fixture):
        d = derivation(rule4_fixture, Judgment("1", f({"0"})))
        assert d is not None
        assert d.height() == 2
        assert d.rule == "compose"
        assert d.premises[0].conclusion == Judgment("1", f({"b", "c"}))

    def test_absent_for_non_derivable(self, meet_semilattice):
        elems, mul = meet_semilattice
        p = FormalPresentation(elems, "1", mul)
        assert derivation(p, Judgment("1", f({"0"}))) is None
        assert not entails(p, Judgment("1", f({"0"})))

    def test_unknown_elements_rejected(self, rule4_fixture):
        with pytest.raises(ValueError, match="unknown elements"):
            derivation(rule4_fixture, Judgment("q", f({"b"})))
        with pytest.raises(ValueError, match="unknown elements"):
            derivation(rule4_fixture, Judgment("b", f({"z"})))

    def test_premises_are_derivations_of_their_conclusions(self, rule4_fixture):
        d = derivation(rule4_fixture, Judgment("1", f({"0"})))

        def check(node):
            assert isinstance(node, Derivation)
            if node.rule in ("axiom", "member", "divide"):
                assert node.premises == ()
            for q in node.premises:
                check(q)

        check(d)


class TestCoversOfUnit:
    def test_axiom_cover_is_member(self, rule4_fixture):
        m = covers_of_unit(rule4_fixture)
        assert f({"b", "c"}) in set(m.basis) or \
            member(m, normalize(f({"b", "c"}), m.carrier), use_lambda=False)

    def test_rule4_cover_is_member(self, rule4_fixture):
        m = covers_of_unit(rule4_fixture)
        assert member(m, f({"0"}), use_lambda=False)

    def test_no_axioms_gives_unit_covers_only(self, meet_semilattice):
        elems, mul = meet_semilattice
        p = FormalPresentation(elems, "1", mul)
        m = covers_of_unit(p)
        pre = m.carrier
        for u in m.basis:
            # only rule-forced covers: some member lies above the unit
            assert any(pre.le("1", x) for x in u)

    def test_always_locally_fine(self, rule4_fixture, meet_semilattice):
        elems, mul = meet_semilattice
        for p in (rule4_fixture, FormalPresentation(elems, "1", mul)):
            assert is_locally_fine(covers_of_unit(p))

    def test_membership_matches_entailment(self, rule4_fixture):
        p = rule4_fixture
        m = covers_of_unit(p)
        pre = m.carrier
        for u in p.all_covers():
            if not u:
                continue
            want = entails(p, Judgment("1", u))
            assert member(m, u, use_lambda=False) == want
            assert member(m, u, use_lambda=True) == want


class TestCrossEngine:
    def test_relational_saturation_agrees(self, rule4_fixture):
        p = rule4_fixture
        closed, _ = saturate(to_covering_relation(p))
        for a in p.elements:
            for u in p.all_covers():
                want = entails(p, Judgment(a, u))
                if not u:
                    # the relational engine canonicalizes covers; empty covers
                    # are derivable there only for bottom-like subjects
                    continue
                assert closed.holds(a, u) == want, (a, sorted(u))

    def test_rule_closure_audited(self, rule4_fixture):
        """The derivable set is closed under all four rules."""
        p = rule4_fixture
        derived = set(derivable_judgments(p))
        covers = p.all_covers()
        for u in covers:
            for a in u:
                assert Judgment(a, u) in derived
        for a in p.elements:
            for b in p.elements:
                assert Judgment(p.product(a, b), f({a})) in derived
        for j1 in derived:
            for j2 in derived:
                if j1.subject == j2.subject:
                    assert Judgment(j1.subject,
                                    p.cover_product(j1.cover, j2.cover)) in derived
        for j in derived:
            for v in covers:
                if all(Judgment(u, v) in derived for u in j.cover):
                    assert Judgment(j.subject, v) in derived


@pytest.mark.parametrize("n", [12, 16])
def test_max_semilattice_answers_with_a_checked_proof(n):
    """Divisibility on a max semilattice is a chain: n + 1 normalized covers
    stand for 2**n subsets.  The axioms cover the unit by the bottom, so
    only empty covers stay underivable."""
    axioms = (Judgment("e00", f({"e03", "e05"})), Judgment("e03", f({f"e{n - 1}"})))
    p = _monoid(n, max, axioms)
    j = Judgment("e00", f({"e05", f"e{n - 1}"}))
    start = time.perf_counter()
    assert entails(p, j)
    _assert_proof(p, derivation(p, j), j)
    assert not entails(p, Judgment("e00", f()))
    assert time.perf_counter() - start < 1


def test_divisibility_preorder_has_unit_top(rule4_fixture):
    pre = divisibility_preorder(rule4_fixture)
    assert pre.top == "1"
    assert pre.le("0", "b") and pre.le("0", "c") and pre.le("b", "1")
    assert not pre.le("b", "c")


def _assert_proof(p, proof, goal):
    """The proof concludes the goal, and every step applies one of the five
    formal rules: axiom, member, divide, product or compose."""
    assert proof.conclusion == goal
    seen, stack = set(), [proof]
    while stack:
        d = stack.pop()
        if id(d) in seen:
            continue
        seen.add(id(d))
        j, got = d.conclusion, tuple(q.conclusion for q in d.premises)
        if d.rule == "axiom":
            ok = not got and j in p.axioms
        elif d.rule == "member":
            ok = not got and j.subject in j.cover
        elif d.rule == "divide":
            ok = (not got and len(j.cover) == 1
                  and any(p.product(a, b) == j.subject for a in j.cover for b in p.elements))
        elif d.rule == "product":
            ok = (len(got) == 2 and all(q.subject == j.subject for q in got)
                  and p.cover_product(got[0].cover, got[1].cover) == j.cover)
        elif d.rule == "compose":
            ok = (bool(got) and got[0].subject == j.subject
                  and set(got[1:]) == {Judgment(u, j.cover) for u in got[0].cover})
        else:
            ok = False
        assert ok, f"invalid {d.rule} step concluding {j}"
        stack.extend(d.premises)


class TestKernelMatchesReference:
    """The closure over normalized covers of divisibility answers the naive
    saturation: every verdict, ``derivable_judgments`` and ``covers_of_unit``
    agree with it, and every proof uses only the five formal rules."""

    @staticmethod
    def _assert_same(p):
        want = _reference_saturate(p)
        where = (p.elements, p.mul, p.axioms)
        for a in p.elements:
            for u in p.all_covers():
                j = Judgment(a, u)
                assert entails(p, j) == (j in want), (where, j)
                if j in want:
                    _assert_proof(p, derivation(p, j), j)
        assert derivable_judgments(p) == tuple(
            sorted(want, key=lambda j: (j.subject, tuple(sorted(j.cover))))), where
        unit_covers = tuple(j.cover for j in want if j.subject == p.unit and j.cover)
        assert covers_of_unit(p) == CoveringMonoid(divisibility_preorder(p), unit_covers), where

    def test_bare_monoids_up_to_4(self):
        for p in _presentations(4, with_axiom=False):
            self._assert_same(p)

    def test_one_axiom_monoids_up_to_3(self):
        for p in _presentations(3, with_axiom=True):
            self._assert_same(p)

    def test_unit_axiom_monoids_of_4(self):
        """Axioms on the unit of a 4-element monoid are the smallest inputs
        whose new judgments need an old compose or product premise.  A
        cover holding the unit is a member instance, so it is skipped."""
        for elems, unit, table in _commutative_monoids_up_to(4):
            if len(elems) < 4:
                continue
            base = FormalPresentation(elems, unit, table)
            for u in base.all_covers():
                if unit not in u:
                    self._assert_same(FormalPresentation(
                        elems, unit, table, (Judgment(unit, u),)))

    def test_fixtures(self, rule4_fixture):
        with open(FORMAL_MEET, encoding="utf-8") as fh:
            kind, meet = parse_structure(fh.read())
        assert kind == "formal"
        for p in (meet, rule4_fixture):
            self._assert_same(p)
