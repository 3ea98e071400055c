"""Entailment over a commutative monoid base, with derivation trees.

A presentation is a finite commutative monoid together with axiom judgments
``a |= U``.  Entailment is the least relation containing the axioms and
closed under four rules: membership (a in U), divisibility (a*b |= {a}),
products (a |= U and a |= V give a |= U*V), and transitivity (a |= U and
u |= V for every u in U give a |= V).  Transitivity is the relational face
of the locally fine closure, so the covers of the unit always form a
locally fine monoid over the divisibility preorder.  Over that preorder
a |= U holds exactly when rep(a) |= normalize(U) does, so entailment is the
C1-C4 closure ``covering._close`` of the axioms with the normalized cover
product as C3; proof trees join each such step to the raw judgments with
divide, member and compose steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .carrier import DEFAULT_MAX_COVERS, Preorder, _bits, normalize, subsets
from .covering import CoveringMonoid, CoveringRelation, _close, _CoverSpace


@dataclass(frozen=True)
class Judgment:
    subject: str
    cover: frozenset

    def __repr__(self):
        return f"{self.subject} |= {{{','.join(sorted(self.cover))}}}"


@dataclass(frozen=True)
class FormalPresentation:
    """A commutative monoid base (elements, product table, unit) plus axioms."""

    elements: tuple
    unit: str
    mul: dict
    axioms: tuple = ()

    def __post_init__(self):
        elems = tuple(sorted(set(self.elements)))
        object.__setattr__(self, "elements", elems)
        names = set(elems)
        if self.unit not in names:
            raise ValueError(f"unknown unit: {self.unit!r}")
        table = dict(self.mul)
        for a in elems:
            table[(a, self.unit)] = a
            table[(self.unit, a)] = a
        for a in elems:
            for b in elems:
                if (a, b) not in table and (b, a) in table:
                    table[(a, b)] = table[(b, a)]
        for a in elems:
            for b in elems:
                if (a, b) not in table:
                    raise ValueError(f"product {a}*{b} is undefined")
                if table[(a, b)] not in names:
                    raise ValueError(f"product {a}*{b} leaves the base")
                if table[(a, b)] != table[(b, a)]:
                    raise ValueError(f"product is not commutative at {a},{b}")
        for a in elems:
            for b in elems:
                for c in elems:
                    if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                        raise ValueError(f"product is not associative at {a},{b},{c}")
        object.__setattr__(self, "mul", table)
        ax = []
        for j in self.axioms:
            if j.subject not in names or not set(j.cover) <= names:
                raise ValueError(f"axiom mentions unknown elements: {j}")
            ax.append(Judgment(j.subject, frozenset(j.cover)))
        object.__setattr__(self, "axioms", tuple(ax))
        object.__setattr__(self, "_divisibility", divisibility_preorder(self))

    def product(self, a, b):
        return self.mul[(a, b)]

    def cover_product(self, u, v):
        return frozenset(self.product(a, b) for a in u for b in v)

    def all_covers(self):
        return [frozenset(s) for s in subsets(self.elements)]


@dataclass(frozen=True)
class Derivation:
    """A proof tree: leaves are axioms or rule-1/2 instances."""

    conclusion: Judgment
    rule: str
    premises: tuple = ()

    def height(self) -> int:
        if not self.premises:
            return 1
        return 1 + max(p.height() for p in self.premises)


_RULES = {"C1": "member", "C2": "divide", "C3": "product", "C4": "compose"}


def _saturate_judgments(p: FormalPresentation, max_covers: int = DEFAULT_MAX_COVERS):
    """Every derivable judgment with a class-representative subject and a
    normalized cover, mapped to the rule and premises that first derive it
    (an axiom's premise is the first raw axiom of that form).  Raises
    ``LimitExceededError`` past ``max_covers`` normalized covers.
    """
    pre = p._divisibility
    space = _CoverSpace(pre, max_covers)
    covers, subjects = space.covers, space.subjects

    @cache
    def product(i, j):
        return space.cid[normalize(p.cover_product(covers[i], covers[j]), pre)]

    derived = {}
    for j in p.axioms:
        derived.setdefault(_canonical(pre, j), ("axiom", (j,)))
    rel = CoveringRelation(pre, frozenset((j.subject, j.cover) for j in p.axioms))
    for found in _close(space, rel, product)[1]:
        for rule, c, fresh, premises in found:
            for s in _bits(fresh):
                steps = [(s, q) for q in premises]
                if rule == "C4":
                    steps += [(t, c) for t in space.member_sids[premises[0]]]
                derived[Judgment(subjects[s], covers[c])] = _RULES[rule], tuple(
                    Judgment(subjects[t], covers[q]) for t, q in steps)
    return derived


def _derived(p: FormalPresentation, max_covers: int):
    """``_saturate_judgments(p)`` at the default guard, the call its counting wrappers take."""
    return _saturate_judgments(p, *([max_covers] if max_covers != DEFAULT_MAX_COVERS else []))


def _canonical(pre: Preorder, j: Judgment) -> Judgment:
    return Judgment(pre.rep(j.subject), normalize(j.cover, pre))


def _checked(p: FormalPresentation, j: Judgment) -> Judgment:
    """The judgment with a frozen cover, once its names are in the base."""
    names = set(p.elements)
    if j.subject not in names or not set(j.cover) <= names:
        raise ValueError(f"judgment mentions unknown elements: {j}")
    return Judgment(j.subject, frozenset(j.cover))


def entails(p: FormalPresentation, j: Judgment, max_covers: int = DEFAULT_MAX_COVERS) -> bool:
    """Whether the judgment is derivable from the axioms by the four rules."""
    return _canonical(p._divisibility, _checked(p, j)) in _derived(p, max_covers)


def derivation(p: FormalPresentation, j: Judgment, max_covers: int = DEFAULT_MAX_COVERS):
    """A proof tree for the judgment, or None when it is not derivable."""
    j = _checked(p, j)
    pre = p._divisibility
    derived = _derived(p, max_covers)
    if _canonical(pre, j) not in derived:
        return None

    def leaf(subject, cover, rule):
        return Derivation(Judgment(subject, frozenset(cover)), rule)

    def into(x, v):         # x below a member of v
        if x in v:
            return leaf(x, v, "member")
        y = min(y for y in v if pre.le(x, y))
        return Derivation(Judgment(x, v), "compose",
                          (leaf(x, {y}, "divide"), leaf(y, v, "member")))

    def join(d, goal):      # d's x |= U gives a |= V for a <= x, U refining V
        x, u = d.conclusion.subject, d.conclusion.cover
        if u != goal.cover:
            d = Derivation(Judgment(x, goal.cover), "compose",
                           (d, *(into(y, goal.cover) for y in sorted(u))))
        if x != goal.subject:
            d = Derivation(goal, "compose", (leaf(goal.subject, {x}, "divide"), d))
        return d

    @cache
    def build(goal):
        rule, premises = derived[goal]
        if rule == "axiom":
            return join(Derivation(premises[0], "axiom"), goal)
        kids = tuple(map(build, premises))
        if rule == "product":
            raw = p.cover_product(premises[0].cover, premises[1].cover)
            return join(Derivation(Judgment(goal.subject, raw), "product", kids), goal)
        return Derivation(goal, rule, kids)

    return join(build(_canonical(pre, j)), j)


def divisibility_preorder(p: FormalPresentation) -> Preorder:
    """x <= a when x is a multiple of a; the unit is the top.  The relation
    needs no closure: a = a*1, and a multiple of a multiple of a is one."""
    pairs = {(p.product(a, b), a) for a in p.elements for b in p.elements}
    return Preorder(p.elements, pairs, p.unit)


def covers_of_unit(p: FormalPresentation) -> CoveringMonoid:
    """The monoid of derivable covers of the unit, over divisibility."""
    pre = p._divisibility
    unit = pre.rep(p.unit)
    basis = [j.cover for j in _saturate_judgments(p) if j.subject == unit and j.cover]
    return CoveringMonoid(pre, tuple(basis))


def to_covering_relation(p: FormalPresentation) -> CoveringRelation:
    """The presentation as an unclosed relation over divisibility.

    Besides the axioms, the translation carries one product-descent pair
    (m, {a*b}) per meet bound m of each element pair: on a non-idempotent
    base the product a*b sits strictly below the order-theoretic meet, and
    these pairs are exactly what lets C3 plus transitivity recover the
    product rule.
    """
    pre = p._divisibility
    pairs = {(j.subject, j.cover) for j in p.axioms}
    for a in p.elements:
        for b in p.elements:
            prod = p.product(a, b)
            for m in pre.meet((a,), (b,)):
                if not pre.le(m, prod):
                    pairs.add((m, frozenset({prod})))
    return CoveringRelation(pre, frozenset(pairs))


def derivable_judgments(p: FormalPresentation):
    """All derivable judgments, sorted."""
    pre = p._divisibility
    derived = _saturate_judgments(p)
    normal = [(u, normalize(u, pre)) for u in sorted(p.all_covers(), key=sorted)]
    return tuple(Judgment(a, u) for a in p.elements for u, w in normal
                 if Judgment(pre.rep(a), w) in derived)
