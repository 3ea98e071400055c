"""Entailment over a commutative monoid base, with derivation trees.

A presentation is a finite commutative monoid together with axiom judgments
``a |= U``.  Entailment is the least relation containing the axioms and
closed under four rules: membership (a in U), divisibility (a*b |= {a}),
products (a |= U and a |= V give a |= U*V), and transitivity (a |= U and
u |= V for every u in U give a |= V).  Transitivity is the relational face
of the locally fine closure, so the covers of the unit always form a
locally fine monoid over the divisibility preorder.  Saturation runs on the
semi-naive round kernel of the C1-C4 closure, ``covering._rounds``: the
product rule plays the part of C3 and transitivity that of C4, and every
judgment keeps the rule and premises that first derive it in naive order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .carrier import Preorder, _bits, cover_key, subsets
from .covering import CoveringMonoid, CoveringRelation, _rounds


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


def _saturate_judgments(p: FormalPresentation):
    """All derivable judgments with the rule and premises that first derive
    each one, in deterministic round order.

    An element is its index in ``p.elements`` and a cover is a bitmask of
    indices, so a cover's members are its own bits.  ``covering._rounds``
    derives the judgments: the axiom, member and divide instances seed round
    one, the cover product combines two covers of a subject, and compose is
    transitivity; covers are visited in sorted-member order.  Each round's
    judgments are inserted by subject, then cover, and their premises are
    rebuilt from the stored covers.
    """
    names = p.elements
    n = len(names)
    full = 1 << n
    index = {x: i for i, x in enumerate(names)}
    members = [tuple(i for i in range(n) if m >> i & 1) for m in range(full)]
    order = sorted(range(full), key=members.__getitem__)
    mul = [[index[p.product(x, y)] for y in names] for x in names]
    rows = [None] * full        # rows[c][m]: the cover c * m, built on demand
    rows[0] = [0] * full
    for i in range(n):
        row = rows[1 << i] = [0] * full
        for m in range(1, full):
            low = m & -m
            row[m] = row[m ^ low] | 1 << mul[i][low.bit_length() - 1]

    def product(c, m):
        row = rows[c]
        if row is None:
            low = c & -c
            product(c ^ low, 0)         # builds rows[c ^ low]
            row = rows[c] = [x | y for x, y in zip(rows[c ^ low], rows[low])]
        return row[m]

    seeds = [("axiom", sum(1 << index[x] for x in j.cover), 1 << index[j.subject])
             for j in p.axioms]
    seeds += [("member", m, m) for m in range(full)]
    seeds += [("divide", 1 << a, sum(1 << x for x in set(mul[a]))) for a in range(n)]
    derived = {}
    for found in _rounds([0] * full, seeds, product, range(full), order,
                         ("product", "compose")):
        batch = {(a, members[c]): (c, rule, covers)
                 for rule, c, fresh, covers in found for a in _bits(fresh)}
        for (a, _), (c, rule, covers) in sorted(batch.items()):
            premises = tuple((a, q) for q in covers)
            if rule == "compose":
                premises += tuple((u, c) for u in members[covers[0]])
            derived[a, c] = rule, premises

    cover_sets = [frozenset(names[i] for i in members[m]) for m in range(full)]
    judgments = {k: Judgment(names[k[0]], cover_sets[k[1]]) for k in derived}
    return {judgments[k]: (rule, tuple(judgments[q] for q in premises))
            for k, (rule, premises) in derived.items()}


def _checked(p: FormalPresentation, j: Judgment) -> Judgment:
    """The judgment with a frozen cover, once its names are in the base."""
    names = set(p.elements)
    if j.subject not in names or not set(j.cover) <= names:
        raise ValueError(f"judgment mentions unknown elements: {j}")
    return Judgment(j.subject, frozenset(j.cover))


def entails(p: FormalPresentation, j: Judgment) -> bool:
    """Whether the judgment is derivable from the axioms by the four rules."""
    return _checked(p, j) in _saturate_judgments(p)


def derivation(p: FormalPresentation, j: Judgment):
    """A proof tree for the judgment, or None when it is not derivable."""
    j = _checked(p, j)
    derived = _saturate_judgments(p)
    if j not in derived:
        return None

    def build(goal):
        rule, premises = derived[goal]
        return Derivation(goal, rule, tuple(build(q) for q in premises))

    return build(j)


def divisibility_preorder(p: FormalPresentation) -> Preorder:
    """x <= a when x is a multiple of a; the unit is the top."""
    edges = set()
    for a in p.elements:
        for b in p.elements:
            edges.add((p.product(a, b), a))
    return Preorder.from_edges(p.elements, edges, p.unit)


def covers_of_unit(p: FormalPresentation) -> CoveringMonoid:
    """The monoid of derivable covers of the unit, over divisibility."""
    derived = _saturate_judgments(p)
    pre = divisibility_preorder(p)
    basis = [j.cover for j in derived if j.subject == p.unit and j.cover]
    basis.sort(key=lambda u: cover_key(frozenset(pre.rep(x) for x in u), pre))
    return CoveringMonoid(pre, tuple(frozenset(u) for u in basis))


def to_covering_relation(p: FormalPresentation) -> CoveringRelation:
    """The presentation as an unclosed relation over divisibility.

    Besides the axioms, the translation carries one product-descent pair
    (m, {a*b}) per meet bound m of each element pair: on a non-idempotent
    base the product a*b sits strictly below the order-theoretic meet, and
    these pairs are exactly what lets C3 plus transitivity recover the
    product rule.
    """
    pre = divisibility_preorder(p)
    pairs = {(j.subject, j.cover) for j in p.axioms}
    for a in p.elements:
        for b in p.elements:
            prod = p.product(a, b)
            for m in pre.meet2(a, b):
                if not pre.le(m, prod):
                    pairs.add((m, frozenset({prod})))
    return CoveringRelation(pre, frozenset(pairs))


def derivable_judgments(p: FormalPresentation):
    """All derivable judgments, sorted."""
    return tuple(sorted(_saturate_judgments(p),
                        key=lambda j: (j.subject, tuple(sorted(j.cover)))))
