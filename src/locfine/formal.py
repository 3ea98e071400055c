"""Entailment over a commutative monoid base, with derivation trees.

A presentation is a finite commutative monoid together with axiom judgments
``a |= U``.  Entailment is the least relation containing the axioms and
closed under four rules: membership (a in U), divisibility (a*b |= {a}),
products (a |= U and a |= V give a |= U*V), and transitivity (a |= U and
u |= V for every u in U give a |= V).  Transitivity is the relational face
of the locally fine closure, so the covers of the unit always form a
locally fine monoid over the divisibility preorder.  Saturation is
semi-naive: a rule fires only when one of its premises was derived in the
previous round, so every judgment keeps the rule and premises that first
derive it in the naive round order.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass

from .carrier import Preorder, cover_key, subsets
from .covering import CoveringMonoid, CoveringRelation


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
    indices; a judgment ``a |= m`` is keyed ``a << n | m`` until the
    ``Judgment`` objects are built at the end.  Candidates are visited in
    the naive order (subject, then first premise, then second premise or
    target cover), skipping those whose premises all predate the last round:
    the round before already proposed them.
    """
    names = p.elements
    n = len(names)
    full = 1 << n
    low_bits = full - 1
    index = {x: i for i, x in enumerate(names)}
    members = [tuple(i for i in range(n) if m >> i & 1) for m in range(full)]
    rank = [0] * full           # a cover's place in sorted-member order
    for r, m in enumerate(sorted(range(full), key=members.__getitem__)):
        rank[m] = r
    covers = sorted(range(full), key=lambda m: (len(members[m]), members[m]))
    mul = [[index[p.product(x, y)] for y in names] for x in names]
    times = []                  # times[i][m]: the cover {i} * m
    for i in range(n):
        row = [0] * full
        for m in range(1, full):
            low = m & -m
            row[m] = row[m ^ low] | 1 << mul[i][low.bit_length() - 1]
        times.append(row)
    product_rows = {}

    def product_row(c):
        """The covers c * m for every m, built once per call."""
        row = product_rows.get(c)
        if row is None:
            row = [0] * full
            for i in members[c]:
                row = [x | y for x, y in zip(row, times[i])]
            product_rows[c] = row
        return row

    def jkey(k):
        return k >> n, rank[k & low_bits]

    batch = {}
    for j in p.axioms:
        m = sum(1 << index[x] for x in j.cover)
        batch.setdefault(index[j.subject] << n | m, ("axiom", ()))
    for m in covers:
        for a in members[m]:
            batch.setdefault(a << n | m, ("member", ()))
    for a in range(n):
        for b in range(n):
            batch.setdefault(mul[a][b] << n | 1 << a, ("divide", ()))

    derived = {}
    sup = [0] * full            # sup[m]: the subjects a with a |= m derived
    by_subject = [[] for _ in range(n)]     # derived covers, in rank order
    while batch:
        new_sup = [0] * full
        fresh = [[] for _ in range(n)]      # last round's covers, rank order
        for k in sorted(batch, key=jkey):
            derived[k] = batch[k]
            a, m = k >> n, k & low_bits
            sup[m] |= 1 << a
            new_sup[m] |= 1 << a
            fresh[a].append(m)
        changed = [v for v in covers if new_sup[v]]
        batch = {}
        for a in range(n):
            bit = 1 << a
            new_covers = fresh[a]
            is_new = set(new_covers)
            js = by_subject[a] = sorted(by_subject[a] + new_covers,
                                        key=rank.__getitem__)
            # product: pairs c1 <= c2 in rank order, at least one new (the
            # cover product commutes, so c1 > c2 is never a first proposer)
            if new_covers:
                new_ranks = [rank[m] for m in new_covers]
                for pos, c1 in enumerate(js):
                    row = product_row(c1)
                    if c1 in is_new:
                        seconds = js[pos:]
                    else:
                        seconds = new_covers[bisect(new_ranks, rank[c1]):]
                    for c2 in seconds:
                        w = row[c2]
                        k = a << n | w
                        if not sup[w] & bit and k not in batch:
                            batch[k] = ("product", (a << n | c1, a << n | c2))
            # compose: a |= c and u |= v for all u in c, one of them new
            for c in js:
                c_new = c in is_new
                for v in covers if c_new else changed:
                    s = sup[v]
                    if s & bit or c & ~s or not (c_new or c & new_sup[v]):
                        continue
                    k = a << n | v
                    if k not in batch:
                        batch[k] = ("compose", (a << n | c,)
                                    + tuple(u << n | v for u in members[c]))

    cover_sets = [frozenset(names[i] for i in members[m]) for m in range(full)]
    judgments = {k: Judgment(names[k >> n], cover_sets[k & low_bits])
                 for k in derived}
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
