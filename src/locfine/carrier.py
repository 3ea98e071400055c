"""Finite carriers and the combinatorics of covers.

A carrier is a finite pre-ordered universe of pieces with a top element.
Two kinds are provided:

* ``SubsetCarrier`` -- the pieces are all subsets of a finite point set,
  ordered by inclusion.  Pieces are ``frozenset`` instances of point names.
* ``Preorder`` -- an abstract finite preorder given by an explicit relation,
  with a unique top.  Pieces are opaque string ids.

A *cover* is a finite set of pieces, represented as a ``frozenset``.  Covers
are compared by the refinement preorder (``u`` refines ``v`` when every member
of ``u`` lies below some member of ``v``) and are stored in a normalized form:
no duplicates, no empty member on a subset carrier, only maximal members, and
on preorders one representative per equivalence class of mutually comparable
elements.  Normalized covers are canonical: two normalized covers refine each
other exactly when they are equal, which is what makes the saturation engines
terminate and memoise safely.  Each carrier computes the meet of two covers
and the refinement test, unchecked: by intersections and containment, or on
a preorder by the down-set masks D(u) of the covers.  ``meet_cover``,
``refines`` and ``restrict`` check their arguments, then ask the carrier.
"""

from __future__ import annotations

import operator
from functools import reduce
from itertools import combinations
from typing import Iterable, Iterator, Union

from .errors import CarrierMismatchError, LimitExceededError

Element = Union[str, frozenset]
Cover = frozenset

# Ceiling for canonical-cover enumeration; overridable per call.
DEFAULT_MAX_COVERS = 5000


class SubsetCarrier:
    """All subsets of a finite point set, ordered by inclusion."""

    def __init__(self, points: Iterable[str]):
        self.points = frozenset(points)
        self.top = self.points

    def is_element(self, e) -> bool:
        return isinstance(e, frozenset) and e <= self.points

    def check_element(self, e):
        if not self.is_element(e):
            raise CarrierMismatchError(f"not a subset of the carrier points: {e!r}")

    def le(self, a, b) -> bool:
        return a <= b

    def meet(self, u, v):
        """The meet of two covers: their maximal pairwise intersections."""
        return self.maximal({a & b for b in v for a in u})

    def refines(self, u, v):
        """Every nonempty member of u lies inside a member of v."""
        return all(not a or any(a <= b for b in v) for a in u)

    def maximal(self, members):
        """The nonempty members not strictly inside another member."""
        return frozenset(m for m in members
                         if m and not any(map(m.__lt__, members)))

    def key(self, e):
        return tuple(sorted(e))

    def rep(self, e):
        return e

    def elements(self) -> Iterator[frozenset]:
        """All subsets in canonical order (2^n of them)."""
        return map(frozenset, subsets(sorted(self.points)))

    def class_reps(self):
        return list(self.elements())

    def _cover_masks(self, max_count):
        """The subsets in key order, the empty one first, each one's subset mask,
        and the antichains of the rest; past 2^n > ``max_count`` none is listed."""
        if self.points and 2 ** len(self.points) > max_count:
            raise LimitExceededError(
                f"more than {max_count} canonical covers; raise the guard to proceed")
        subjects = sorted(self.elements(), key=self.key)
        every = (1 << len(subjects)) - 1
        # a subset of e has no point outside e, a superset has every point of e
        has = {x: sum(1 << j for j, e in enumerate(subjects) if x in e) for x in self.points}
        under = [every & ~reduce(operator.or_, map(has.get, self.points - e), 0)
                 for e in subjects]
        comparable = [u | reduce(operator.and_, map(has.get, e), every)
                      for e, u in zip(subjects, under)]
        return subjects, under, _antichain_pass(comparable, under, every - 1, max_count)

    def __repr__(self):
        return f"SubsetCarrier({sorted(self.points)})"

    def __eq__(self, other):
        return isinstance(other, SubsetCarrier) and self.points == other.points

    def __hash__(self):
        return hash(("SubsetCarrier", self.points))


class Preorder:
    """A finite preorder with a unique top element.

    The relation must be reflexive and transitive over the declared elements;
    the constructor checks this and raises ``ValueError`` otherwise, naming
    the least offending triple or element.  Use ``Preorder.from_edges`` to
    build one from a sparse edge list (the reflexive-transitive closure is
    taken automatically).  It keeps each element's up-set and down-set as int
    bitmasks, bit i standing for the i-th name in sorted order; ``le`` is a
    bit test, and meets, maximal members and class representatives are read
    from the masks.
    """

    def __init__(self, elements: Iterable[str], le_pairs: Iterable[tuple], top: str):
        names = tuple(sorted(set(elements)))
        bit, up, down = _masks(names, le_pairs)
        _check_transitive(names, up)
        self._setup(names, bit, up, down, top)

    @classmethod
    def _from_masks(cls, names, up, down, top):
        """From sorted ``names`` and lists of their masks, which the caller
        knows to be transitive; the top is checked as by the constructor."""
        self = cls.__new__(cls)
        self._setup(names, {x: 1 << i for i, x in enumerate(names)},
                    dict(zip(names, up)), dict(zip(names, down)), top)
        return self

    def _setup(self, names, bit, up, down, top):
        self.elements_tuple = names
        if top not in bit:
            raise ValueError(f"unknown top element: {top}")
        undominated = ~down[top] & ((1 << len(names)) - 1)
        if undominated:
            raise ValueError(f"top does not dominate {names[next(_bits(undominated))]}")
        self.top = top
        self._bit, self._up, self._down = bit, up, down
        # Representative of each equivalence class: the least name in it.
        self._rep = {a: names[next(_bits(up[a] & down[a]))] for a in names}
        self._reps = sum(bit[a] for a in names if self._rep[a] == a)

    @classmethod
    def from_edges(cls, elements, edges, top):
        """Build from a sparse ``a <= b`` edge list; closure is computed."""
        names = set(elements)
        return cls(names, reflexive_transitive_closure(names, edges), top)

    def is_element(self, e) -> bool:
        return e in self._rep

    def check_element(self, e):
        if not self.is_element(e):
            raise CarrierMismatchError(f"unknown element id: {e!r}")

    def le(self, a, b) -> bool:
        return (self._up.get(a, 0) & self._bit.get(b, 0)) != 0

    def _down_of(self, u):
        """D(u): the mask of the elements below a member of u."""
        return reduce(operator.or_, map(self._down.__getitem__, u), 0)

    def meet(self, u, v):
        """The meet of two covers: the maximal class representatives in
        D(u) & D(v), which is the union of the members' common down-sets."""
        return self._maximal(self._down_of(u) & self._down_of(v) & self._reps)

    def refines(self, u, v):
        """Every member of u lies below a member of v: D(u) is inside D(v)."""
        return self._down_of(u) & ~self._down_of(v) == 0

    def maximal(self, members):
        """Of a set of class representatives, those with no other member
        above them."""
        mask = sum(map(self._bit.__getitem__, members))
        return frozenset(m for m in members if self._up[m] & mask == self._bit[m])

    def _maximal(self, mask):
        names, up = self.elements_tuple, self._up
        return frozenset(names[i] for i in _bits(mask) if up[names[i]] & mask == 1 << i)

    def key(self, e):
        return (e,)

    def rep(self, e):
        return self._rep[e]

    def elements(self):
        return iter(self.elements_tuple)

    def class_reps(self):
        return [self.elements_tuple[i] for i in _bits(self._reps)]

    def _cover_masks(self, max_count):
        """The class representatives, the masks of those below each, and their antichains."""
        reps, subjects = self._reps, self.class_reps()
        under = [self._down[s] & reps for s in subjects]
        comparable = [(self._down[s] | self._up[s]) & reps for s in subjects]
        if len(subjects) < len(self.elements_tuple):    # renumber over the representatives
            pos = {i: j for j, i in enumerate(_bits(reps))}
            under, comparable = ([sum(1 << pos[i] for i in _bits(m)) for m in masks]
                                 for masks in (under, comparable))
        every = (1 << len(subjects)) - 1
        return subjects, under, _antichain_pass(comparable, under, every, max_count)

    def le_pairs(self):
        names = self.elements_tuple
        return frozenset((a, names[i]) for a in names for i in _bits(self._up[a]))

    def __repr__(self):
        return f"Preorder({len(self.elements_tuple)} elements, top={self.top!r})"

    def __eq__(self, other):
        return (isinstance(other, Preorder)
                and self.elements_tuple == other.elements_tuple
                and self._up == other._up and self.top == other.top)

    def __hash__(self):
        return hash(("Preorder", self.elements_tuple, self.top))


Carrier = Union[SubsetCarrier, Preorder]


def subsets(items) -> Iterator[tuple]:
    """Every subset of ``items`` as a tuple: by size, then in
    ``combinations`` order (lexicographic when ``items`` is sorted)."""
    items = tuple(items)
    for r in range(len(items) + 1):
        yield from combinations(items, r)


def _bits(mask):
    """The indices of the set bits of a nonnegative int, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_DIGITS = bytes.maketrans(b"01", bytes([0, 1]))


def _selector(mask):
    """A nonnegative int's bits, lowest first up to its highest set bit, as
    the bytes 0 and 1: a ``compress`` selector, read as false and true."""
    return bin(mask)[:1:-1].encode().translate(_DIGITS)


def _masks(names, le_pairs):
    """``(bit, up, down)`` of a relation over ``names``: bit i stands for
    ``names[i]``, and each name's up- and down-mask holds the name itself.
    Raises ``ValueError`` naming the least pair that mentions something
    outside ``names``."""
    bit = {x: 1 << i for i, x in enumerate(names)}
    up, down = dict(bit), dict(bit)
    unknown = []
    for a, b in le_pairs:
        if a in bit and b in bit:
            up[a] |= bit[b]
            down[b] |= bit[a]
        else:
            unknown.append((a, b))
    if unknown:
        raise ValueError(f"relation mentions unknown element: {min(unknown)}")
    return bit, up, down


def _intransitive(order, up):
    """Every triple ``a <= b <= c`` with ``a`` not below ``c``, sorted by
    name, of the relation whose up-masks ``up`` set bit i for ``order[i]``."""
    return sorted((a, order[i], order[j]) for a, mask in up.items() for i in _bits(mask)
                  if up[order[i]] & ~mask for j in _bits(up[order[i]] & ~mask))


def _check_transitive(order, up):
    """Raise ``ValueError`` naming the least triple ``_intransitive`` finds."""
    bad = _intransitive(order, up)
    if bad:
        raise ValueError("relation is not transitive: {} <= {} <= {}".format(*bad[0]))


def reflexive_transitive_closure(names, edges) -> set:
    """The least reflexive, transitive relation on ``names`` containing the
    ``(a, b)`` pairs of ``edges``, as a set of pairs.

    Warshall's algorithm over up-masks: once pivot ``k`` is processed, every
    element whose up-mask holds ``k`` holds all of ``k``'s.
    """
    names = tuple(dict.fromkeys(names))
    bit, up, _ = _masks(names, edges)
    for k in names:
        for a, above in up.items():
            if above & bit[k]:
                up[a] = above | up[k]
    return {(a, names[i]) for a, above in up.items() for i in _bits(above)}


def cover_key(u: Cover, carrier) -> tuple:
    """Deterministic sort key for a cover."""
    return tuple(sorted(carrier.key(m) for m in u))


def sorted_members(u: Cover, carrier) -> list:
    return sorted(u, key=carrier.key)


def normalize(u: Iterable, carrier) -> Cover:
    """Canonical form of a cover.

    Drops duplicates, empty members (subset carriers), members subsumed by a
    strictly larger member, and equivalence-class duplicates on preorders.
    The result mutually refines the input.
    """
    members = set()
    for m in u:
        carrier.check_element(m)
        members.add(carrier.rep(m))
    return carrier.maximal(members)


def refines(u: Cover, v: Cover, carrier) -> bool:
    """u refines v: every member of u lies below some member of v.

    An empty piece on a subset carrier refines vacuously, so refinement is
    invariant under normalization.
    """
    for m in (*u, *v):
        carrier.check_element(m)
    return carrier.refines(u, v)


def mutually_refine(u: Cover, v: Cover, carrier) -> bool:
    return refines(u, v, carrier) and refines(v, u, carrier)


def meet_cover(u: Cover, v: Cover, carrier) -> Cover:
    """Greatest lower bound of two covers in the refinement preorder, from
    ``carrier.meet`` once every member of both covers is checked, so an
    empty cover on either side still rejects a stranger on the other.
    """
    for m in (*u, *v):
        carrier.check_element(m)
    return carrier.meet(u, v)


def fold_meet(covers: Iterable[Cover], carrier) -> Cover:
    """Meet of a nonempty family of covers, folded in the given order."""
    it = iter(covers)
    try:
        acc = normalize(next(it), carrier)
    except StopIteration:
        raise ValueError("fold_meet needs at least one cover")
    for c in it:
        acc = meet_cover(acc, c, carrier)
    return acc


def restrict(u: Cover, a, carrier: SubsetCarrier) -> Cover:
    """Trace of a cover on a piece: the normalized cover {m & a : m in u}."""
    if not isinstance(carrier, SubsetCarrier):
        raise CarrierMismatchError("restrict is defined on subset carriers only")
    carrier.check_element(a)
    return carrier.meet(u, (a,))


def star(m, v: Cover) -> frozenset:
    """St(m, v): union of the members of v meeting m."""
    out = set(m)
    for m2 in v:
        if m2 & m:
            out |= m2
    return frozenset(out)


def star_refines(v: Cover, u: Cover, carrier: SubsetCarrier) -> bool:
    """Every star St(m, v) is contained in some member of u."""
    if not isinstance(carrier, SubsetCarrier):
        raise CarrierMismatchError("star refinement is defined on subset carriers only")
    for m in v:
        carrier.check_element(m)
        if not any(star(m, v) <= b for b in u):
            return False
    return True


def _antichain_pass(comparable, below, allowed, max_count):
    """Every antichain of the elements in the mask ``allowed``, depth-first and
    lowest index first, each step keeping ``allowed & ~comparable[i]``: so in
    lexicographic order of member index, as (member mask, OR of ``below[i]``
    over the members i, within ``allowed``).  The empty one comes first; past
    ``max_count`` of them ``LimitExceededError`` is raised."""
    out = [(0, 0)]

    def extend(members, down, rest):
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest ^= 1 << i
            out.append((members | 1 << i, down | below[i] & allowed))
            if len(out) > max_count:
                raise LimitExceededError(
                    f"more than {max_count} canonical covers; raise the guard to proceed")
            extend(*out[-1], rest & ~comparable[i])

    extend(0, 0, allowed)
    return out


def antichains(elements, le, max_count: int = DEFAULT_MAX_COVERS):
    """All antichains of a finite poset (one element per class at most), in
    lexicographic order of position: the antichain pass over n^2 ``le`` calls."""
    elems = list(elements)
    comparable = [sum(1 << j for j, b in enumerate(elems) if le(a, b) or le(b, a))
                  for a in elems]
    chains = _antichain_pass(comparable, comparable, (1 << len(elems)) - 1, max_count)
    return [frozenset(elems[i] for i in _bits(m)) for m, _ in chains]


def all_canonical_covers(carrier, max_count: int = DEFAULT_MAX_COVERS):
    """All normalized covers, in ``cover_key`` order, from the carrier's masks."""
    subjects, _, chains = carrier._cover_masks(max_count)
    return [frozenset(subjects[i] for i in _bits(m)) for m, _ in chains]
