"""Finite frames, frames of finite spaces, points, and spatiality.

A finite frame is a finite lattice satisfying the distributive (Heyting)
law ``x /\\ (y \\/ z) = (x /\\ y) \\/ (x /\\ z)``; over a finite carrier this
is equivalent to distributivity over arbitrary joins.  Points are completely
prime filters; in a finite lattice every such filter is the up-set of a
join-prime element, which is how they are enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress

from .carrier import _bits, _intransitive, _masks, _selector, subsets
from .errors import InvalidTopologyError


@dataclass(frozen=True)
class SpaceDescription:
    """A finite topological space: a point set and its opens."""

    points: frozenset
    opens: frozenset

    def validate(self):
        """Raise InvalidTopologyError unless the opens form a topology."""
        if frozenset() not in self.opens:
            raise InvalidTopologyError("the empty set must be open")
        if self.points not in self.opens:
            raise InvalidTopologyError("the full point set must be open")
        for o in self.opens:
            if not o <= self.points:
                raise InvalidTopologyError(f"open {sorted(o)} is not a subset of the points")
        for a in self.opens:
            for b in self.opens:
                if a & b not in self.opens:
                    raise InvalidTopologyError(
                        f"intersection {sorted(a & b)} of opens is not open")
                if a | b not in self.opens:
                    raise InvalidTopologyError(
                        f"union {sorted(a | b)} of opens is not open")

    @property
    def is_t0(self) -> bool:
        for p, q in combinations(sorted(self.points), 2):
            if not any((p in o) != (q in o) for o in self.opens):
                return False
        return True

    def min_open(self, p) -> frozenset:
        """Smallest open containing a point (finite spaces always have one)."""
        out = self.points
        for o in self.opens:
            if p in o and o < out:
                out = o
        return out


def open_label(o) -> str:
    return "{" + ",".join(sorted(o)) + "}"


class Frame:
    """A finite order kept as two int bitmasks per element: its up-set and
    its down-set, bit i standing for the i-th element of the frame's bit
    order (the sorted names, for a frame built from a relation).

    On a transitive relation x is the least upper bound of a set exactly when
    ``up(x)`` is the set's common upper bounds, so a join is an AND of
    up-masks plus one dictionary lookup, and a meet the same with down-masks
    (Johnstone, *Stone Spaces*, I.4); ``le`` is a bit test, false for a name
    that is not an element.  A join or meet that does not exist, or that two
    mutually-below elements would share, is ``None``.  ``up_set``,
    ``down_set`` and ``le_set`` give the same order as frozensets of names,
    built on first read and cached; a frame built from a relation keeps only
    its masks, so its ``le_set`` is that relation made reflexive.

    Construction does not enforce the frame laws; ``validate_frame`` reports
    every violated law so that broken inputs can be diagnosed.  ``meanings``
    optionally records the concrete open set each element denotes when the
    frame was built from a space.
    """

    def __init__(self, elements, le_pairs, meanings=None):
        names = tuple(sorted(set(elements)))
        self._setup(names, *_masks(names, le_pairs), meanings)

    @classmethod
    def _from_masks(cls, order, up, down, meanings=None, join_dense=None):
        """A frame read from masks: ``order`` names the element of each bit,
        and ``join_dense``, when given, is the mask of a set every element
        is a join of, so that only its members can be join-prime."""
        self = cls.__new__(cls)
        self._setup(order, {x: 1 << i for i, x in enumerate(order)}, up, down,
                    meanings, join_dense)
        return self

    def _setup(self, order, bit, up, down, meanings, join_dense=None):
        self.elements = tuple(sorted(order))
        self._by_bit = order
        self._bit = bit
        self._up, self._down = up, down
        self._all = (1 << len(order)) - 1
        self._by_up = _owners(up)
        self._by_down = _owners(down)
        self._up_sets, self._down_sets = {}, {}
        self._join_dense = join_dense
        self._primes = None
        self.meanings = dict(meanings) if meanings else None
        self.bottom = self.big_join(())
        self.top = self.big_meet(())

    def le(self, a, b) -> bool:
        up, bit = self._up.get(a), self._bit.get(b)
        return up is not None and bit is not None and bool(up & bit)

    def join(self, a, b):
        return self._by_up.get(self._up[a] & self._up[b])

    def meet(self, a, b):
        return self._by_down.get(self._down[a] & self._down[b])

    def big_join(self, xs):
        """Least upper bound of ``xs`` (the bottom when empty), or None."""
        acc = self._all
        for x in xs:
            acc &= self._up[x]
        return self._by_up.get(acc)

    def big_meet(self, xs):
        """Greatest lower bound of ``xs`` (the top when empty), or None."""
        acc = self._all
        for x in xs:
            acc &= self._down[x]
        return self._by_down.get(acc)

    @cached_property
    def le_set(self):
        return frozenset((a, b) for a in self.elements for b in self.up_set(a))

    def down_set(self, x):
        got = self._down_sets.get(x)
        if got is None:
            got = self._down_sets[x] = self._names(self._down[x])
        return got

    def up_set(self, x):
        got = self._up_sets.get(x)
        if got is None:
            got = self._up_sets[x] = self._names(self._up[x])
        return got

    def _names(self, mask):
        return frozenset(compress(self._by_bit, _selector(mask)))

    def _join_primes(self):
        """The mask of the elements ``points_of`` accepts, computed once.

        Given a join-dense set, every element is the join of the members
        below it, so only members can be join-prime, and the join of the
        elements not above q is the join of the members not above q.
        """
        if self._primes is None:
            pool = self._all if self._join_dense is None else self._join_dense
            ups = [self._up[x] for x in self._by_bit]
            primes = 0
            for q in _bits(pool):
                acc = self._all
                for i in _bits(pool & ~ups[q]):
                    acc &= ups[i]
                j = self._by_up.get(acc)
                if j is None or not ups[q] & self._bit[j]:
                    primes |= 1 << q
            self._primes = primes
        return self._primes

    def meaning(self, x):
        if self.meanings is None:
            raise KeyError("this frame does not carry open-set meanings")
        return self.meanings[x]

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"Frame({len(self.elements)} elements)"


def _owners(masks):
    """Map each mask to the element it belongs to, or to None when shared."""
    out = {}
    for x, m in masks.items():
        out[m] = None if m in out else x
    return out


def frame_from_space(s: SpaceDescription) -> Frame:
    """The frame of opens of a finite space, ordered by inclusion.

    A topology's opens are closed under binary meets and joins, so inclusion
    makes them a distributive lattice and the frame laws need no check; only
    the labels must tell the opens apart, which a point name holding ``,``
    can prevent.
    """
    s.validate()
    meanings = {}
    for o in sorted(s.opens, key=lambda o: (len(o), sorted(o))):
        label = open_label(o)
        if label in meanings:
            raise InvalidTopologyError(
                f"opens {sorted(meanings[label])} and {sorted(o)} share the label {label}")
        meanings[label] = o
    le = {(x, y) for x, a in meanings.items() for y, b in meanings.items() if a <= b}
    return Frame(meanings, le, meanings=meanings)


@dataclass(frozen=True)
class FrameReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_frame(f: Frame) -> FrameReport:
    """Report every violated lattice or Heyting law.

    The Heyting law is checked in its binary form; on a finite lattice that
    implies distributivity over every finite join.
    """
    elems = f.elements
    out = [f"antisymmetry fails: {a} and {b} are mutually below each other"
           for a in elems for b in sorted(f._names(f._up[a] & f._down[a])) if a != b]
    out += ["transitivity fails: {} <= {} <= {}".format(*t)
            for t in _intransitive(f._by_bit, f._up)]
    if f.bottom is None:
        out.append("no bottom element")
    if f.top is None:
        out.append("no top element")
    for a in elems:
        for b in elems:
            if f.join(a, b) is None:
                out.append(f"join of {a} and {b} does not exist")
            if f.meet(a, b) is None:
                out.append(f"meet of {a} and {b} does not exist")
    if out or _irreducibles_are_prime(f):
        return FrameReport(tuple(out))
    for x in elems:
        for y in elems:
            for z in elems:
                lhs = f.meet(x, f.join(y, z))
                rhs = f.join(f.meet(x, y), f.meet(x, z))
                if lhs != rhs:
                    out.append(
                        f"Heyting law fails: {x} /\\ ({y} \\/ {z}) = {lhs} "
                        f"but ({x} /\\ {y}) \\/ ({x} /\\ {z}) = {rhs}")
    return FrameReport(tuple(out))


def _irreducibles_are_prime(f: Frame) -> bool:
    """Whether each join-irreducible (one lower cover) is join-prime: exactly
    then is a finite lattice distributive (Davey & Priestley, ch. 5)."""
    primes = f._join_primes()
    for x in f._by_bit:
        below = f._down[x] & ~f._bit[x]
        covers = [i for i in _bits(below) if f._up[f._by_bit[i]] & below == 1 << i]
        if len(covers) == 1 and not primes & f._bit[x]:
            return False
    return True


@dataclass(frozen=True)
class Point:
    """A completely prime filter, with its least element for bookkeeping."""

    least: str
    filter: frozenset


def points_of(f: Frame):
    """All points, one per completely prime filter, in element order.

    In a finite lattice a completely prime filter is the up-set of a
    join-prime element q, and q is join-prime exactly when the elements not
    above q form a principal ideal, that is, when their join is still not
    above q (Davey & Priestley, ch. 10).  The bottom fails the test: no
    element lies outside its up-set, and the empty join is the bottom.  A
    generated locale's frame knows a join-dense set, the images of the
    generators, and tests only its members against their own joins.
    """
    primes = f._join_primes()
    return tuple(Point(least=q, filter=f.up_set(q))
                 for q in f.elements if primes & f._bit[q])


def point_extent(f: Frame, x) -> frozenset:
    """The set of points whose filter contains x."""
    down = f._down.get(x)
    if down is None:
        raise KeyError(f"unknown frame element: {x!r}")
    return frozenset(Point(least=q, filter=f.up_set(q))
                     for q in f._names(down & f._join_primes()))


def is_spatial(f: Frame):
    """Whether x -> extent(x) is injective; on failure return a witness pair."""
    primes = f._join_primes()
    seen = {}
    for x in f.elements:
        ext = f._down[x] & primes
        if ext in seen:
            return False, (seen[ext], x)
        seen[ext] = x
    return True, None


def _signatures(f: Frame):
    sig = {x: (len(f.down_set(x)), len(f.up_set(x))) for x in f.elements}
    for _ in range(len(f.elements)):
        nxt = {}
        for x in f.elements:
            below = tuple(sorted(sig[y] for y in f.down_set(x)))
            above = tuple(sorted(sig[y] for y in f.up_set(x)))
            nxt[x] = (sig[x], below, above)
        if len(set(nxt.values())) == len(set(sig.values())):
            return sig
        sig = nxt
    return sig


def frame_iso(f: Frame, g: Frame):
    """Search for an order isomorphism; returns (found, mapping or None)."""
    if len(f.elements) != len(g.elements):
        return False, None
    sf, sg = _signatures(f), _signatures(g)
    if sorted(sf.values()) != sorted(sg.values()):
        return False, None
    order = sorted(f.elements, key=lambda x: (sf[x], x))
    candidates = {x: sorted(y for y in g.elements if sg[y] == sf[x]) for x in order}

    mapping = {}
    used = set()

    def backtrack(i):
        if i == len(order):
            return True
        x = order[i]
        for y in candidates[x]:
            if y in used:
                continue
            ok = True
            for x2, y2 in mapping.items():
                if f.le(x, x2) != g.le(y, y2) or f.le(x2, x) != g.le(y2, y):
                    ok = False
                    break
            if ok:
                mapping[x] = y
                used.add(y)
                if backtrack(i + 1):
                    return True
                del mapping[x]
                used.discard(y)
        return False

    if backtrack(0):
        return True, dict(mapping)
    return False, None


# Small space constructors used across tests, demos, and fixtures.

def space_one_point() -> SpaceDescription:
    return SpaceDescription(frozenset({"p"}), frozenset({frozenset(), frozenset({"p"})}))


def space_sierpinski() -> SpaceDescription:
    """Two points; the open point is ``b``."""
    return SpaceDescription(
        frozenset({"a", "b"}),
        frozenset({frozenset(), frozenset({"b"}), frozenset({"a", "b"})}))


def space_discrete(names) -> SpaceDescription:
    pts = sorted(names)
    return SpaceDescription(frozenset(pts), frozenset(map(frozenset, subsets(pts))))


def space_chain3() -> SpaceDescription:
    """Three points whose opens form a 4-chain."""
    return SpaceDescription(
        frozenset({"0", "1", "2"}),
        frozenset({frozenset(), frozenset({"2"}), frozenset({"1", "2"}),
                   frozenset({"0", "1", "2"})}))


def space_six_opens() -> SpaceDescription:
    """A 3-point T0 space with six opens (one isolated point over a 2-chain)."""
    return SpaceDescription(
        frozenset({"x", "y", "z"}),
        frozenset({frozenset(), frozenset({"y"}), frozenset({"z"}),
                   frozenset({"y", "z"}), frozenset({"x", "y"}),
                   frozenset({"x", "y", "z"})}))


def chain_frame(n: int) -> Frame:
    """The n-element chain 0 < 1 < ... < n-1 as a frame."""
    names = [f"c{i}" for i in range(n)]
    le = {(names[i], names[j]) for i in range(n) for j in range(i, n)}
    return Frame(names, le)


def boolean_frame_2() -> Frame:
    """The four-element Boolean lattice."""
    le = {("0", "a", ), ("0", "b"), ("0", "1"), ("a", "1"), ("b", "1")}
    return Frame(["0", "a", "b", "1"], le)


def diamond_m3() -> Frame:
    """M3: three incomparable middles, a classic non-distributive lattice."""
    mid = ["a", "b", "c"]
    le = {("0", m) for m in mid} | {(m, "1") for m in mid} | {("0", "1")}
    return Frame(["0", "1"] + mid, le)
