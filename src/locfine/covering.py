"""Covering relations and monoids of covers.

Two closure engines live here:

* ``saturate`` closes a relation of (piece, cover) pairs under the four
  covering-relation axioms: C1 membership, C2 order, C3 meets, C4
  transitivity.  Pairs are kept in canonical form (class-representative
  subjects, normalized covers), which bounds the state space and makes the
  round-based derivation deterministic.  The rounds are semi-naive.  Formal
  entailment runs the same closure, with the cover product in place of meet.

* ``lambda_close`` closes a monoid of covers of the top element under the
  locally fine combination.  A monoid's own membership asks for a single
  basis cover refining the query; the closure's membership asks for a
  meet-combination of basis covers.  The two coincide exactly when the basis
  is meet-directed, which is what ``is_locally_fine`` reports.

One memoised least-rank search, ``_least_ranks``, finds the least depth of
a Noetherian tree whose node covers are traces of basis covers.  It answers
``rank`` (stage d of the closure holds what such trees of depth d + 1
witness), ``witness_tree``, ``bounded_member`` and the game's ``solve``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from . import carrier as oc
from .carrier import (
    DEFAULT_MAX_COVERS,
    Cover,
    SubsetCarrier,
    _bits,
    cover_key,
    fold_meet,
    normalize,
    refines,
    restrict,
    star_refines,
    subsets,
)
from .errors import CarrierMismatchError, LocfineError
from .frames import SpaceDescription


@dataclass(frozen=True)
class DerivationTrace:
    """Stagewise record of a closure: (stage index, newly added items)."""

    stages: tuple

    def stage_of(self, item):
        for idx, added in self.stages:
            if item in added:
                return idx
        return None

    @property
    def final_is_empty(self) -> bool:
        return bool(self.stages) and not self.stages[-1][1]


@dataclass(frozen=True)
class CoveringRelation:
    """A set of (piece, cover) pairs over a carrier, canonicalized."""

    carrier: object
    pairs: frozenset

    def __post_init__(self):
        carrier, canon, normal = self.carrier, set(), {}
        for (a, u) in self.pairs:
            carrier.check_element(a)
            if u not in normal:
                normal[u] = normalize(u, carrier)
            canon.add((carrier.rep(a), normal[u]))
        object.__setattr__(self, "pairs", frozenset(canon))

    def holds(self, a, u) -> bool:
        self.carrier.check_element(a)
        return (self.carrier.rep(a), normalize(u, self.carrier)) in self.pairs

    def sorted_pairs(self):
        return sorted(self.pairs,
                      key=lambda p: (self.carrier.key(p[0]), cover_key(p[1], self.carrier)))


@dataclass(frozen=True)
class CoveringMonoid:
    """A monoid of covers of top, given by a finite basis.

    A cover belongs to the monoid when some basis cover refines it; the
    meet-and-coarsening filter semantics is obtained through
    ``lambda_close`` / ``member(..., use_lambda=True)``.  An empty basis
    denotes the filter generated by the trivial cover {top}.
    """

    carrier: object
    basis: tuple

    def __post_init__(self):
        covers = []
        for u in self.basis:
            if isinstance(self.carrier, SubsetCarrier):
                union = frozenset().union(*u) if u else frozenset()
                if union != self.carrier.points:
                    raise ValueError(
                        f"basis cover does not cover the points: {sorted(map(sorted, u))}")
            covers.append(normalize(u, self.carrier))
        if not covers:
            covers = [normalize([self.carrier.top], self.carrier)]
        uniq = sorted(set(covers), key=lambda c: cover_key(c, self.carrier))
        object.__setattr__(self, "basis", tuple(uniq))


@dataclass(frozen=True)
class NoetherianTree:
    """A well-founded tree of pieces; leaves are the End set."""

    node: object
    children: tuple = ()

    def leaves(self):
        if not self.children:
            return (self.node,)
        out = []
        for c in self.children:
            out.extend(c.leaves())
        return tuple(out)

    def depth(self) -> int:
        if not self.children:
            return 0
        return 1 + max(c.depth() for c in self.children)


# ---------------------------------------------------------------------------
# Relational saturation (C1-C4)
# ---------------------------------------------------------------------------

class _CoverSpace:
    """Canonical covers interned from the antichain pass over the carrier's masks.

    ``under[s]`` masks the subject ids below subject s, ``members[c]`` those
    in cover c, and ``down[c]`` those below a member of cover c (on a subset
    carrier only nonempty ones: no normalized cover has an empty member).
    ``meet_id(i, j)`` is the cover whose mask is ``down[i] & down[j]``,
    exactly: over a finite carrier the maximal common lower bounds of the
    member pairs of u and v have, together, the down-closure D(u) & D(v), so
    the normalized meet is the set of maximal elements of D(u) & D(v); and
    normalized covers, the antichains of class representatives, correspond one
    to one to down-sets of representatives.
    """

    def __init__(self, carrier, max_covers):
        self.carrier = carrier
        self.subjects, self.under, chains = carrier._cover_masks(max_covers)
        self.sid = {s: i for i, s in enumerate(self.subjects)}
        self.members, self.down = zip(*chains)
        self.member_sids = [frozenset(_bits(m)) for m in self.members]
        self.covers = [frozenset(map(self.subjects.__getitem__, m)) for m in self.member_sids]
        self.cid = {c: i for i, c in enumerate(self.covers)}
        self.did = {d: i for i, d in enumerate(self.down)}

    def meet_id(self, i, j):
        return self.did[self.down[i] & self.down[j]]


def _rounds(held, seeds, combine, members):
    """Semi-naive closure of (subject, cover) facts; returns the rounds.

    ``held[c]``, the bitmask of subjects s with (s, c) derived, is updated in
    place.  Round one proposes the ``seeds`` (rule, cover, subject mask).
    Every round proposes, from the facts held before it, C3: ``combine(i, j)``
    from (s, i) and (s, j) for i <= j, then C4: v from (s, u) when every
    subject in ``members[u]`` holds v.  Only proposals with a premise new in
    the round before are visited (round one counts every initial fact as
    new): the others added nothing then.  They are visited in naive order,
    by cover id, and a new fact keeps its first proposer.  A round lists
    (rule, cover, new subject mask, premise covers); the last round is empty.
    """
    covers = range(len(held))
    delta = list(held)
    rounds = []
    while True:
        gained = [0] * len(held)
        found = []
        for rule, c, mask in seeds:
            fresh = mask & ~(held[c] | gained[c])
            if fresh:
                gained[c] |= fresh
                found.append((rule, c, fresh, ()))
        live = [c for c in covers if held[c]]
        changed = [c for c in live if delta[c]]
        k = 0                   # changed[k:] lie at or after i
        for x, i in enumerate(live):
            hi, di = held[i], delta[i]
            if di:
                k += 1
            for j in live[x:] if di else changed[k:]:
                mask = di & held[j] | hi & delta[j]
                if mask:
                    w = combine(i, j)
                    fresh = mask & ~(held[w] | gained[w])
                    if fresh:
                        gained[w] |= fresh
                        found.append(("C3", w, fresh, (i, j)))
        for u in live:
            hu, du, mu = held[u], delta[u], members[u]
            for v in covers if du else changed:
                hv = held[v]
                if mu & ~hv:
                    continue
                fresh = (hu if mu & delta[v] else du) & ~(hv | gained[v])
                if fresh:
                    gained[v] |= fresh
                    found.append(("C4", v, fresh, (u,)))
        rounds.append(found)
        if not found:
            return rounds
        for c, g in enumerate(gained):
            held[c] |= g
        delta, seeds = gained, ()


def _close(space, rel, combine):
    """Round-based closure under C1-C4 of a relation's pairs; returns
    (held, rounds).

    The pairs are taken as ``CoveringRelation`` made them: class-
    representative subjects and normalized covers.  ``held[c]`` is the
    bitmask of the subject ids s with (s, c) derived.  C1 and C2 seed round
    one, C2 with the cover {b} less any empty piece; C3 combines covers i and
    j of a subject into ``combine(i, j)`` (the meet ``space.meet_id``; for
    formal entailment the normalized product) and C4 is transitivity, both
    run by ``_rounds``.  A new pair is credited to the first rule that
    proposes it, in the order C1, C2, C3, C4.
    """
    held = [0] * len(space.covers)
    for a, u in rel.pairs:
        held[space.cid[u]] |= 1 << space.sid[a]
    seeds = [("C1", ci, m) for ci, m in enumerate(space.members)]
    seeds += [("C2", space.cid[frozenset([b]) - {frozenset()}], under)
              for b, under in zip(space.subjects, space.under)]
    return held, _rounds(held, seeds, combine, space.members)


def _round_pairs(space, found):
    """(rule, (subject, cover)) for each pair a round of ``_close`` adds."""
    for rule, ci, fresh, _ in found:
        for si in _bits(fresh):
            yield rule, (space.subjects[si], space.covers[ci])


def saturate(rel: CoveringRelation, max_covers: int = DEFAULT_MAX_COVERS):
    """Least covering relation containing ``rel`` and closed under C1-C4.

    The trace records stage 0 (the canonicalized generators) followed by one
    stage per derivation round; the final stage is empty.
    """
    space = _CoverSpace(rel.carrier, max_covers)
    _, rounds = _close(space, rel, space.meet_id)
    stages = [rel.pairs] + [frozenset(p for _, p in _round_pairs(space, found))
                            for found in rounds]
    closed = object.__new__(CoveringRelation)   # canonical as built: no __post_init__
    closed.__dict__.update(carrier=rel.carrier, pairs=frozenset().union(*stages))
    return closed, DerivationTrace(tuple(enumerate(stages)))


@dataclass(frozen=True)
class AuditReport:
    """Missing consequences of each axiom, relative to the stored pairs."""

    c1: tuple
    c2: tuple
    c3: tuple
    c4: tuple

    @property
    def ok(self) -> bool:
        return not (self.c1 or self.c2 or self.c3 or self.c4)

    def lines(self, carrier):
        out = []
        for rule, missing in (("C1", self.c1), ("C2", self.c2),
                              ("C3", self.c3), ("C4", self.c4)):
            for (a, u) in missing:
                out.append(f"{rule} violated: missing pair ({_fmt_elem(a)}, "
                           f"{_fmt_cover(u, carrier)})")
        return out


def _fmt_elem(e):
    if isinstance(e, frozenset):
        return "{" + " ".join(sorted(e)) + "}"
    return str(e)


def _fmt_cover(u, carrier):
    if isinstance(carrier, SubsetCarrier):
        return " ".join(_fmt_elem(m) for m in oc.sorted_members(u, carrier))
    return "{" + " ".join(str(m) for m in oc.sorted_members(u, carrier)) + "}"


def audit_axioms(rel: CoveringRelation, max_covers: int = DEFAULT_MAX_COVERS) -> AuditReport:
    """Report every pair the axioms force but the relation lacks.

    Each missing pair is attributed to the first rule that derives it in the
    canonical closure order, so an unclosed generator set shows its C4
    composites explicitly.
    """
    space = _CoverSpace(rel.carrier, max_covers)
    _, rounds = _close(space, rel, space.meet_id)
    buckets = {"C1": [], "C2": [], "C3": [], "C4": []}
    for found in rounds:
        for rule, pair in _round_pairs(space, found):
            buckets[rule].append(pair)
    key = lambda p: (rel.carrier.key(p[0]), cover_key(p[1], rel.carrier))
    return AuditReport(*(tuple(sorted(buckets[r], key=key)) for r in ("C1", "C2", "C3", "C4")))


# ---------------------------------------------------------------------------
# Monoids of covers and the locally fine closure
# ---------------------------------------------------------------------------

def meet_closure(basis, carrier):
    """All folded meets of nonempty subsets of the basis, canonicalized."""
    meets = {fold_meet(sub, carrier) for sub in subsets(basis) if sub}
    return sorted(meets, key=lambda c: cover_key(c, carrier))


def global_meet(m: CoveringMonoid) -> Cover:
    return fold_meet(m.basis, m.carrier)


def member(m: CoveringMonoid, v: Cover, use_lambda: bool = True) -> bool:
    """Whether v belongs to the monoid, or to its locally fine closure.

    With ``use_lambda`` the meet of the whole basis stands in for the
    closure: it refines every locally fine combination, so membership of v
    is equivalent to the meet refining v.
    """
    v = normalize(v, m.carrier)
    if use_lambda:
        return refines(global_meet(m), v, m.carrier)
    return any(refines(b, v, m.carrier) for b in m.basis)


def _meet_stages(basis, carrier):
    """The meet closure of a basis, stage by stage: stage 0 is the basis,
    stage k the meets of a stage k-1 cover with a basis cover that no
    earlier stage holds, in ``cover_key`` order.  The last stage is empty."""
    basis = list(basis)
    seen = set(basis)
    stage = basis
    while stage:
        yield stage
        new = {carrier.meet(u, b) for u in stage for b in basis} - seen
        stage = sorted(new, key=lambda c: cover_key(c, carrier))
        seen.update(stage)
    yield stage


def lambda_close(m: CoveringMonoid):
    """The locally fine closure, as a monoid with a meet-closed basis.

    The trace presents the closure stagewise, meeting one more basis cover
    per stage.
    """
    stages = [frozenset(s) for s in _meet_stages(m.basis, m.carrier)]
    closed = CoveringMonoid(m.carrier, tuple(frozenset().union(*stages)))
    return closed, DerivationTrace(tuple(enumerate(stages)))


def is_locally_fine(m: CoveringMonoid) -> bool:
    """Whether the closure adds no membership: some basis cover refines the
    meet of the whole basis."""
    target = global_meet(m)
    return any(refines(b, target, m.carrier) for b in m.basis)


def _least_ranks(covers_of, targets, le, budget, starts, key=None):
    """Least ranks of Noetherian trees from each start within a budget:
    (ranks, moves) of the pieces whose rank the search fixed.  A piece ``le``
    a target has rank 0, any other 1 + the largest rank in its move, the first
    least-rank trace of ``covers_of(piece)`` (the least by ``key`` among them).
    A trace holding the piece itself never lowers its rank and is skipped.  An
    exact rank answers every budget, a failure within b every budget up to b."""
    ranks, moves, failed = {}, {}, {}

    def search(piece, budget):
        r = ranks.get(piece)
        if r is not None:
            return r if r <= budget else None
        if failed.get(piece, -1) >= budget:
            return None
        if any(le(piece, t) for t in targets):
            ranks[piece] = 0
            return 0
        move, cap = None, budget - 1
        for tr in covers_of(piece) if budget else ():
            if piece in tr:
                continue
            depth = 1
            for q in tr:
                r = search(q, cap)
                if r is None:
                    break
                if r >= depth:
                    depth = r + 1
            else:
                if move is None or depth < budget:
                    budget, move, move_key = depth, tr, key and key(tr)
                    # without a key only a lower rank displaces the first move
                    cap = depth - 1 if key else depth - 2
                elif key and (tr_key := key(tr)) < move_key:
                    move, move_key = tr, tr_key
        if move is None:
            failed[piece] = budget
            return None
        ranks[piece], moves[piece] = budget, move
        return budget

    for p in starts:
        search(p, budget)
    del search      # a self-reference: unbinding it frees the memo on return, not at GC
    return ranks, moves


def _unwind(piece, moves, order):
    """The tree ``moves`` trace out from a piece; a piece without one is a leaf."""
    move = moves.get(piece)
    if move is None:
        return NoetherianTree(piece)
    return NoetherianTree(piece, tuple(_unwind(q, moves, order) for q in order(move)))


def _game_ranks(m: CoveringMonoid, target: Cover, starts):
    """The game's least ranks and moves: leaves lie inside a target member,
    ties go to the least trace by ``cover_key``, and |basis| moves suffice."""
    c = m.carrier    # the pieces are its own, so restrict's checks are skipped
    return _least_ranks(lambda p: [c.meet(b, (p,)) for b in m.basis], target, c.le,
                        len(m.basis), starts, key=lambda u: cover_key(u, c))


def rank(m: CoveringMonoid) -> int:
    """Least stage at which the derivative sequence stabilizes (0 when the
    monoid is already locally fine): one less than the least rank of a
    Noetherian tree witnessing the meet of the basis."""
    c = m.carrier
    ranks, _ = _least_ranks(lazy_view(m), global_meet(m), c.le, len(m.basis) + 1, [c.top])
    if c.top not in ranks:
        if is_locally_fine(m):
            return 0
        raise LocfineError("derivative sequence failed to stabilize")
    return max(ranks[c.top] - 1, 0)


def witness_tree(m: CoveringMonoid, v: Cover):
    """A Noetherian tree establishing membership of v in the closure, or None
    when v is not a member: rooted at top, the children of a node are the
    trace of a basis cover on it, and the leaves refine v.  It is the tree
    that ``solve``'s strategy for the game on v unwinds to."""
    c = m.carrier
    if not isinstance(c, SubsetCarrier):
        raise CarrierMismatchError("witness trees are built over subset carriers")
    v = normalize(v, c)
    if not member(m, v, use_lambda=True):
        return None
    _, moves = _game_ranks(m, v, [c.top])
    return _unwind(c.top, moves, lambda u: oc.sorted_members(u, c))


def check_witness(m: CoveringMonoid, v: Cover, tree: NoetherianTree) -> bool:
    """Structural validity of a witness tree: rooted at top, node covers are
    traces of basis covers, leaves refine v."""
    c = m.carrier
    v = normalize(v, c)
    if tree.node != c.top:
        return False
    if not refines(frozenset(tree.leaves()), v, c):
        return False

    def walk(t):
        if not t.children:
            return True
        kids = frozenset(ch.node for ch in t.children)
        if frozenset().union(*kids) != t.node:
            return False
        if not any(refines(restrict(b, t.node, c), kids, c) for b in m.basis):
            return False
        return all(walk(ch) for ch in t.children)

    return walk(tree)


def bounded_member(covers_of, v, depth: int, *, start, le=None):
    """Depth-bounded search for a Noetherian witness over a lazy structure.

    ``covers_of(piece)`` yields finitely many covers (iterables of pieces) of
    the piece; ``le`` compares pieces (subset containment by default).
    Returns a tree of least depth when one of depth <= depth exists, else
    None; a None answer carries no negative information.
    """
    ranks, moves = _least_ranks(lambda p: map(tuple, covers_of(p)), list(v),
                                le or operator.le, depth, [start])
    return _unwind(start, moves, iter) if start in ranks else None


def lazy_view(m: CoveringMonoid):
    """Adapter exposing a finite monoid through the lazy enumerator contract."""
    c = m.carrier

    def covers_of(piece):
        for b in m.basis:
            tr = c.meet(b, (piece,))
            if tr:
                yield oc.sorted_members(tr, c)

    return covers_of


def is_normal(m: CoveringMonoid) -> bool:
    """Every basis cover is star-refined by a member of the meet closure."""
    c = m.carrier
    if not isinstance(c, SubsetCarrier):
        raise CarrierMismatchError("normality is defined over subset carriers")
    closure = [w for stage in _meet_stages(m.basis, c) for w in stage]
    return all(any(star_refines(w, b, c) for w in closure) for b in m.basis)


def induced_relation_holds(m: CoveringMonoid, piece, family) -> bool:
    """The relation a monoid induces on pieces: some member traces on the
    piece to a refinement of the family."""
    c = m.carrier
    return any(refines(restrict(b, piece, c), normalize(family, c), c)
               for b in m.basis)


def fine_monoid(space: SpaceDescription,
                max_covers: int = DEFAULT_MAX_COVERS) -> CoveringMonoid:
    """The monoid of all open covers of a finite space."""
    space.validate()
    c = SubsetCarrier(space.points)
    opens = sorted((o for o in space.opens if o), key=c.key)
    covers = [anti for anti in oc.antichains(opens, operator.le, max_count=max_covers)
              if frozenset().union(*anti) == space.points]
    if not space.points:
        covers = [frozenset()]
    return CoveringMonoid(c, tuple(covers))
