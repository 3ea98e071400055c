"""The cover-refinement game and its fixpoint solver.

Player I repeatedly plays a monoid cover restricted to the current piece;
Player II selects a member not inside any target member.  Player II wins
infinite plays, so Player I's winning region is a least fixpoint: a piece
wins at rank 0 when it sits inside a target member, and at rank k+1 when
some basis cover traces on it to pieces of rank at most k.  A useful trace
on a piece consists of strict subsets of it, so one pass over the pieces by
size reaches the fixpoint.  The stationary strategy plays, at each winning
piece, the least trace of least rank.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import carrier as oc
from .carrier import SubsetCarrier, cover_key, normalize, restrict
from .covering import CoveringMonoid, NoetherianTree, member
from .errors import CarrierMismatchError, NoStrategyError


class Player(enum.Enum):
    I = "I"
    II = "II"


@dataclass(frozen=True)
class GameSpec:
    monoid: CoveringMonoid
    target: frozenset
    start: frozenset = None

    def __post_init__(self):
        c = self.monoid.carrier
        if not isinstance(c, SubsetCarrier):
            raise CarrierMismatchError("games are played over subset carriers")
        object.__setattr__(self, "target", normalize(self.target, c))
        start = self.start if self.start is not None else c.top
        c.check_element(start)
        object.__setattr__(self, "start", start)


@dataclass
class Strategy:
    """Stationary strategy: winning piece -> the trace of a basis cover."""

    moves: dict


@dataclass
class GameResult:
    winner: Player
    winning_set: frozenset
    strategy: Strategy = None


def _dominated(piece, target):
    return any(piece <= t for t in target)


def solve(g: GameSpec) -> GameResult:
    """Compute Player I's winning region and, if the start is in it, a
    stationary winning strategy.

    One pass over the pieces in size order suffices: the trace of a basis
    cover on a piece p is either {p}, which can never help, or made only of
    strict subsets of p, whose ranks are already final.  So each rank, and
    the least move reaching it, is final when it is assigned.
    """
    c = g.monoid.carrier
    ranks = {}
    moves = {}
    for p in c.elements():
        if _dominated(p, g.target):
            ranks[p] = 0
            continue
        options = []
        for b in g.monoid.basis:
            tr = restrict(b, p, c)
            if all(q in ranks for q in tr):
                depth = 1 + max((ranks[q] for q in tr), default=0)
                options.append((depth, cover_key(tr, c), tr))
        if options:
            ranks[p], _, moves[p] = min(options)
    winning = frozenset(ranks)
    if g.start not in winning:
        return GameResult(Player.II, winning)
    return GameResult(Player.I, winning, Strategy(moves))


def extract_strategy(g: GameSpec) -> Strategy:
    """The stationary strategy of a game won by Player I."""
    result = solve(g)
    if result.winner is not Player.I:
        raise NoStrategyError("Player I has no winning strategy for this game")
    return result.strategy


def replay(g: GameSpec, strategy: Strategy):
    """Play the strategy against every Player II reply.

    Returns (visited pieces, maximum number of moves).  Raises if a play
    fails to terminate within one move per piece, which a correct stationary
    strategy never does.
    """
    c = g.monoid.carrier
    visited = set()
    limit = 2 ** len(c.points) + 1

    def play(piece, depth):
        visited.add(piece)
        if depth > limit:
            raise AssertionError("strategy replay exceeded the move budget")
        if _dominated(piece, g.target):
            return depth
        cover = strategy.moves[piece]
        longest = depth
        for q in oc.sorted_members(cover, c):
            if _dominated(q, g.target):
                continue
            longest = max(longest, play(q, depth + 1))
        return longest

    deepest = play(g.start, 0)
    return frozenset(visited), deepest


def unwind_strategy(g: GameSpec, strategy: Strategy) -> NoetherianTree:
    """The Noetherian tree a winning strategy traces out."""
    c = g.monoid.carrier

    def build(piece):
        if _dominated(piece, g.target):
            return NoetherianTree(piece)
        cover = strategy.moves[piece]
        return NoetherianTree(
            piece, tuple(build(q) for q in oc.sorted_members(cover, c)))

    return build(g.start)


def theorem6_check(m: CoveringMonoid, v: frozenset) -> bool:
    """Whether the game verdict for v coincides with closure membership."""
    g = GameSpec(m, v)
    wins = solve(g).winner is Player.I
    return wins == member(m, v, use_lambda=True)
