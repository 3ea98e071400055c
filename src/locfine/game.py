"""The cover-refinement game and its fixpoint solver.

Player I repeatedly plays a monoid cover restricted to the current piece;
Player II selects a member not inside any target member.  Player II wins
infinite plays, so Player I's winning region is a least fixpoint: a piece
wins at rank 0 when it sits inside a target member, and at rank k+1 when
some basis cover traces on it to pieces of rank at most k.  ``solve`` reads
the region, the ranks and the moves (the least trace by ``cover_key`` of
least rank) off ``covering``'s least-rank search, which also builds witness
trees: by Theorem 6 a witness tree is a winning strategy unwound.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import carrier as oc
from .carrier import SubsetCarrier, normalize, refines, restrict
from .covering import CoveringMonoid, NoetherianTree, _game_ranks, _unwind, global_meet
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
    """Player I's winning region and, if the start is in it, a stationary
    winning strategy: the least-rank search run from every piece."""
    ranks, moves = _game_ranks(g.monoid, g.target, g.monoid.carrier.elements())
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
        # the move counts also when it leaves Player II only dominated replies
        replies = [depth + 1 if _dominated(q, g.target) else play(q, depth + 1)
                   for q in oc.sorted_members(strategy.moves[piece], c)]
        return max(replies, default=depth)

    deepest = play(g.start, 0)
    return frozenset(visited), deepest


def unwind_strategy(g: GameSpec, strategy: Strategy) -> NoetherianTree:
    """The Noetherian tree a winning strategy traces out."""
    c = g.monoid.carrier
    return _unwind(g.start, strategy.moves, lambda u: oc.sorted_members(u, c))


def theorem6_check(m: CoveringMonoid, v: frozenset) -> bool:
    """Theorem 6 at every piece: Player I wins from p exactly when the meet of
    the basis restricts on p to a refinement of v (at top: closure membership)."""
    g = GameSpec(m, v)
    c, meet = m.carrier, global_meet(m)
    closed_form = frozenset(p for p in c.elements()
                            if refines(restrict(meet, p, c), g.target, c))
    return solve(g).winning_set == closed_form
