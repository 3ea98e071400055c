"""Game solver: winners, strategies, and agreement with closure membership."""

import random

import pytest

from locfine.carrier import (
    SubsetCarrier,
    all_canonical_covers,
    cover_key,
    fold_meet,
    restrict,
)
from locfine import game
from locfine.covering import (
    CoveringMonoid,
    _least_ranks,
    check_witness,
    global_meet,
    member,
    rank,
    witness_tree,
)
from locfine.errors import NoStrategyError
from locfine.game import (
    GameResult,
    GameSpec,
    Player,
    Strategy,
    extract_strategy,
    replay,
    solve,
    theorem6_check,
    unwind_strategy,
)
from test_acceptance import CORPUS, _all_small_monoids, random_monoid

f = frozenset


def cov(*member_sets):
    return f(f(m) for m in member_sets)


@pytest.fixture
def c3():
    return SubsetCarrier(["0", "1", "2"])


def covering_covers(c):
    return [u for u in all_canonical_covers(c)
            if u and f().union(*u) == c.points]


class TestSolve:
    def test_trivial_target_player_one_wins_without_moving(self, c3):
        m = CoveringMonoid(c3, (cov("01", "12"),))
        result = solve(GameSpec(m, f({c3.top})))
        assert result.winner is Player.I
        assert result.strategy.moves == {}

    def test_basis_cover_won_in_one_move(self, c3):
        u = cov("01", "12")
        m = CoveringMonoid(c3, (u,))
        result = solve(GameSpec(m, u))
        assert result.winner is Player.I
        assert result.strategy.moves[c3.top] == u

    def test_player_two_wins_on_singletons(self, c3):
        m = CoveringMonoid(c3, (cov("01", "12"),))
        v = cov("0", "1", "2")
        result = solve(GameSpec(m, v))
        assert result.winner is Player.II
        assert not member(m, v, use_lambda=True)
        assert c3.top not in result.winning_set

    def test_start_in_winning_set_iff_player_one(self, c3):
        m = CoveringMonoid(c3, (cov("01", "12"),))
        for v in all_canonical_covers(c3):
            res = solve(GameSpec(m, v))
            assert (res.winner is Player.I) == (c3.top in res.winning_set)

    def test_winning_set_matches_per_piece_membership(self, c3):
        # Theorem-6 style, piece by piece: a piece wins exactly when the
        # restriction of the closure meet refines the target there.
        rng = random.Random(23)
        covers = covering_covers(c3)
        for _ in range(12):
            basis = tuple(rng.choice(covers) for _ in range(rng.randint(1, 2)))
            m = CoveringMonoid(c3, basis)
            v = all_canonical_covers(c3)[rng.randrange(19)]
            res = solve(GameSpec(m, v))
            from locfine.covering import global_meet
            meet = global_meet(m)
            for p in c3.elements():
                local = restrict(meet, p, c3)
                expect = all(any(q <= t for t in v) for q in local)
                assert (p in res.winning_set) == expect


class TestStrategy:
    def test_empty_strategy_for_trivial_target(self, c3):
        m = CoveringMonoid(c3, (cov("01", "12"),))
        assert extract_strategy(GameSpec(m, f({c3.top}))).moves == {}

    def test_depth_one_strategy_maps_top(self, c3):
        u = cov("0", "12")
        m = CoveringMonoid(c3, (u,))
        strat = extract_strategy(GameSpec(m, u))
        assert strat.moves[c3.top] == u

    def test_no_strategy_error_for_player_two_games(self, c3):
        m = CoveringMonoid(c3, (cov("01", "12"),))
        with pytest.raises(NoStrategyError):
            extract_strategy(GameSpec(m, cov("0", "1", "2")))

    def test_two_round_strategy_replays_through_winning_pieces(self):
        c = SubsetCarrier(["0", "1", "2"])
        b1 = cov("01", "2")
        b2 = cov("0", "12")
        m = CoveringMonoid(c, (b1, b2))
        v = cov("0", "1", "2")
        g = GameSpec(m, v)
        res = solve(g)
        assert res.winner is Player.I
        assert len(res.strategy.moves) >= 2
        visited, depth = replay(g, res.strategy)
        assert visited <= res.winning_set
        assert depth <= 2

    def test_a_one_move_win_replays_at_depth_one(self, c3):
        u = cov("01", "12")
        g = GameSpec(CoveringMonoid(c3, (u,)), u)
        assert replay(g, solve(g).strategy)[1] == 1

    def test_replays_terminate_within_rank_bound(self, c3):
        rng = random.Random(31)
        covers = covering_covers(c3)
        for _ in range(20):
            basis = tuple(rng.choice(covers) for _ in range(rng.randint(1, 3)))
            m = CoveringMonoid(c3, basis)
            for v in all_canonical_covers(c3)[:12]:
                g = GameSpec(m, v)
                res = solve(g)
                if res.winner is Player.I:
                    _, depth = replay(g, res.strategy)
                    assert depth <= rank(m) + 1


class TestTheorem6:
    def test_trivial_target_both_sides_true(self, c3):
        m = CoveringMonoid(c3, (cov("01", "12"),))
        assert theorem6_check(m, f({c3.top}))

    def test_player_two_fixture_both_sides_false(self, c3):
        m = CoveringMonoid(c3, (cov("01", "12"),))
        assert theorem6_check(m, cov("0", "1", "2"))

    def test_exhaustive_on_two_points(self):
        c = SubsetCarrier(["0", "1"])
        covers = covering_covers(c)
        all_covers = all_canonical_covers(c)
        for i, b1 in enumerate(covers):
            for b2 in covers[i:]:
                m = CoveringMonoid(c, (b1, b2))
                for v in all_covers:
                    assert theorem6_check(m, v)


class TestProductGame:
    def test_two_factor_game_via_product_monoid(self):
        """The rectangular product game is the same engine run over the
        product monoid with a rectangle target."""
        from locfine.covering import fine_monoid
        from locfine.frames import space_discrete, space_sierpinski
        from locfine.products import product_monoid

        pm = product_monoid([fine_monoid(space_sierpinski()),
                             fine_monoid(space_discrete("pq"))])
        pc = pm.carrier
        # target: the finest rectangle cover of the product
        target = f(f({pt}) for pt in pc.points)
        g = GameSpec(pm, target)
        res = solve(g)
        assert theorem6_check(pm, target)
        assert (res.winner is Player.I) == member(pm, target, use_lambda=True)
        if res.winner is Player.I:
            replay(g, res.strategy)


class TestWitnessRoundTrip:
    def test_strategy_unwinds_to_a_valid_witness(self, c3):
        rng = random.Random(37)
        covers = covering_covers(c3)
        for _ in range(15):
            basis = tuple(rng.choice(covers) for _ in range(rng.randint(1, 2)))
            m = CoveringMonoid(c3, basis)
            for v in all_canonical_covers(c3)[:10]:
                g = GameSpec(m, v)
                res = solve(g)
                assert (res.winner is Player.I) == member(m, v, use_lambda=True)
                if res.winner is Player.I:
                    tree = unwind_strategy(g, res.strategy)
                    assert check_witness(m, v, tree)

    def test_player_two_has_escaping_reply_everywhere(self, c3):
        # From any losing piece, every playable cover leaves a member that is
        # neither dominated nor winning.
        m = CoveringMonoid(c3, (cov("01", "12"),))
        v = cov("0", "1", "2")
        res = solve(GameSpec(m, v))
        assert res.winner is Player.II
        losing = [p for p in c3.elements() if p not in res.winning_set]
        for p in losing:
            for b in m.basis:
                tr = restrict(b, p, c3)
                assert any(q not in res.winning_set and
                           not any(q <= t for t in v) for q in tr)


def _reference_solve(g):
    """The winning region by sweeping every piece until no rank changes,
    then each move by re-restricting every basis cover on each winning
    piece."""
    c = g.monoid.carrier

    def dominated(piece):
        return any(piece <= t for t in g.target)

    pieces = list(c.elements())
    ranks = {}
    for p in pieces:
        if dominated(p):
            ranks[p] = 0
    changed = True
    while changed:
        changed = False
        for p in pieces:
            if p in ranks:
                continue
            best = None
            for b in g.monoid.basis:
                tr = restrict(b, p, c)
                sub = [ranks.get(q) for q in tr]
                if all(r is not None for r in sub):
                    depth = 1 + max(sub, default=0)
                    if best is None or depth < best:
                        best = depth
            if best is not None:
                ranks[p] = best
                changed = True
    winning = frozenset(ranks)
    if g.start not in winning:
        return GameResult(Player.II, winning)
    moves = {}
    for p in sorted(winning, key=c.key):
        if dominated(p):
            continue
        candidates = []
        for b in g.monoid.basis:
            tr = restrict(b, p, c)
            sub = [ranks.get(q) for q in tr]
            if all(r is not None for r in sub) and 1 + max(sub, default=0) == ranks[p]:
                candidates.append(tr)
        candidates.sort(key=lambda u: cover_key(u, c))
        moves[p] = candidates[0]
    return GameResult(Player.I, winning, Strategy(moves))


def _random_cover(rng, pts, fewest):
    """A cover of ``pts`` with 1-4 members, each point in one or two."""
    members = [set() for _ in range(rng.randint(fewest, 4))]
    for x in pts:
        for i in rng.sample(range(len(members)), min(rng.randint(1, 2), len(members))):
            members[i].add(x)
    return f(f(m) for m in members if m)


def _random_games(seed, count):
    """Games on 1-8 points with 0-3 basis covers.  The target is the meet of
    the basis (so Player I often needs several moves), a random cover, or a
    few random pieces, and may be empty; the start may be any piece."""
    rng = random.Random(seed)
    for _ in range(count):
        pts = [str(i) for i in range(rng.randint(1, 8))]
        c = SubsetCarrier(pts)
        basis = [_random_cover(rng, pts, 2) for _ in range(rng.randint(0, 3))]
        mode = rng.randrange(3)
        if mode == 0:
            target = fold_meet(basis, c) if basis else f()
        elif mode == 1:
            target = _random_cover(rng, pts, 1)
        else:
            target = f(f(x for x in pts if rng.random() < 0.5)
                       for _ in range(rng.randint(0, 3)))
        start = (f(x for x in pts if rng.random() < 0.7)
                 if rng.random() < 0.5 else None)
        yield GameSpec(CoveringMonoid(c, tuple(basis)), target, start)


def test_solve_matches_sweep_until_stable_reference():
    seen = {"I": 0, "II": 0, "empty target": 0, "non-top start won": 0,
            "two-move plays": 0}
    for g in _random_games(41, 400):
        got, want = solve(g), _reference_solve(g)
        assert got.winner is want.winner
        assert got.winning_set == want.winning_set
        if want.winner is Player.II:
            assert got.strategy is None
            seen["II"] += 1
            continue
        moves = got.strategy.moves
        assert moves == want.strategy.moves
        seen["I"] += 1
        seen["empty target"] += not g.target
        seen["non-top start won"] += g.start != g.monoid.carrier.top
        seen["two-move plays"] += any(q in moves for u in moves.values() for q in u)
    # the corpus reaches both winners, empty targets, non-top starts and
    # strategies that move again after their first move
    assert all(seen.values()), seen


def test_replay_depth_is_the_unwound_strategy_depth():
    depths = []
    for g in _random_games(41, 400):
        res = solve(g)
        if res.winner is Player.I:
            _, depth = replay(g, res.strategy)
            assert depth == unwind_strategy(g, res.strategy).depth(), g
            depths.append(depth)
    assert len(depths) == 231 and max(depths) >= 2


class TestTheorem6EveryPiece:
    """``theorem6_check`` compares the whole winning region with the closed
    form: p wins exactly when the meet of the basis restricts on p to a
    refinement of the target."""

    def test_exhaustive_on_one_to_three_points(self):
        # the corpus of test_theorem6_per_cover
        checked = 0
        for pts in (["0"], ["0", "1"], ["0", "1", "2"]):
            c, monoids = _all_small_monoids(pts, max_basis=2)
            for m in monoids:
                for v in all_canonical_covers(c):
                    assert theorem6_check(m, v), (m, v)
                    checked += 1
        assert checked == 2 * 2 + 4 * 5 + 46 * 19

    def test_seeded_on_four_to_seven_points(self):
        sizes = set()
        for g in _random_games(67, 300):
            n = len(g.monoid.carrier.points)
            if 4 <= n <= 7:
                assert theorem6_check(g.monoid, g.target), g
                sizes.add(n)
        assert sizes == {4, 5, 6, 7}

    def test_a_region_wrong_off_the_start_is_caught(self, c3, monkeypatch):
        m = CoveringMonoid(c3, (cov("01", "2"), cov("0", "12")))
        v = cov("0", "1", "2")
        assert theorem6_check(m, v)
        right = solve(GameSpec(m, v))
        lost = f({"0", "1"})
        assert lost in right.winning_set and right.winner is Player.I
        monkeypatch.setattr(game, "solve", lambda g: GameResult(
            right.winner, right.winning_set - {lost}, right.strategy))
        assert not theorem6_check(m, v)


class TestOneSearch:
    """``solve``, ``witness_tree`` and ``rank`` read one least-rank search."""

    def test_witness_tree_is_the_unwound_strategy(self):
        games = [GameSpec(m, v) for pts in (["0", "1"], ["0", "1", "2"])
                 for c, monoids in [_all_small_monoids(pts, max_basis=2)]
                 for m in monoids for v in all_canonical_covers(c)]
        games += [GameSpec(g.monoid, g.target) for g in _random_games(41, 400)]
        compared = 0
        for g in games:
            if not member(g.monoid, g.target):
                assert witness_tree(g.monoid, g.target) is None
                continue
            res = solve(g)
            assert witness_tree(g.monoid, g.target) == unwind_strategy(g, res.strategy)
            compared += 1
        assert compared == 475

    def test_rank_is_the_unwound_depth_less_one(self):
        corpus = CORPUS + [random_monoid(random.Random(5000 + i)) for i in range(1500)]
        for m in corpus:
            g = GameSpec(m, global_meet(m))
            tree = unwind_strategy(g, solve(g).strategy)
            assert rank(m) == max(tree.depth() - 1, 0), m


def test_the_search_keys_each_trace_at_most_once():
    """A tie compares the new trace's key with the current move's, which is
    kept, so no trace is keyed twice.  Traces are handed out as fresh lists,
    whose identities stay distinct while ``keyed`` holds them."""
    rng = random.Random(26)
    calls = 0
    for _ in range(200):
        pts = [str(i) for i in range(rng.randint(3, 6))]
        c = SubsetCarrier(pts)
        m = CoveringMonoid(c, tuple(_random_cover(rng, pts, 2)
                                    for _ in range(rng.randint(3, 6))))
        keyed = []

        def key(u):
            keyed.append(u)
            return cover_key(u, c)

        _least_ranks(lambda p: [list(c.meet(b, (p,))) for b in m.basis],
                     global_meet(m), c.le, len(m.basis), c.class_reps(), key)
        assert len({id(u) for u in keyed}) == len(keyed)
        calls += len(keyed)
    assert calls > 1000
