import gc
import hashlib
import json
import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from caching_game.bestresponse import (
    TreePolicy,
    _BestResponse,
    _placement_tables,
    best_response_value,
    effective_budget,
)
from caching_game.core import GameConfig, HiderMixed, HiderPure, make_hider, relabelings
from caching_game.enumeration import Grid, enumerate_grid_hiders
from caching_game.solver import _payoff_column
from caching_game.strategies import LEMMA_GRIDS, lemma_config, lemma_hider

from oracles import brute_best_response, list_best_response, step_simulate


def _mix_to_entries(mu: HiderMixed, m: int):
    return [(hp.scaled(m), p) for hp, p in mu.entries]


def test_effective_budget_floor():
    assert effective_budget(GameConfig(4, 2, F(11, 6)), Grid(6)) == 11
    assert effective_budget(GameConfig(4, 2, F(11, 6)), Grid(2)) == 3
    assert effective_budget(GameConfig(2, 2, F(3, 2)), Grid(2)) == 3


class TestAgainstBruteForce:
    """Jump moves, folding and consistency-set memoisation vs naive recursion."""

    def check(self, mu, cfg, grid):
        value, policy = best_response_value(mu, cfg, grid)
        budget = effective_budget(cfg, grid)
        naive = brute_best_response(
            _mix_to_entries(mu, grid.m), cfg.n, grid.m, budget
        )
        assert value == naive
        # the extracted policy must realize the value against the mix
        achieved = sum(
            p * (1 if policy.simulate(hp.scaled(grid.m)) else 0)
            for hp, p in mu.entries
        )
        assert achieved == value

    def test_single_pure_strategy(self):
        cfg = GameConfig(2, 2, F(3, 2))
        mu = HiderMixed.uniform([make_hider((F(1, 2), F(1)), ())])
        self.check(mu, cfg, Grid(2))

    def test_symmetric_pair(self):
        cfg = GameConfig(2, 2, F(3, 2))
        mu = HiderMixed.uniform(
            [make_hider((F(1, 2), F(1)), ()), make_hider((), (F(1, 2), F(1)))]
        )
        self.check(mu, cfg, Grid(2))

    def test_full_grid_uniform(self):
        cfg = GameConfig(2, 2, F(3, 2))
        support = [hp for hp, _ in enumerate_grid_hiders(cfg, Grid(2))]
        self.check(HiderMixed.uniform(support), cfg, Grid(2))

    def test_random_mixes(self):
        rng = random.Random(20250814)
        for n, k, m, h in [(2, 2, 2, F(3, 2)), (3, 2, 2, F(2)), (2, 2, 3, F(4, 3))]:
            cfg = GameConfig(n, k, h)
            pool = [hp for hp, _ in enumerate_grid_hiders(cfg, Grid(m))]
            for _ in range(3):
                support = rng.sample(pool, min(4, len(pool)))
                weights = [F(rng.randint(1, 5)) for _ in support]
                total = sum(weights)
                mu = HiderMixed(
                    tuple((hp, w / total) for hp, w in zip(support, weights))
                )
                self.check(mu, cfg, Grid(m))


class TestSemanticsSwitches:
    def test_jump_equals_single_step(self):
        # the DP jumps to the next possible depth; the oracle digs one step
        # at a time, so any move the jump skips would show up here
        cfg = GameConfig(2, 2, F(3, 2))
        support = [hp for hp, _ in enumerate_grid_hiders(cfg, Grid(2))]
        weights = [F(w) for w in range(1, len(support) + 1)]
        skewed = HiderMixed(tuple((hp, w / sum(weights)) for hp, w in zip(support, weights)))
        assert not skewed.is_location_symmetric()
        for mu in (HiderMixed.uniform(support), skewed):
            value, _ = best_response_value(mu, cfg, Grid(2), extract_policy=False)
            naive = brute_best_response(_mix_to_entries(mu, 2), cfg.n, 2, 3)
            assert value == naive

    def test_fold_requires_symmetry_to_be_safe(self):
        # the lemma mix is location-symmetric, so the DP folds; the oracle
        # gives the same value folded and unfolded
        cfg = GameConfig(4, 2, F(11, 6))
        mu = lemma_hider(2)
        assert mu.is_location_symmetric()
        value, _ = best_response_value(mu, cfg, Grid(6), extract_policy=False)
        assert value == list_best_response(mu, cfg, Grid(6), fold=True)[0]
        assert value == list_best_response(mu, cfg, Grid(6), fold=False)[0]

    def test_asymmetric_mix_is_not_folded(self):
        # six-strategy uniform supports: folding one that is not
        # location-symmetric can give a wrong value, so the DP leaves
        # folding off for it and matches the unfolded oracle
        rng = random.Random(3231)
        cfg, grid = GameConfig(3, 2, F(1)), Grid(3)
        pool = _pool(3, 2, 3)
        asymmetric = folded_wrong = 0
        for _ in range(30):
            mu = HiderMixed.uniform(rng.sample(pool, 6))
            if mu.is_location_symmetric():
                continue
            asymmetric += 1
            value, _ = best_response_value(mu, cfg, grid)
            want, _ = list_best_response(mu, cfg, grid, fold=False)
            assert value == want
            folded_wrong += list_best_response(mu, cfg, grid, fold=True)[0] != want
        # the draw holds mixes that folding gets wrong
        assert asymmetric > 0 and folded_wrong > 0

    def test_invalid_support_rejected(self):
        cfg = GameConfig(2, 2, F(3, 2))
        bad = make_hider((F(3, 4),), (F(1, 2),))
        with pytest.raises(ValueError, match="invalid support"):
            best_response_value(HiderMixed.uniform([bad]), cfg, Grid(4))


def _prime_at_least(n: int) -> int:
    while any(n % d == 0 for d in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


def _coprime_mix(rng, support):
    """A mix over support whose denominators are distinct primes above 10^6.

    Every entry but the last gets probability a/q for its own prime q; the
    last takes the remainder, so the lcm of the denominators is the product
    of the primes.
    """
    primes = []
    candidate = rng.randint(10**6, 2 * 10**6)
    for _ in support[1:]:
        candidate = _prime_at_least(candidate + 1)
        primes.append(candidate)
    probs = [F(rng.randint(1, q // len(support)), q) for q in primes]
    probs.append(1 - sum(probs))
    return HiderMixed(tuple(zip(support, probs)))


class TestIntegerMasses:
    """Masses are integers scaled by the lcm of the mix's denominators.

    With four or more prime denominators above 10^6 that lcm is past 2^64,
    so a fixed-width or float shortcut would lose exactness here.
    """

    GAMES = [(2, 2, F(3, 2)), (3, 2, F(2)), (2, 3, F(4, 3)), (3, 3, F(2))]

    def mixes(self):
        rng = random.Random(7)
        for n, m, h in self.GAMES:
            cfg = GameConfig(n, 2, h)
            pool = [hp for hp, _ in enumerate_grid_hiders(cfg, Grid(m))]
            for _ in range(2):
                support = rng.sample(pool, rng.randint(5, min(8, len(pool))))
                yield _coprime_mix(rng, support), cfg, Grid(m)

    def test_scale_exceeds_64_bits(self):
        for mu, _, _ in self.mixes():
            assert not mu.is_location_symmetric()
            assert math.lcm(*(p.denominator for _, p in mu.entries)) > 2**64

    def test_value_matches_brute_force(self):
        for mu, cfg, grid in self.mixes():
            value, _ = best_response_value(mu, cfg, grid, extract_policy=False)
            budget = effective_budget(cfg, grid)
            assert value == brute_best_response(
                _mix_to_entries(mu, grid.m), cfg.n, grid.m, budget
            )

    def test_policy_replay_realizes_value(self):
        for mu, cfg, grid in self.mixes():
            value, policy = best_response_value(mu, cfg, grid)
            achieved = sum(
                (p for hp, p in mu.entries if policy.simulate(hp.scaled(grid.m))),
                F(0),
            )
            assert achieved == value

    def test_fold_agrees_on_uniform_mix(self):
        for n, m, h in self.GAMES:
            cfg = GameConfig(n, 2, h)
            support = [hp for hp, _ in enumerate_grid_hiders(cfg, Grid(m))]
            mu = HiderMixed.uniform(support)
            assert mu.is_location_symmetric()
            value, _ = best_response_value(mu, cfg, Grid(m), extract_policy=False)
            assert value == list_best_response(mu, cfg, Grid(m), fold=True)[0]
            assert value == list_best_response(mu, cfg, Grid(m), fold=False)[0]

    def test_policy_bytes_pinned(self):
        # sha256 of one random mix's policy, as produced by the Fraction-mass
        # DP; the integer masses must pick the same move in every state
        rng = random.Random(11)
        cfg = GameConfig(3, 2, F(2))
        pool = [hp for hp, _ in enumerate_grid_hiders(cfg, Grid(4))]
        mu = _coprime_mix(rng, pool)
        _, policy = best_response_value(mu, cfg, Grid(4))
        text = json.dumps(policy.to_json_obj(), sort_keys=True)
        digest = "2a79965fc40bf6ecb3e181cfa243098101fd73649253cbcb777f764afb385fda"
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def _pool(n: int, k: int, m: int):
    return [hp for hp, _ in enumerate_grid_hiders(GameConfig(n, k, F(1)), Grid(m))]


def _stacked(hp) -> bool:
    """True when two objects share one (location, depth)."""
    return any(len(set(s)) < len(s) for s in hp.sets)


def _weighted(support, weights):
    total = sum(weights)
    return HiderMixed(tuple((hp, F(w, total)) for hp, w in zip(support, weights)))


class TestAgainstListOracle:
    """The bitmask DP against the list-based DP it replaced, exactly.

    The oracle keeps one list of support indices per state and recurses on
    every state; the package's DP uses bitmasks, returns a finished state's
    mass without a memo entry and settles the last object by a knapsack.
    Value and every recorded move must agree with the unfolded oracle and,
    for a location-symmetric mix (which the package's DP folds), with the
    folded one too.
    """

    # (n, k, grid m): n = 2..5, each with k = 1, 2 and 3
    GAMES = [
        (2, 1, 6), (2, 2, 5), (2, 3, 4),
        (3, 1, 6), (3, 2, 4), (3, 3, 3),
        (4, 1, 5), (4, 2, 4), (4, 3, 3),
        (5, 1, 4), (5, 2, 3), (5, 3, 2),
    ]

    def check(self, mu, cfg, grid):
        value, policy = best_response_value(mu, cfg, grid)
        for fold in (False, True) if mu.is_location_symmetric() else (False,):
            want_value, want_policy = list_best_response(mu, cfg, grid, fold)
            assert value == want_value
            assert policy.actions == want_policy.actions
        return value

    def budgets(self, rng, n, m):
        """Budget 0, the full budget n*m, and random ones in between."""
        return [F(1, 2 * m), F(n)] + [F(rng.randint(1, n * m), m) for _ in range(3)]

    def test_random_mixes(self):
        rng = random.Random(1103)
        for n, k, m in self.GAMES:
            pool = _pool(n, k, m)
            for h in self.budgets(rng, n, m):
                cfg = GameConfig(n, k, h)
                support = rng.sample(pool, rng.randint(1, min(len(pool), 70)))
                weights = [rng.randint(1, 9) for _ in support]
                self.check(_weighted(support, weights), cfg, Grid(m))
                # every mass equal, on a support that need not be symmetric
                self.check(HiderMixed.uniform(support), cfg, Grid(m))

    def test_uniform_mixes_fold_on_and_off(self):
        rng = random.Random(1109)
        for n, k, m in self.GAMES:
            mu = HiderMixed.uniform(_pool(n, k, m))
            assert mu.is_location_symmetric()
            for h in self.budgets(rng, n, m):
                cfg = GameConfig(n, k, h)
                self.check(mu, cfg, Grid(m))

    def test_stacked_pairs(self):
        rng = random.Random(1117)
        for n, k, m in self.GAMES:
            if k == 1:
                continue
            pool = _pool(n, k, m)
            stacked = [hp for hp in pool if _stacked(hp)]
            assert stacked
            for h in self.budgets(rng, n, m)[1:]:
                cfg = GameConfig(n, k, h)
                others = rng.sample(pool, min(len(pool), 8))
                support = list(dict.fromkeys(stacked + others))
                weights = [rng.randint(1, 9) for _ in support]
                self.check(_weighted(support, weights), cfg, Grid(m))
                self.check(HiderMixed.uniform(stacked), cfg, Grid(m))

    def test_budget_zero_and_full(self):
        rng = random.Random(1123)
        for n, k, m in self.GAMES:
            pool = _pool(n, k, m)
            weights = [rng.randint(1, 9) for _ in pool]
            mu = _weighted(pool, weights)
            assert self.check(mu, GameConfig(n, k, F(0)), Grid(m)) == 0
            assert self.check(mu, GameConfig(n, k, F(n)), Grid(m)) == 1

    def test_supports_past_64_and_1000_strategies(self):
        cfg = GameConfig(3, 2, F(1))
        pool = _pool(3, 2, 20)
        assert len(pool) == 1200
        rng = random.Random(1129)
        weights = [rng.randint(1, 1000) for _ in pool]
        self.check(_weighted(pool, weights), cfg, Grid(20))
        self.check(HiderMixed.uniform(pool), GameConfig(3, 2, F(3, 2)), Grid(20))
        support = rng.sample(_pool(4, 2, 6), 100)
        weights = [rng.randint(1, 1000) for _ in support]
        self.check(_weighted(support, weights), GameConfig(4, 2, F(3, 2)), Grid(6))

    @pytest.mark.parametrize("lemma_id", [2, 3, 4, 5])
    def test_lemma_mixes(self, lemma_id):
        cfg = lemma_config(lemma_id)
        grid = Grid(LEMMA_GRIDS[lemma_id])
        self.check(lemma_hider(lemma_id), cfg, grid)


class TestJumpReplay:
    """TreePolicy's walk, one jump per move, against the step-by-step
    replay it replaced, on every placement of small games: policies
    extracted from random and uniform mixes and the fallback-only policy,
    each replayed at budgets 0, 1, its own and the full n * m. The walk
    runs on one placement at a time (simulate) and over the whole
    placement set at once (win_mask, and the solver's payoff columns)."""

    # (n, k, grid m): n = 2..4, each with k = 1, 2 and 3
    GAMES = [
        (2, 1, 6), (2, 2, 5), (2, 3, 4),
        (3, 1, 6), (3, 2, 4), (3, 3, 3),
        (4, 1, 5), (4, 2, 4), (4, 3, 3),
    ]

    def replays(self):
        """(game, its grid strategies, a policy replayed at one budget) for
        every game, policy and budget."""
        rng = random.Random(1151)
        for n, k, m in self.GAMES:
            pool = _pool(n, k, m)
            full = n * m
            policies = [TreePolicy(n, m, full)]
            for budget in (0, 1, rng.randint(2, full - 1), full):
                cfg = GameConfig(n, k, F(budget, m))
                support = rng.sample(pool, rng.randint(1, min(len(pool), 40)))
                weights = [rng.randint(1, 9) for _ in support]
                for mu in (_weighted(support, weights), HiderMixed.uniform(pool)):
                    policies.append(best_response_value(mu, cfg, Grid(m))[1])
            for policy in policies:
                for budget in (0, 1, policy.budget, full):
                    yield (n, k, m), pool, TreePolicy(n, m, budget, policy.actions)

    def test_jump_replay_equals_step_replay(self):
        outcomes = set()
        for _, pool, replay in self.replays():
            placements = [hp.scaled(replay.m) for hp in pool]
            wins = [replay.simulate(steps) for steps in placements]
            assert wins == [step_simulate(replay, steps) for steps in placements]
            outcomes.update(wins)
        assert outcomes == {False, True}

    def test_set_walk_equals_step_replay(self):
        for (n, k, m), pool, replay in self.replays():
            placements = [hp.scaled(m) for hp in pool]
            at, hit = _placement_tables(placements, n, m)
            wins = replay.win_mask(at, hit, (1 << len(placements)) - 1, k)
            got = [bool(wins >> i & 1) for i in range(len(placements))]
            assert got == [step_simulate(replay, steps) for steps in placements]

    @staticmethod
    def orbit_walk(n, k, m):
        """Each row's orbit of step placements, and the walk, orbit bitmasks
        and scale that _payoff_column takes over them."""
        rows = enumerate_grid_hiders(GameConfig(n, k, F(1)), Grid(m), reduce_symmetry=True)
        orbits = [[hp.scaled(m) for hp in relabelings(rep)] for rep, _ in rows]
        labeled = [steps for orbit in orbits for steps in orbit]
        masks, offset = [], 0
        for orbit in orbits:
            masks.append(((1 << len(orbit)) - 1) << offset)
            offset += len(orbit)
        walk = (*_placement_tables(labeled, n, m), (1 << len(labeled)) - 1, k)
        return orbits, walk, masks, math.lcm(*map(len, orbits))

    def test_payoff_columns_equal_step_replay_counts(self):
        games = {}
        for game, _, replay in self.replays():
            if game not in games:
                games[game] = self.orbit_walk(*game)
            orbits, walk, masks, scale = games[game]
            want = [
                sum(step_simulate(replay, steps) for steps in orbit) * (scale // len(orbit))
                for orbit in orbits
            ]
            assert _payoff_column(replay, walk, masks, scale) == want


class TestPolicyPins:
    """sha256 of TreePolicy.to_json_obj() for two of the benchmark's mixes.

    The digests were taken from the list-based DP, before the bitmask one
    replaced it; every recorded move must stay the same.
    """

    @pytest.mark.parametrize(
        "n,h,m,kind,digest",
        [
            (5, F(2), 6, "random",
             "6469b4238d59498e68015200ac9d5c3e62698c3e18a5907682d76bb38183632d"),
            (4, F(3, 2), 8, "uniform",
             "ae8d66daf7c6add227a8d50508c3f67e681d0e5ce046d4826dcca47c7f922c44"),
        ],
    )
    def test_policy_bytes_pinned(self, n, h, m, kind, digest):
        pool = _pool(n, 2, m)
        if kind == "uniform":
            mu = HiderMixed.uniform(pool)
        else:
            rng = random.Random(2718)
            mu = _weighted(pool, [rng.randint(1, 1000) for _ in pool])
        _, policy = best_response_value(mu, GameConfig(n, 2, h), Grid(m))
        text = json.dumps(policy.to_json_obj(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def _random_mix(n: int, k: int, m: int, seed: int) -> HiderMixed:
    """Every grid placement, weighted as the benchmark's random mixes are."""
    pool = _pool(n, k, m)
    rng = random.Random(seed)
    return _weighted(pool, [rng.randint(1, 1000) for _ in pool])


class TestMemoRule:
    """Which states get a memo entry.

    A folding DP keeps one for every state with objects left, since
    relabeled twins meet one-left states again: recomputing them made the
    folded uniform-mix best responses about 25% slower. Unfolded, only a
    find reaches a one-left state and no move leaves it, so with two
    objects it never recurs, and it gets no entry. The entries are a cache
    only, so values and policies are the same either way.
    """

    def dp(self, mu, cfg, grid):
        """The DP after the value and the policy, as best_response_value runs it."""
        solver = _BestResponse(mu, cfg, grid, fold=mu.is_location_symmetric())
        solver.value((0,) * cfg.n, ((),) * cfg.n, solver.full)
        solver.extract_policy()
        return solver

    @pytest.mark.parametrize(
        "n,k,h,m", [(5, 2, F(2), 6), (4, 3, F(2), 4)], ids=["n5-k2", "n4-k3"]
    )
    def test_unfolded_dp_keeps_no_one_left_state(self, n, k, h, m):
        mu = _random_mix(n, k, m, 2718)
        solver = self.dp(mu, GameConfig(n, k, h), Grid(m))
        assert not solver.fold and solver.memo
        assert all(sum(map(len, found)) < k - 1 for _, found in solver.memo)

    def test_folded_dp_keeps_its_one_left_states(self):
        mu = HiderMixed.uniform(_pool(5, 2, 6))
        solver = self.dp(mu, GameConfig(5, 2, F(2)), Grid(6))
        assert solver.fold
        assert len(solver.memo) == 576
        assert any(sum(len(f) for _, f in key) == 1 for key in solver.memo)

    def test_recurring_one_left_states_match_the_list_oracle(self, monkeypatch):
        # with three objects two find orders reach one state: 360 of the
        # value pass's 3,492 one-left states are met again and recomputed
        calls = []
        last_object = _BestResponse._last_object

        def counted(self, dug, found, budget_left):
            calls.append((dug, found))
            return last_object(self, dug, found, budget_left)

        monkeypatch.setattr(_BestResponse, "_last_object", counted)
        mu = _random_mix(4, 3, 4, 2718)
        cfg, grid = GameConfig(4, 3, F(2)), Grid(4)
        assert not mu.is_location_symmetric()
        value, _ = best_response_value(mu, cfg, grid, extract_policy=False)
        assert (len(calls), len(calls) - len(set(calls))) == (3_492, 360)
        want_value, want_policy = list_best_response(mu, cfg, grid, fold=False)
        assert value == want_value
        assert best_response_value(mu, cfg, grid)[1].actions == want_policy.actions

    def test_unfolded_best_response_memory_peak(self):
        # tracemalloc peak after gc.collect(), CPython 3.11.7: about 0.24 MB;
        # a memo entry for every one-left state took it to about 0.76 MB
        mu = _random_mix(4, 2, 5, 2718)
        cfg, grid = GameConfig(4, 2, F(2)), Grid(5)
        gc.collect()
        tracemalloc.start()
        try:
            best_response_value(mu, cfg, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400_000


class TestMonotonicity:
    def test_more_budget_never_hurts(self):
        cfg_small = GameConfig(2, 2, F(1))
        cfg_big = GameConfig(2, 2, F(3, 2))
        support = [hp for hp, _ in enumerate_grid_hiders(cfg_small, Grid(2))]
        mu = HiderMixed.uniform(support)
        v_small, _ = best_response_value(mu, cfg_small, Grid(2), extract_policy=False)
        v_big, _ = best_response_value(mu, cfg_big, Grid(2), extract_policy=False)
        assert v_small <= v_big

    def test_finer_searcher_grid_never_hurts(self):
        # the mix stays fixed; a finer grid only adds Searcher stopping points
        cfg = GameConfig(2, 2, F(3, 2))
        mu = HiderMixed.uniform(
            [make_hider((F(1, 2), F(1)), ()), make_hider((F(1, 2),), (F(1, 2),))]
        )
        v2, _ = best_response_value(mu, cfg, Grid(2), extract_policy=False)
        v4, _ = best_response_value(mu, cfg, Grid(4), extract_policy=False)
        assert v4 >= v2


class TestLemmaMixes:
    """The four published Hider mixes cap the Searcher exactly."""

    @pytest.mark.parametrize(
        "lemma_id,expected",
        [(2, F(1, 4)), (3, F(9, 20)), (4, F(9, 40)), (5, F(7, 30))],
    )
    def test_best_response_equals_published_value(self, lemma_id, expected):
        cfg = lemma_config(lemma_id)
        mu = lemma_hider(lemma_id)
        value, _ = best_response_value(
            mu, cfg, Grid(LEMMA_GRIDS[lemma_id]), extract_policy=False
        )
        assert value == expected


class TestTreePolicy:
    def test_json_round_trip(self):
        cfg = GameConfig(2, 2, F(3, 2))
        mu = HiderMixed.uniform([make_hider((F(1, 2), F(1)), ())])
        _, policy = best_response_value(mu, cfg, Grid(2))
        obj = policy.to_json_obj()
        obj["moves"] = [TreePolicy.move_from_json_obj(move) for move in obj["moves"]]
        again = TreePolicy.from_json_obj(obj)
        assert again.actions == policy.actions
        for hp, _ in mu.entries:
            assert again.simulate(hp.scaled(2)) == policy.simulate(hp.scaled(2))

    @pytest.mark.parametrize(
        "state,move",
        [
            (((0, 0), ((), ())), (0, 0)),  # the target is the dug depth
            (((1, 0), ((), ())), (0, 1)),
            (((1, 0), ((), ())), (0, 0)),  # above the dug depth
            (((0, 0), ((), ())), (0, 3)),  # below the grid
            (((0, 0), ((), ())), (2, 1)),  # no such location
            (((0, 0), ((), ())), (-1, 1)),
            (((0,), ((),)), (1, 1)),  # a state for one location
        ],
    )
    def test_a_move_that_cannot_advance_is_refused(self, state, move):
        # simulate would ask for such a move forever; loading refuses it, so
        # this test fails, not hangs, without the check
        obj = {"n": 2, "m": 2, "budget": 2, "moves": [(state, move)]}
        with pytest.raises(ValueError, match="cannot advance"):
            TreePolicy.from_json_obj(obj)

    def test_the_constructor_refuses_a_move_that_cannot_advance(self):
        # a policy built directly, not loaded, holding the move simulate
        # would ask for forever; simulate is never called, so this test
        # fails, not hangs, without the check
        with pytest.raises(ValueError, match="cannot advance"):
            TreePolicy(2, 2, 2, {((0, 0), ((), ())): (0, 0)})
