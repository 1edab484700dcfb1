import json
import random
from fractions import Fraction as F

import pytest

from caching_game import solver
from caching_game.bestresponse import TreePolicy, best_response_value, effective_budget
from caching_game.core import GameConfig, relabelings
from caching_game.enumeration import Grid, enumerate_grid_hiders
from caching_game.solver import (
    SolverError,
    _simplex_max,
    solve_game,
    solve_game_cached,
    solve_matrix_game,
    solution_from_json,
    solution_to_json,
)

import oracles
from oracles import brute_hiders, matrix_game, simplex_max


class TestMatrixGame:
    def test_matching_pennies(self):
        value, rows, cols = solve_matrix_game([[F(1), F(0)], [F(0), F(1)]])
        assert value == F(1, 2)
        assert rows == [F(1, 2), F(1, 2)]
        assert cols == [F(1, 2), F(1, 2)]

    def test_skewed_two_by_two(self):
        value, rows, cols = solve_matrix_game([[F(3), F(1)], [F(2), F(4)]])
        assert value == F(5, 2)
        assert cols == [F(3, 4), F(1, 4)]

    def test_rock_paper_scissors_win_counts(self):
        m = [
            [F(1, 2), F(1), F(0)],
            [F(0), F(1, 2), F(1)],
            [F(1), F(0), F(1, 2)],
        ]
        value, rows, cols = solve_matrix_game(m)
        assert value == F(1, 2)
        assert rows == [F(1, 3)] * 3
        assert cols == [F(1, 3)] * 3

    def test_pure_saddle(self):
        # row 2 dominates for the minimizing row player, then column 2 wins
        value, rows, cols = solve_matrix_game([[F(1, 2), F(1)], [F(1, 4), F(3, 4)]])
        assert value == F(3, 4)
        assert rows[1] == F(1)
        assert cols[1] == F(1)

    def test_certificate_property(self):
        matrix = [
            [F(2, 5), F(3, 5), F(1, 5)],
            [F(1, 2), F(1, 10), F(7, 10)],
        ]
        value, rows, cols = solve_matrix_game(matrix)
        nrow, ncol = 2, 3
        for j in range(ncol):
            assert sum(rows[i] * matrix[i][j] for i in range(nrow)) <= value
        for i in range(nrow):
            assert sum(cols[j] * matrix[i][j] for j in range(ncol)) >= value


def _degenerate(rng, n_rows):
    """Random rational rows, drawn from a small pool so that ratios tie,
    then made degenerate: a duplicated column, a duplicated row, or every
    row equal to the first."""
    pool = [F(rng.randint(-3, 6), rng.choice((1, 2, 3, 6))) for _ in range(4)]
    n_cols = rng.randint(1, 5)
    rows = [[rng.choice(pool) for _ in range(n_cols)] for _ in range(n_rows)]
    kind = rng.randrange(4)
    if kind == 1:
        j = rng.randrange(n_cols)
        rows = [row + [row[j]] for row in rows]
    elif kind == 2:
        rows.append(list(rng.choice(rows)))
    elif kind == 3:
        rows = [list(rows[0]) for _ in rows]
    return rows


def _result_or_error(fn, *args):
    try:
        return fn(*args)
    except (SolverError, ValueError) as exc:
        return str(exc)


def _slack_returns(pivots, n_vars) -> bool:
    """True when some slack leaves the basis and later enters it again."""
    left = set()
    for enter, leave in pivots:
        if enter in left:
            return True
        if leave >= n_vars:
            left.add(leave)
    return False


class TestSimplexAgainstOracle:
    """The integer tableau against the plain Fraction tableau it replaced:
    the same pivots reach the same vertex and the same duals."""

    def test_random_lps(self):
        rng = random.Random(20150601)
        unbounded = 0
        for _ in range(300):
            A = _degenerate(rng, rng.randint(1, 5))
            b = [rng.choice((F(0), F(1), F(rng.randint(0, 5), rng.randint(1, 4)))) for _ in A]
            c = [F(rng.randint(-2, 4), rng.randint(1, 3)) for _ in A[0]]
            ours = _result_or_error(_simplex_max, A, b, c)
            assert ours == _result_or_error(simplex_max, A, b, c)
            unbounded += ours == "LP unbounded"
        # the draw covers both outcomes
        assert 0 < unbounded < 300

    def test_wide_and_tall_lps(self):
        # up to 10 x 10, many constraints on few variables and the other way
        # round; the condensed tableau swaps a leaving slack into the
        # entering column's slot, so a slack that leaves and later enters
        # again must come back with the right entries
        rng = random.Random(20150602)
        shapes = [(10, 2), (9, 1), (2, 10), (1, 9), (10, 10), (6, 7)]
        pool = [F(v, d) for v in range(-3, 7) for d in (1, 2, 3)]
        bounded = dict.fromkeys(shapes, 0)
        slack_returns = 0
        for _ in range(60):
            for m, n in shapes:
                A = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
                if rng.random() < 0.75:
                    # a row of positive entries bounds the LP
                    A[-1] = [F(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(n)]
                b = [rng.choice((F(0), F(1), F(rng.randint(1, 9), rng.randint(1, 4)))) for _ in A]
                c = [F(rng.randint(-1, 4), rng.randint(1, 3)) for _ in range(n)]
                pivots = []
                want = _result_or_error(simplex_max, A, b, c, pivots)
                assert _result_or_error(_simplex_max, A, b, c) == want
                bounded[m, n] += want != "LP unbounded"
                slack_returns += _slack_returns(pivots, n)
        assert all(bounded.values())
        assert slack_returns > 0

    @pytest.mark.parametrize("kind", ["int", "fraction", "mixed", "below one"])
    def test_matrix_games_against_fraction_wrapper(self, kind):
        # "below one": every entry in (0, 1), so the wrapper shifts and the
        # integer path, whose least entry is already >= 1, does not
        rng = random.Random(f"matrix-{kind}")
        draw = {
            "int": lambda: rng.randint(-4, 8),
            "fraction": lambda: F(rng.randint(-4, 8), rng.choice((1, 2, 3, 6))),
            "mixed": lambda: rng.choice((rng.randint(-4, 8), F(rng.randint(-4, 8), rng.choice((2, 5))))),
            "below one": lambda: F(rng.randint(1, 11), 12),
        }[kind]
        for _ in range(80):
            n_rows, n_cols = rng.randint(1, 10), rng.randint(1, 10)
            game = [[draw() for _ in range(n_cols)] for _ in range(n_rows)]
            assert solve_matrix_game(game) == matrix_game(game)

    @pytest.mark.parametrize(
        "matrix", [[], [[]], [[], [1]], [[1, 2], [3]], [[F(1)], [F(1), 2]]]
    )
    def test_empty_and_ragged_matrices(self, matrix):
        with pytest.raises(ValueError) as want:
            matrix_game(matrix)
        with pytest.raises(ValueError, match=str(want.value)):
            solve_matrix_game(matrix)

    def test_random_matrix_games(self, monkeypatch):
        rng = random.Random(7)
        games = [_degenerate(rng, rng.randint(1, 5)) for _ in range(200)]
        ours = [solve_matrix_game(g) for g in games]
        monkeypatch.setattr(solver, "_simplex_max", simplex_max)
        assert ours == [solve_matrix_game(g) for g in games]
        # negative entries take the shift path
        assert sum(min(map(min, g)) < 0 for g in games) > 50


class TestSolveGameSmall:
    @pytest.mark.parametrize(
        "n,k,h,m,expected",
        [
            (2, 2, F(1), 2, F(1, 3)),
            (2, 2, F(3, 2), 2, F(1, 2)),
            (4, 2, F(1), 2, F(1, 10)),
        ],
    )
    def test_known_values(self, n, k, h, m, expected):
        sol = solve_game(GameConfig(n, k, h), Grid(m))
        assert sol.value == expected

    def test_four_locations_late_budget(self):
        # finest instance exercised routinely: matches the analytic value 1/4
        sol = solve_game(GameConfig(4, 2, F(11, 6)), Grid(6))
        assert sol.value == F(1, 4)

    def test_m4_certificate_on_the_lemma_3_interval(self):
        # The m=4 solve at h = 11/5 certifies value <= 11/25 on [11/5, 9/4),
        # below the 9/20 that Table 1 gives the interval: its Hider mix holds
        # every reply to 11/25 on grids 4 and 20, up to h = 2249/1000.
        cfg = GameConfig(4, 2, F(11, 5))
        sol = solve_game(cfg, Grid(4))
        mu = sol.hider_mix
        assert sol.value == F(11, 25)
        assert len(mu.entries) == 50
        assert {p for _, p in mu.entries} == {F(1, 50)}
        assert mu.is_location_symmetric()
        for h in (F(11, 5), F(2249, 1000)):
            for m in (4, 20):
                value, _ = best_response_value(mu, GameConfig(4, 2, h), Grid(m))
                assert value == F(11, 25), (h, m)
        entries = [(hp.scaled(4), p) for hp, p in mu.entries]
        budget = effective_budget(cfg, Grid(4))
        assert oracles.brute_best_response(entries, 4, 4, budget) == F(11, 25)
        for fold in (False, True):
            assert oracles.list_best_response(mu, cfg, Grid(4), fold)[0] == F(11, 25)

    def test_budget_domain_enforced(self):
        with pytest.raises(ValueError, match="outside"):
            solve_game(GameConfig(1, 1, F(2)), Grid(1))

    def test_refinement_never_raises_value(self):
        # the grid restricts the Hider, so refining it can only help her
        cfg = GameConfig(2, 2, F(3, 2))
        v2 = solve_game(cfg, Grid(2)).value
        v4 = solve_game(cfg, Grid(4)).value
        assert v4 <= v2

    def test_solution_is_certified_equilibrium(self):
        cfg = GameConfig(2, 2, F(3, 2))
        grid = Grid(2)
        sol = solve_game(cfg, grid)
        # Hider mix guarantee: every policy in the final support wins at
        # most value against the mix (checked internally, re-checked here
        # for the returned searcher support).
        for pid, prob in sol.searcher_mix:
            policy = sol.policies[pid]
            payoff = sum(
                p * (1 if policy.simulate(hp.scaled(grid.m)) else 0)
                for hp, p in sol.hider_mix.entries
            )
            assert payoff <= sol.value
        # Searcher mix guarantee holds per orbit (the payoff columns are
        # relabeling-averaged): against every grid strategy up to relabeling
        for hp, _ in enumerate_grid_hiders(cfg, grid, reduce_symmetry=True):
            members = relabelings(hp)
            payoff = sum(
                prob
                * F(
                    sum(
                        1
                        for member in members
                        if sol.policies[pid].simulate(member.scaled(grid.m))
                    ),
                    len(members),
                )
                for pid, prob in sol.searcher_mix
            )
            assert payoff >= sol.value

    def test_lp_values_monotone_nondecreasing(self):
        sol = solve_game(GameConfig(2, 2, F(1)), Grid(2))
        vals = sol.lp_values
        assert vals, "solver should record per-iteration LP values"
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == sol.value

    def test_hider_mix_supported_on_grid(self):
        grid = Grid(2)
        sol = solve_game(GameConfig(2, 2, F(1)), grid)
        valid = set(brute_hiders(2, 2, 2))
        for hp, p in sol.hider_mix.entries:
            assert p > 0
            assert hp.scaled(2) in valid


class TestSolutionSerialization:
    def test_canonical_json_round_trip(self):
        sol = solve_game(GameConfig(2, 2, F(1)), Grid(2))
        text = solution_to_json(sol)
        assert text.endswith("\n")
        obj = json.loads(text)
        assert obj["value"] == "1/3"
        assert obj["config"] == {"n": 2, "k": 2, "h": "1"}
        assert obj["grid"] == {"m": 2}
        again = solution_from_json(text)
        assert again.value == sol.value
        assert again.from_cache
        assert solution_to_json(again) == text

    def test_decoding_moves_while_parsing_matches_the_plain_decode(self):
        sol = solve_game(GameConfig(3, 2, F(3, 2)), Grid(3))
        text = solution_to_json(sol)
        streamed = solution_from_json(text)
        plain = {
            e["id"]: dict(map(TreePolicy.move_from_json_obj, e["policy"]["moves"]))
            for e in json.loads(text)["searcher_policies"]
        }
        assert streamed.from_cache
        assert streamed.policies.keys() == plain.keys()
        for name, actions in plain.items():
            assert streamed.policies[name].actions == actions
            assert streamed.policies[name].actions == sol.policies[name].actions
        assert solution_to_json(streamed) == text

    def test_json_is_byte_deterministic(self):
        a = solution_to_json(solve_game(GameConfig(2, 2, F(1)), Grid(2)))
        b = solution_to_json(solve_game(GameConfig(2, 2, F(1)), Grid(2)))
        assert a == b


class TestCache:
    def test_round_trip(self, tmp_path):
        cfg = GameConfig(2, 2, F(1))
        first = solve_game_cached(cfg, Grid(2), tmp_path)
        assert not first.from_cache
        second = solve_game_cached(cfg, Grid(2), tmp_path)
        assert second.from_cache
        assert solution_to_json(second) == solution_to_json(first)

    def test_distinct_requests_distinct_entries(self, tmp_path):
        solve_game_cached(GameConfig(2, 2, F(1)), Grid(2), tmp_path)
        solve_game_cached(GameConfig(2, 2, F(1)), Grid(1), tmp_path)
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_entry_with_an_undecodable_move_is_solved_again(self, tmp_path, capsys):
        cfg = GameConfig(2, 2, F(1))
        want = solution_to_json(solve_game_cached(cfg, Grid(2), tmp_path))
        (path,) = tmp_path.iterdir()
        path.write_text(want.replace('"dug":', '"dig":', 1))
        again = solve_game_cached(cfg, Grid(2), tmp_path)
        assert not again.from_cache
        assert "unreadable cache entry" in capsys.readouterr().err
        assert path.read_text() == want

    def test_none_dir_disables_cache(self):
        sol = solve_game_cached(GameConfig(2, 2, F(1)), Grid(2), None)
        assert not sol.from_cache
