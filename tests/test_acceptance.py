"""Acceptance suite: one test_criterion_N family per shipped guarantee.

The conftest hook aggregates these into a single PASS/FAIL line per
criterion at the end of the run, plus the runtimes collected in
conftest.RUNTIME_NOTES.

Known honest failure: the searcher direction of criterion 1 for the
h in [11/5, 7/3) interval. The bundled script for that interval
guarantees only 11/30 against its worst hider (and no two-stage script
mixture can exceed 11/25), so the 9/20 requirement fails. The module
suite pins the actual value; see README for the analysis.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

import conftest
from oracles import brute_hiders, enumerate_policy_trees, simulate_policy

from caching_game.bestresponse import best_response_value
from caching_game.core import (
    GameConfig,
    HiderMixed,
    HiderPure,
    apply_permutation,
    relabelings,
)
from caching_game.enumeration import Grid, enumerate_grid_hiders
from caching_game.solver import solve_game, solve_matrix_game
from caching_game.strategies import (
    LEMMA_GRIDS,
    LEMMA_VALUES,
    TABLE_ONE,
    arrangement_sets,
    asymptotic_win_prob,
    lemma_config,
    lemma_hider,
    lemma_script,
    proposition_value,
    script_min_win_prob,
    script_win_prob,
    searcher_table_report,
    uniform_allocation_count,
    uniform_allocation_strategies,
)


def _note(text: str) -> None:
    conftest.RUNTIME_NOTES.append(text)


# --- criterion 1: both directions of each guaranteed-value interval -------


@pytest.mark.parametrize("lemma_id", [2, 3, 4, 5])
def test_criterion_1_hider_direction(lemma_id):
    cfg = lemma_config(lemma_id)
    m = LEMMA_GRIDS[lemma_id]
    t0 = time.perf_counter()
    value, _ = best_response_value(
        lemma_hider(lemma_id), cfg, Grid(m), extract_policy=False
    )
    _note(
        f"criterion 1: interval {lemma_id} hider mix, best response at m={m}: "
        f"{value!s} in {time.perf_counter() - t0:.2f}s"
    )
    assert value == LEMMA_VALUES[lemma_id]


@pytest.mark.parametrize("lemma_id", [2, 3, 4, 5])
def test_criterion_1_searcher_direction(lemma_id):
    cfg = lemma_config(lemma_id)
    t0 = time.perf_counter()
    value, worst = script_min_win_prob(lemma_script(lemma_id), cfg, Grid(60))
    _note(
        f"criterion 1: interval {lemma_id} searcher script, worst case over "
        f"a 1/60 scan: {value!s} in {time.perf_counter() - t0:.2f}s"
    )
    # interval 3 fails here: the script as bundled guarantees 11/30 < 9/20
    assert value == LEMMA_VALUES[lemma_id], f"worst hider {worst}"


# --- criterion 2: full-solve reproduction of known values -----------------


@pytest.mark.parametrize(
    "n,k,h,m,want",
    [
        (2, 2, F(1), 2, F(1, 3)),
        (2, 2, F(3, 2), 2, F(1, 2)),
        (4, 2, F(1), 2, F(1, 10)),
        (4, 2, F(11, 6), 6, F(1, 4)),
    ],
)
def test_criterion_2_known_values(n, k, h, m, want):
    t0 = time.perf_counter()
    sol = solve_game(GameConfig(n, k, h), Grid(m))
    _note(
        f"criterion 2: solve n={n} k={k} h={h} m={m}: {sol.value!s} in "
        f"{time.perf_counter() - t0:.2f}s"
    )
    assert sol.value == want
    assert sol.lp_values[-1] == want


# --- criterion 3: minimal-budget closed form matches the solver -----------


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_criterion_3_minimal_budget_closed_form(n, k):
    want = proposition_value(n, k)
    sol = solve_game(GameConfig(n, k, F(1)), Grid(k))
    assert sol.value == want
    count = math.comb(n + k - 1, k)
    assert uniform_allocation_count(n, k) == count
    assert len(uniform_allocation_strategies(n, k)) == count


# --- criterion 4: sweep-strategy lower bound on the whole grid ------------


def test_criterion_4_sweep_bound_entire_grid():
    t0 = time.perf_counter()
    checked = 0
    for n in range(4, 51):
        for h_int in range(-(-n // 2), n):
            h = F(h_int)
            assert asymptotic_win_prob(n, h, "same-location") == F(h_int, n)
            floor_bound = F(h_int, n) - F(2, n)
            for t in range(1, 31):
                assert asymptotic_win_prob(n, h, ("split", F(t, 60))) >= floor_bound
                checked += 1
    elapsed = time.perf_counter() - t0
    _note(f"criterion 4: {checked} (n, h, y) points in {elapsed:.1f}s")
    assert elapsed < 60


# --- criterion 5: published per-case payoff tables ------------------------


@pytest.mark.parametrize(
    "lemma_id,x,y,expected",
    [
        (4, F(4, 5), F(1, 5), {"xy00": 1, "yx00": F(1, 10), "x0y0": F(17, 20), "x00y": F(3, 4)}),
        (4, F(1, 2), F(1, 2), {"xy00": 1, "yx00": 1, "x0y0": F(1, 10), "y0x0": F(1, 10), "0xy0": F(1, 4), "0yx0": F(1, 4)}),
        (5, F(5, 6), F(1, 6), {"xy00": 1, "yx00": F(1, 15), "x0y0": 1, "x00y": F(11, 15)}),
        (5, F(2, 3), F(1, 3), {"xy00": 1, "yx00": 1, "x0y0": F(11, 15), "y0x0": F(1, 15), "0yx0": F(1, 3)}),
        (5, F(1, 2), F(1, 2), {"xy00": 1, "yx00": 1, "x0y0": F(1, 15), "y0x0": F(1, 15), "0xy0": F(1, 3), "0yx0": F(1, 3)}),
    ],
)
def test_criterion_5_representative_points(lemma_id, x, y, expected):
    cfg = lemma_config(lemma_id)
    script = lemma_script(lemma_id)
    for pattern, want in expected.items():
        hp = HiderPure(arrangement_sets(pattern, x, y))
        out = script_win_prob(script, hp, cfg, relabel=False)
        assert out.win_probability == want, pattern


def test_criterion_5_regime_report_clean():
    t0 = time.perf_counter()
    report = searcher_table_report(scan_m=60)
    _note(
        f"criterion 5: all 19 per-case table entries rescanned at m=60 in "
        f"{time.perf_counter() - t0:.2f}s"
    )
    assert "MISMATCH" not in report
    assert report.count("[ok]") == 19


# --- criterion 6: remaining value-table rows -------------------------------

_SOLVER_ROWS = [row for row in TABLE_ONE if row.method == "solver"]


@pytest.mark.parametrize("row", _SOLVER_ROWS, ids=lambda r: f"h={r.h_lo}")
def test_criterion_6_bounds_and_refinement(row):
    # property check, not a hard equality gate: any grid value upper-bounds
    # the continuous value, and refinement never increases it
    cfg = GameConfig(4, 2, row.h_lo)
    m = 1 if row.solver_m == 1 else (2 if row.h_lo.denominator == 1 else row.h_lo.denominator)
    coarse = solve_game(cfg, Grid(m)).value
    fine = solve_game(cfg, Grid(2 * m)).value
    assert coarse >= row.value
    assert fine >= row.value
    assert fine <= coarse


@pytest.mark.parametrize(
    "row",
    [row for row in _SOLVER_ROWS if row.solver_m <= 8],
    ids=lambda r: f"h={r.h_lo}",
)
def test_criterion_6_exact_search_fast(row):
    t0 = time.perf_counter()
    sol = solve_game(GameConfig(4, 2, row.h_lo), Grid(row.solver_m))
    _note(
        f"criterion 6: exact grid search h={row.h_lo} at m={row.solver_m}: "
        f"{sol.value!s} in {time.perf_counter() - t0:.2f}s"
    )
    assert sol.value == row.value


@pytest.mark.slow
@pytest.mark.parametrize(
    "row",
    [row for row in _SOLVER_ROWS if row.solver_m > 8],
    ids=lambda r: f"h={r.h_lo}",
)
def test_criterion_6_exact_search_slow(row):
    t0 = time.perf_counter()
    sol = solve_game(GameConfig(4, 2, row.h_lo), Grid(row.solver_m))
    _note(
        f"criterion 6: exact grid search h={row.h_lo} at m={row.solver_m}: "
        f"{sol.value!s} in {time.perf_counter() - t0:.1f}s"
    )
    assert sol.value == row.value


# --- criterion 7: oracle equivalence on exhaustively checkable instances ---


def _placement_hider(placement, m):
    return HiderPure(tuple(tuple(F(s, m) for s in loc) for loc in placement))


def _sample_mixes(placements, m, seed):
    hiders = [_placement_hider(p, m) for p in placements]
    mixes = [HiderMixed(((hp, F(1)),)) for hp in hiders]
    mixes.append(HiderMixed.uniform(hiders))
    rng = random.Random(seed)
    for _ in range(3):
        support = rng.sample(hiders, rng.randint(1, len(hiders)))
        weights = [F(rng.randint(1, 5)) for _ in support]
        total = sum(weights)
        mixes.append(
            HiderMixed(tuple((hp, w / total) for hp, w in zip(support, weights)))
        )
    return list(zip(mixes, [placements_to_entries(mx, m) for mx in mixes]))


def placements_to_entries(mix, m):
    return [(hp.scaled(m), p) for hp, p in mix.entries]


@pytest.mark.parametrize("n,k,m", [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2)])
def test_criterion_7_best_response_vs_policy_trees(n, k, m):
    budgets = [F(1, 2), F(1)] if n == 1 else [F(1, 2), F(1), F(3, 2), F(7, 4)]
    placements = brute_hiders(n, k, m)
    for h in budgets:
        cfg = GameConfig(n, k, h)
        steps = math.floor(h * m)
        policies = enumerate_policy_trees(n, m, steps, k)
        assert policies
        for mix, entries in _sample_mixes(placements, m, seed=f"{n}.{k}.{m}.{h}"):
            value, _ = best_response_value(mix, cfg, Grid(m), extract_policy=False)
            oracle = max(
                sum(p * simulate_policy(pol, pl, n, steps, k) for pl, p in entries)
                for pol in policies
            )
            assert value == oracle, (h, mix)


@pytest.mark.parametrize(
    "k,m,h",
    [(1, 1, F(1)), (1, 2, F(1)), (1, 2, F(3, 2)), (2, 1, F(1)), (2, 2, F(1)), (2, 2, F(3, 2))],
)
def test_criterion_7_solve_vs_full_matrix(k, m, h):
    _check_solve_vs_full_matrix(2, k, m, h)


def test_criterion_7_solve_vs_full_matrix_three_locations():
    # the solver folds the 12 placements into 4 relabeling orbits; the
    # oracle takes the LP over all 528 policy trees against every placement
    _check_solve_vs_full_matrix(3, 2, 2, F(3, 2))


def _check_solve_vs_full_matrix(n, k, m, h):
    sol = solve_game(GameConfig(n, k, h), Grid(m))
    placements = brute_hiders(n, k, m)
    steps = math.floor(h * m)
    policies = enumerate_policy_trees(n, m, steps, k)
    win_vectors = sorted(
        {
            tuple(simulate_policy(pol, pl, n, steps, k) for pl in placements)
            for pol in policies
        }
    )
    matrix = [
        [F(win_vectors[j][i]) for j in range(len(win_vectors))]
        for i in range(len(placements))
    ]
    value, _, _ = solve_matrix_game(matrix)
    assert sol.value == value


def test_criterion_7_probe_sizes():
    # documented sizes of the largest exhaustive instance
    assert len(brute_hiders(2, 2, 2)) == 7
    assert len(enumerate_policy_trees(2, 2, 3, 2)) == 30


# --- criterion 8: module invariant spot checks -----------------------------


def _asymmetric_mix():
    a = HiderPure(((F(1, 2), F(1)), (), ()))
    b = HiderPure(((F(1, 2),), (F(1, 2),), ()))
    return HiderMixed(((a, F(2, 3)), (b, F(1, 3))))


def test_criterion_8_relabeling_invariance():
    cfg = GameConfig(3, 2, F(3, 2))
    mu = _asymmetric_mix()
    base, _ = best_response_value(mu, cfg, Grid(2), extract_policy=False)
    perm = (2, 0, 1)
    permuted = HiderMixed(
        tuple((apply_permutation(hp, perm), p) for hp, p in mu.entries)
    )
    value, _ = best_response_value(permuted, cfg, Grid(2), extract_policy=False)
    assert value == base


def test_criterion_8_budget_monotonicity():
    mu = _asymmetric_mix()
    values = [
        best_response_value(mu, GameConfig(3, 2, h), Grid(2), extract_policy=False)[0]
        for h in (F(1), F(3, 2), F(2), F(5, 2))
    ]
    assert values == sorted(values)


def test_criterion_8_refinement_helps_searcher_for_fixed_mix():
    cfg = GameConfig(3, 2, F(3, 2))
    mu = _asymmetric_mix()
    v2, _ = best_response_value(mu, cfg, Grid(2), extract_policy=False)
    v4, _ = best_response_value(mu, cfg, Grid(4), extract_policy=False)
    assert v4 >= v2


def test_criterion_8_matrix_game_duality():
    rng = random.Random(8)
    matrix = [[F(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(5)] for _ in range(4)]
    value, rows, cols = solve_matrix_game(matrix)
    col_payoffs = [
        sum(rows[i] * matrix[i][j] for i in range(4)) for j in range(5)
    ]
    row_payoffs = [
        sum(cols[j] * matrix[i][j] for j in range(5)) for i in range(4)
    ]
    assert max(col_payoffs) == value
    assert min(row_payoffs) == value


def test_criterion_8_orbit_weights_partition_the_grid():
    cfg = GameConfig(3, 2, F(1))
    full = enumerate_grid_hiders(cfg, Grid(2), reduce_symmetry=False)
    reduced = enumerate_grid_hiders(cfg, Grid(2), reduce_symmetry=True)
    assert sum(w for _, w in reduced) == len(full)
    for hp, w in reduced:
        assert len(set(relabelings(hp))) == w
