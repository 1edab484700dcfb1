"""Exact solver for the grid-restricted game.

A double-oracle loop over an exact-rational LP. The Hider side is fully
enumerated and folded to canonical strategies, each constraining with its
orbit-averaged payoff; the Searcher side is column-generated by
the best-response DP. Termination requires exact equality of the LP value
and the best-response value, after which both one-sided guarantees are
re-verified against every row.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from pathlib import Path

from .bestresponse import TreePolicy, best_response_value, effective_budget
from .core import (
    GameConfig,
    HiderMixed,
    format_rational,
    parse_hider,
    parse_rational,
    relabelings,
)
from .enumeration import Grid, enumerate_grid_hiders

FORMAT_VERSION = "1"
MAX_ITERATIONS = 10_000


class SolverError(Exception):
    """Internal inconsistency: a certificate or invariant failed."""


def _simplex_max(A, b, c):
    """Maximize c.x subject to A x <= b, x >= 0, with b >= 0.

    Dense tableau simplex with Bland's rule (smallest-index entering and
    leaving variables), which cannot cycle. Returns the solution vector and
    the dual values of the constraints.

    The tableau holds integers only (Edmonds-Bareiss fraction-free
    pivoting). A and b are scaled once by L, the lcm of their denominators,
    and c by Lc. Every entry is then the true entry of the scaled tableau
    times a common denominator D > 0, which starts at 1 and is the previous
    pivot afterwards. Pivoting on p keeps the pivot row as it is and turns
    every other row into (row[j] * p - f * pivot_row[j]) // D, where f is
    that row's entry in the pivot column; the division is exact because
    each entry is a minor of the starting integer tableau, objective row
    included. Since D > 0, signs and cross-multiplied ratio comparisons
    agree with the rational tableau, so Bland's rule takes the same pivots.
    """
    A = [[Fraction(v) for v in row] for row in A]
    b = [Fraction(v) for v in b]
    c = [Fraction(v) for v in c]
    m = len(A)
    n = len(c)
    L = lcm(*(v.denominator for row in A for v in row), *(v.denominator for v in b))
    Lc = lcm(*(v.denominator for v in c))
    tableau = [
        [v.numerator * (L // v.denominator) for v in A[i]]
        + [1 if j == i else 0 for j in range(m)]
        + [b[i].numerator * (L // b[i].denominator)]
        for i in range(m)
    ]
    obj = [-v.numerator * (Lc // v.denominator) for v in c] + [0] * (m + 1)
    rows = tableau + [obj]
    basis = [n + i for i in range(m)]
    D = 1
    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # rhs_i / a against rhs_leave / a_leave, both divisors > 0
                lhs = tableau[i][-1] * tableau[leave][enter]
                rhs = tableau[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise SolverError("LP unbounded")
        pivot_row = tableau[leave]
        p = pivot_row[enter]
        for row in rows:
            if row is pivot_row:
                continue
            f = row[enter]
            row[:] = [(v * p - f * r) // D for v, r in zip(row, pivot_row)]
        D = p
        basis[leave] = enter
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(tableau[i][-1], D)
    duals = [Fraction(v * L, D * Lc) for v in obj[n : n + m]]
    return x, duals


def solve_matrix_game(matrix) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """Exact minimax of a zero-sum matrix game.

    Rows minimize and columns maximize the entry (the Hider/Searcher
    orientation). Takes a list of rows. Returns (value, row_mix, col_mix)
    with both guarantees checked exactly.
    """
    entries = [[Fraction(e) for e in row] for row in matrix]
    if not entries or not entries[0]:
        raise ValueError("empty payoff matrix")
    n_rows = len(entries)
    n_cols = len(entries[0])
    if any(len(row) != n_cols for row in entries):
        raise ValueError("ragged payoff matrix")
    low = min(min(row) for row in entries)
    shift = Fraction(1) - low if low < 1 else Fraction(0)
    # Row player's LP, normalized: with u = q / v', minimizing v' is
    # maximizing sum(u) subject to every column's payoff <= 1.
    A = [[entries[i][j] + shift for i in range(n_rows)] for j in range(n_cols)]
    b = [Fraction(1)] * n_cols
    c = [Fraction(1)] * n_rows
    u, duals = _simplex_max(A, b, c)
    total = sum(u)
    if total <= 0:
        raise SolverError("degenerate LP solution")
    shifted_value = 1 / total
    value = shifted_value - shift
    row_mix = [ui * shifted_value for ui in u]
    col_mix = [d * shifted_value for d in duals]
    if sum(row_mix) != 1 or sum(col_mix) != 1:
        raise SolverError("strategy mix does not normalize")
    # Both exact guarantees, strong duality in game form.
    worst_col = max(
        sum(row_mix[i] * entries[i][j] for i in range(n_rows)) for j in range(n_cols)
    )
    worst_row = min(
        sum(col_mix[j] * entries[i][j] for j in range(n_cols)) for i in range(n_rows)
    )
    if worst_col != value or worst_row != value:
        raise SolverError("duality gap in matrix game solution")
    return value, row_mix, col_mix


@dataclass
class GameSolution:
    """Solved grid game with certified optimal mixes."""

    cfg: GameConfig
    grid: Grid
    value: Fraction
    hider_mix: HiderMixed
    searcher_mix: list[tuple[str, Fraction]]
    policies: dict[str, TreePolicy]
    iterations: int
    lp_values: list[Fraction]
    from_cache: bool = False


def _payoff_column(policy: TreePolicy, orbits) -> list[Fraction]:
    """Orbit-averaged win probability of one policy against each row."""
    return [
        Fraction(sum(1 for steps in orbit if policy.simulate(steps)), len(orbit))
        for orbit in orbits
    ]


def solve_game(cfg: GameConfig, grid: Grid) -> GameSolution:
    """Exact value of the game with the Hider restricted to the grid.

    Rows are all grid Hider strategies, one canonical representative per
    relabeling orbit with the orbit-averaged payoff; columns start from the
    plain sweep policy and grow by best responses to the LP's optimal Hider
    mix. Exact equality of LP and best-response values terminates the loop,
    and the returned mixes are re-certified against every row.
    """
    cfg.require_standard_budget()
    rows = enumerate_grid_hiders(cfg, grid, reduce_symmetry=True)
    canon = [hp for hp, _ in rows]
    orbit_members = [relabelings(hp) for hp in canon]
    for (_, weight), members in zip(rows, orbit_members):
        if weight != len(members):
            raise SolverError("orbit weight mismatch")
    orbits = [[m_hp.scaled(grid.m) for m_hp in members] for members in orbit_members]
    budget = effective_budget(cfg, grid)

    policies: list[TreePolicy] = [TreePolicy(cfg.n, grid.m, budget)]
    columns: list[list[Fraction]] = [_payoff_column(policies[0], orbits)]
    seen_columns = {tuple(columns[0])}
    lp_values: list[Fraction] = []

    for iteration in range(1, MAX_ITERATIONS + 1):
        entries = [[col[i] for col in columns] for i in range(len(canon))]
        value, row_mix, col_mix = solve_matrix_game(entries)
        if lp_values and value < lp_values[-1]:
            raise SolverError("LP value decreased across iterations")
        lp_values.append(value)

        support = []
        for i, q in enumerate(row_mix):
            if q:
                share = q / len(orbit_members[i])
                support.extend((member, share) for member in orbit_members[i])
        mu = HiderMixed(tuple(support))
        br_value, br_policy = best_response_value(mu, cfg, grid)
        if br_value < value:
            raise SolverError("best response below LP value")
        if br_value == value:
            names = [f"P{j}" for j in range(len(policies))]
            searcher_mix = [(names[j], p) for j, p in enumerate(col_mix)]
            _certify(value, columns, col_mix)
            return GameSolution(
                cfg=cfg,
                grid=grid,
                value=value,
                hider_mix=mu,
                searcher_mix=searcher_mix,
                policies=dict(zip(names, policies)),
                iterations=iteration,
                lp_values=lp_values,
            )
        column = _payoff_column(br_policy, orbits)
        key = tuple(column)
        if key in seen_columns:
            raise SolverError("improving column repeats an existing one")
        seen_columns.add(key)
        policies.append(br_policy)
        columns.append(column)
    raise SolverError(f"no convergence within {MAX_ITERATIONS} iterations")


def _certify(value: Fraction, columns, col_mix) -> None:
    """Searcher mix must achieve >= value against every row, tight somewhere."""
    n_rows = len(columns[0])
    worst = None
    for i in range(n_rows):
        wp = sum(p * col[i] for p, col in zip(col_mix, columns))
        if wp < value:
            raise SolverError("searcher mix fails a row at termination")
        if worst is None or wp < worst:
            worst = wp
    if worst != value:
        raise SolverError("searcher guarantee is not tight")


def solution_to_json_obj(sol: GameSolution) -> dict:
    return {
        "config": {
            "n": sol.cfg.n,
            "k": sol.cfg.k,
            "h": format_rational(sol.cfg.h),
        },
        "grid": {"m": sol.grid.m},
        "value": format_rational(sol.value),
        "hider_mix": [
            {"strategy": str(hp), "prob": format_rational(p)}
            for hp, p in sol.hider_mix.entries
        ],
        "searcher_policies": [
            {
                "id": name,
                "prob": format_rational(p),
                "policy": sol.policies[name].to_json_obj(),
            }
            for name, p in sol.searcher_mix
        ],
        "iterations": sol.iterations,
    }


def solution_from_json_obj(obj: dict) -> GameSolution:
    cfg = GameConfig(
        n=obj["config"]["n"],
        k=obj["config"]["k"],
        h=parse_rational(obj["config"]["h"]),
    )
    grid = Grid(obj["grid"]["m"])
    hider_mix = HiderMixed(
        tuple(
            (parse_hider(e["strategy"]), parse_rational(e["prob"]))
            for e in obj["hider_mix"]
        )
    )
    searcher_mix = []
    policies = {}
    for e in obj["searcher_policies"]:
        searcher_mix.append((e["id"], parse_rational(e["prob"])))
        policies[e["id"]] = TreePolicy.from_json_obj(e["policy"])
    return GameSolution(
        cfg=cfg,
        grid=grid,
        value=parse_rational(obj["value"]),
        hider_mix=hider_mix,
        searcher_mix=searcher_mix,
        policies=policies,
        iterations=obj["iterations"],
        lp_values=[],
        from_cache=True,
    )


def solution_to_json(sol: GameSolution) -> str:
    """Canonical JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(solution_to_json_obj(sol), sort_keys=True, separators=(",", ":")) + "\n"


def _cache_key(cfg: GameConfig, grid: Grid) -> str:
    request = {
        "format": FORMAT_VERSION,
        "command": "solve",
        "n": cfg.n,
        "k": cfg.k,
        "h": format_rational(cfg.h),
        "m": grid.m,
    }
    canonical = json.dumps(request, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def solve_game_cached(
    cfg: GameConfig,
    grid: Grid,
    cache_dir: Path | str | None,
) -> GameSolution:
    """solve_game behind a content-addressed on-disk cache.

    Cache entries are the canonical solution JSON keyed by a hash of the
    request (format-versioned); a None cache_dir disables caching. An entry
    that does not parse as a solution is a miss: the game is solved again
    and the entry rewritten. Each writer creates its own temporary file,
    with the mode the umask gives a new file, and renames it into place.
    """
    if cache_dir is None:
        return solve_game(cfg, grid)
    cache_dir = Path(cache_dir)
    path = cache_dir / f"{_cache_key(cfg, grid)}.json"
    if path.exists():
        try:
            return solution_from_json_obj(json.loads(path.read_text()))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            print(f"unreadable cache entry {path} ({exc!r}); solving again", file=sys.stderr)
    sol = solve_game(cfg, grid)
    cache_dir.mkdir(parents=True, exist_ok=True)
    # a name of its own, and mode 0666 for the kernel to apply the umask to
    tmp = cache_dir / f"{path.stem}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(solution_to_json(sol))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return sol
