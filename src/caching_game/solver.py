"""Exact solver for the grid-restricted game.

A double-oracle loop over an exact-rational LP. The Hider side is fully
enumerated and folded to canonical strategies, each constraining with its
orbit-averaged payoff; the Searcher side is column-generated by
the best-response DP. Orbits are held as integer step placements, and a
policy's payoff column comes from one walk of the policy over the bitmask
of every labeled placement. Termination requires exact equality of the LP
value and the best-response value, after which both one-sided guarantees
are re-verified against every row.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, permutations
from math import lcm
from operator import add
from pathlib import Path
from random import Random

from .bestresponse import TreePolicy, _placement_tables, best_response_value, effective_budget
from .core import (
    GameConfig,
    HiderMixed,
    format_rational,
    parse_hider,
    parse_rational,
    relabelings,
)
from .enumeration import Grid, enumerate_grid_hiders

FORMAT_VERSION = "2"
MAX_ITERATIONS = 10_000


class SolverError(Exception):
    """Internal inconsistency: a certificate or invariant failed."""


def _integer_rows(rows) -> tuple[list[list[int]], int]:
    """Rows of rationals as integers over their common denominator.

    Returns fresh integer rows and the denominator; rows of ints are only
    copied, with denominator 1.
    """
    rows = [list(row) for row in rows]
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return rows, 1
    rows = [[Fraction(v) for v in row] for row in rows]
    den = lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (den // v.denominator) for v in row] for row in rows], den


def _weighted_sums(weights, vectors) -> list[int]:
    """Entrywise sum of weights[k] * vectors[k] over the nonzero weights;
    at least one weight must be nonzero."""
    total = None
    for w, vec in zip(weights, vectors):
        if w:
            term = [w * v for v in vec]
            total = term if total is None else list(map(add, total, term))
    return total


def _pivot(rows, pivot_row, enter: int, D: int) -> int:
    """One Bareiss pivot on pivot_row[enter] of the condensed integer
    tableau rows; returns the new common denominator.

    Every other row becomes (row[j] * p - f * pivot_row[j]) // D, where p is
    the pivot and f that row's entry in the pivot column, and the entering
    variable's slot goes to the leaving one: the old D in the pivot row and
    -f in every other row. The new denominator is p; a negative pivot also
    negates every row, so that the denominator stays positive.
    """
    p = pivot_row[enter]
    for row in rows:
        if row is pivot_row:
            continue
        f = row[enter]
        if f:
            row[:] = [(v * p - f * r) // D for v, r in zip(row, pivot_row)]
            row[enter] = -f
        elif p != D:
            row[:] = [v * p // D for v in row]
    pivot_row[enter] = D
    if p < 0:
        for row in rows:
            row[:] = [-v for v in row]
        return -p
    return p


def _float_basis(rows, n: int) -> list[int] | None:
    """The basic variable of each row at the end of a float simplex on the
    integer tableau rows (objective row last, n structural columns), or
    None when it stops without an optimum.

    It runs the exact tableau's Tucker form in floats, with Dantzig's rule
    (the most negative objective entry enters) and a tolerance of 1e-9.
    Against degenerate ties each rhs is first raised by a share of 1e-7 of
    the largest one, drawn from a fixed seed, so the basis is the same on
    every run; IEEE-754 arithmetic is correctly rounded, so it is also the
    same on every platform. The result only guides `_simplex_max`, which
    accepts the basis in integers or not at all: rounding can cost pivots,
    but it never changes what is reported.
    """
    try:
        table = [[float(v) for v in row] for row in rows]
    except OverflowError:
        return None
    obj = table[-1]
    m = len(table) - 1
    bump = 1e-7 * max(1.0, *(row[-1] for row in table[:-1]))
    draw = Random(0).random
    for row in table[:-1]:
        row[-1] += bump * draw()
    basis = list(range(n, n + m))
    nonbasic = list(range(n))
    for _ in range(10 * (m + n)):
        enter = min(range(n), key=obj.__getitem__)
        if obj[enter] > -1e-9:
            return basis
        leave, least = None, float("inf")
        for i in range(m):
            a = table[i][enter]
            if a > 1e-9 and table[i][-1] / a < least:
                leave, least = i, table[i][-1] / a
        if leave is None:
            return None
        pivot_row = table[leave]
        p = pivot_row[enter]
        pivot_row[:] = [v / p for v in pivot_row]
        pivot_row[enter] = 1 / p
        for row in table:
            f = row[enter]
            if f and row is not pivot_row:
                row[:] = [v - f * r for v, r in zip(row, pivot_row)]
                row[enter] = -f / p
        basis[leave], nonbasic[enter] = nonbasic[enter], basis[leave]
    return None


def _install(rows, n: int, basic):
    """A copy of the integer tableau rows (objective row last, n structural
    columns, slack basis) pivoted to the basis whose basic variables are
    `basic`: one pivot per basic structural variable, in ascending order,
    on the first row whose slack leaves and whose entry is nonzero.

    Returns the (rows, basis, nonbasic, D) that `_simplex_max` goes on
    from, or None when no such row is left (the basis is singular) or some
    exact rhs is negative (it is infeasible).
    """
    rows = [row.copy() for row in rows]
    m = len(rows) - 1
    basis = list(range(n, n + m))  # basic variable of each row
    nonbasic = list(range(n))  # variable in each stored column
    leaving = set(basis).difference(basic)
    D = 1
    for var in sorted({v for v in basic if v < n}):
        leave = next((i for i in range(m) if basis[i] in leaving and rows[i][var]), None)
        if leave is None:
            return None
        D = _pivot(rows, rows[leave], var, D)
        basis[leave], nonbasic[var] = nonbasic[var], basis[leave]
    if any(row[-1] < 0 for row in rows[:-1]):
        return None
    return rows, basis, nonbasic, D


def _simplex_max(A, b, c):
    """Maximize c.x subject to A x <= b, x >= 0, with b >= 0.

    Returns the solution vector and the dual values of the constraints.
    Floats choose the basis and integers certify it: a float simplex
    (`_float_basis`) picks a final basis, which is installed in the exact
    tableau by one pivot per basic structural variable (`_install`). A
    singular or infeasible basis, or none, starts the exact tableau from
    the slack basis instead. From there, Bland's rule (smallest-index
    entering and leaving variables, which cannot cycle) pivots the exact
    tableau to an optimum, with no pivot at all when the installed basis
    is optimal; so the vertex and the duals are always exactly optimal,
    and an unbounded LP raises.

    The tableau holds integers only (Edmonds-Bareiss fraction-free
    pivoting, `_pivot`). A and b are scaled once by L, the lcm of their
    denominators, and c by Lc. Every entry is then the true entry of the
    scaled tableau times a common denominator D > 0, which starts at 1 and
    is the previous pivot's absolute value afterwards; the division in a
    pivot is exact because each entry is, up to sign, a minor of the
    starting integer tableau, objective row included. Since D > 0, signs
    and cross-multiplied ratio comparisons agree with the rational
    tableau, so Bland's rule takes the same pivots.

    The tableau is condensed (Tucker form): a row stores the nonbasic
    columns and the rhs only, since a basic column is D in its own row and
    0 in every other. A pivot hands the entering variable's slot to the
    leaving one. Each stored integer equals its entry in the full tableau,
    so the basis sequence, the vertex and the duals are those of the full
    tableau.
    """
    m = len(A)
    n = len(c)
    tableau, L = _integer_rows(list(row) + [v] for row, v in zip(A, b))
    (obj,), Lc = _integer_rows([c])
    rows = tableau + [[-v for v in obj] + [0]]
    start = _float_basis(rows, n)
    installed = None if start is None else _install(rows, n, start)
    rows, basis, nonbasic, D = installed or (rows, list(range(n, n + m)), list(range(n)), 1)
    tableau, obj = rows[:-1], rows[-1]
    while True:
        improving = [j for j in range(n) if obj[j] < 0]
        if not improving:
            break
        enter = min(improving, key=nonbasic.__getitem__)
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
        D = _pivot(rows, tableau[leave], enter, D)
        basis[leave], nonbasic[enter] = nonbasic[enter], basis[leave]
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(tableau[i][-1], D)
    duals = [Fraction(0)] * m
    for j, var in enumerate(nonbasic):
        if var >= n:
            duals[var - n] = Fraction(obj[j] * L, D * Lc)
    return x, duals


def solve_matrix_game(matrix) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """Exact minimax of a zero-sum matrix game.

    Rows minimize and columns maximize the entry (the Hider/Searcher
    orientation). Takes a list of rows of ints or Fractions. Returns
    (value, row_mix, col_mix) with both guarantees checked exactly.

    The entries are brought to integers over one common denominator Q once
    (Q = 1 for an integer matrix); the shift, the LP and both duality
    checks run on those integers. The shift makes the least integer entry
    1, not the least rational entry. Scaling the matrix, or shifting it by
    another amount that keeps every entry positive, maps the LP's feasible
    set onto the other one projectively, vertex to vertex and in objective
    order, so Bland's rule alone would take the same pivots to the same
    mixes. The float basis may land on another optimal vertex; the value,
    and both exact guarantees, are the same.
    """
    if not matrix or not matrix[0]:
        raise ValueError("empty payoff matrix")
    n_cols = len(matrix[0])
    if any(len(row) != n_cols for row in matrix):
        raise ValueError("ragged payoff matrix")
    entries, Q = _integer_rows(matrix)
    columns = list(zip(*entries))
    low = min(map(min, entries))
    shift = 1 - low if low < 1 else 0
    # Row player's LP, normalized: with u = q / v', minimizing v' is
    # maximizing sum(u) subject to every column's payoff <= 1, here Q.
    A = [[v + shift for v in col] for col in columns] if shift else columns
    u, duals = _simplex_max(A, [Q] * n_cols, [1] * len(entries))
    total = sum(u)
    if total <= 0:
        raise SolverError("degenerate LP solution")
    value = 1 / total - Fraction(shift, Q)
    row_mix = [ui / total for ui in u]
    col_mix = [d * Q / total for d in duals]
    (row_w,), row_den = _integer_rows([row_mix])
    (col_w,), col_den = _integer_rows([col_mix])
    if sum(row_w) != row_den or sum(col_w) != col_den:
        raise SolverError("strategy mix does not normalize")
    # Both exact guarantees, strong duality in game form: the best column
    # against row_mix and the best row against col_mix both give value.
    v_num = value.numerator * Q
    if (
        max(_weighted_sums(row_w, entries)) * value.denominator != v_num * row_den
        or min(_weighted_sums(col_w, columns)) * value.denominator != v_num * col_den
    ):
        raise SolverError("duality gap in matrix game solution")
    return value, row_mix, col_mix


@dataclass
class GameSolution:
    """Solved grid game with certified optimal mixes, each over its support."""

    cfg: GameConfig
    grid: Grid
    value: Fraction
    hider_mix: HiderMixed
    searcher_mix: list[tuple[TreePolicy, Fraction]]
    iterations: int
    lp_values: list[Fraction]
    from_cache: bool = False


def _payoff_column(policy: TreePolicy, walk, orbits, scale: int) -> list[int]:
    """Win count of one policy against each row's orbit, scaled to W =
    scale, the lcm of the orbit sizes: W times the orbit-averaged win
    probability. walk is the (at, hit, cons, left) of `TreePolicy.win_mask`
    over every labeled placement, and orbits are each row's bitmask of
    them, so one walk of the policy gives the whole column."""
    wins = policy.win_mask(*walk)
    return [(wins & orbit).bit_count() * (scale // orbit.bit_count()) for orbit in orbits]


def solve_game(cfg: GameConfig, grid: Grid) -> GameSolution:
    """Exact value of the game with the Hider restricted to the grid.

    Rows are all grid Hider strategies, one canonical representative per
    relabeling orbit with the orbit-averaged payoff; columns start from the
    plain sweep policy and grow by best responses to the LP's optimal Hider
    mix. Exact equality of LP and best-response values terminates the loop,
    and the LP's Searcher mix is re-certified against every row before it
    is returned over its support, the columns of positive probability in
    column order. Payoffs are integers scaled by the lcm W of the orbit
    sizes (`_payoff_column`); values are divided by W. Orbits are held as
    integer step placements; a row's relabeled strategies are built the
    first time the row enters the LP's support.
    """
    cfg.require_standard_budget()
    rows = enumerate_grid_hiders(cfg, grid, reduce_symmetry=True)
    orbits = [set(permutations(hp.scaled(grid.m))) for hp, _ in rows]
    for (_, weight), orbit in zip(rows, orbits):
        if weight != len(orbit):
            raise SolverError("orbit weight mismatch")
    labeled = list(chain.from_iterable(orbits))
    walk = (*_placement_tables(labeled, cfg.n, grid.m), (1 << len(labeled)) - 1, cfg.k)
    masks, offset = [], 0
    for orbit in orbits:
        masks.append(((1 << len(orbit)) - 1) << offset)
        offset += len(orbit)
    budget = effective_budget(cfg, grid)
    scale = lcm(*map(len, orbits))

    policies: list[TreePolicy] = [TreePolicy(cfg.n, grid.m, budget)]
    columns: list[list[int]] = [_payoff_column(policies[0], walk, masks, scale)]
    seen_columns = {tuple(columns[0])}
    lp_values: list[Fraction] = []
    members: dict[int, list] = {}

    for iteration in range(1, MAX_ITERATIONS + 1):
        scaled_value, row_mix, col_mix = solve_matrix_game(list(zip(*columns)))
        value = scaled_value / scale
        if lp_values and value < lp_values[-1]:
            raise SolverError("LP value decreased across iterations")
        lp_values.append(value)

        support = []
        for i, q in enumerate(row_mix):
            if q:
                if i not in members:
                    members[i] = relabelings(rows[i][0])
                share = q / len(members[i])
                support.extend((member, share) for member in members[i])
        mu = HiderMixed(tuple(support))
        br_value, br_policy = best_response_value(mu, cfg, grid)
        if br_value < value:
            raise SolverError("best response below LP value")
        if br_value == value:
            _certify(scaled_value, columns, col_mix)
            return GameSolution(
                cfg=cfg,
                grid=grid,
                value=value,
                hider_mix=mu,
                searcher_mix=[(pol, p) for pol, p in zip(policies, col_mix) if p],
                iterations=iteration,
                lp_values=lp_values,
            )
        column = _payoff_column(br_policy, walk, masks, scale)
        key = tuple(column)
        if key in seen_columns:
            raise SolverError("improving column repeats an existing one")
        seen_columns.add(key)
        policies.append(br_policy)
        columns.append(column)
    raise SolverError(f"no convergence within {MAX_ITERATIONS} iterations")


def _certify(value: Fraction, columns, col_mix) -> None:
    """Searcher mix must achieve >= value against every row, tight somewhere.

    `value` and the integer columns share one scale; the check runs in
    integers over the common denominator of col_mix.
    """
    (weights,), den = _integer_rows([col_mix])
    worst = min(_weighted_sums(weights, columns)) * value.denominator
    if worst < value.numerator * den:
        raise SolverError("searcher mix fails a row at termination")
    if worst != value.numerator * den:
        raise SolverError("searcher guarantee is not tight")


def solution_from_json(text: str) -> GameSolution:
    """Parse canonical solution JSON. Each policy move is decoded into its
    (state, move) pair as soon as it is parsed, so the parsed move objects
    are never all held at once: parsing the whole text first peaked at
    1.23 MB for a 105 kB solution. Raises ValueError unless the Searcher
    probabilities, like the Hider's, are positive and sum to 1, every
    policy is for the entry's n, m and budget, and iterations is a
    positive integer."""
    obj = json.loads(text, object_hook=TreePolicy.move_from_json_obj)
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
    searcher_mix = [
        (TreePolicy.from_json_obj(e["policy"]), parse_rational(e["prob"]))
        for e in obj["searcher_policies"]
    ]
    probs = [p for _, p in searcher_mix]
    if min(probs, default=0) <= 0 or sum(probs) != 1:
        raise ValueError("Searcher probabilities are not positive with sum 1")
    game = (cfg.n, grid.m, effective_budget(cfg, grid))
    for policy, _ in searcher_mix:
        own = (policy.n, policy.m, policy.budget)
        if own != game:
            raise ValueError(f"policy is for (n, m, budget) {own}, not {game}")
    iterations = obj["iterations"]
    if type(iterations) is not int or iterations < 1:
        raise ValueError(f"iterations {iterations!r} is not a positive integer")
    return GameSolution(
        cfg=cfg,
        grid=grid,
        value=parse_rational(obj["value"]),
        hider_mix=hider_mix,
        searcher_mix=searcher_mix,
        iterations=iterations,
        lp_values=[],
        from_cache=True,
    )


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def solution_to_json(sol: GameSolution) -> str:
    """Canonical JSON text: sorted keys, fixed separators, trailing newline.

    Each Searcher policy is encoded on its own and spliced in before
    "value", the last key, so the moves of one policy at a time are held
    as Python objects: encoding the solution as one object peaked at about
    2.5 MB for a 105 kB text.
    """
    head = _dumps(
        {
            "config": {"n": sol.cfg.n, "k": sol.cfg.k, "h": format_rational(sol.cfg.h)},
            "grid": {"m": sol.grid.m},
            "hider_mix": [
                {"strategy": str(hp), "prob": format_rational(p)}
                for hp, p in sol.hider_mix.entries
            ],
            "iterations": sol.iterations,
            "value": format_rational(sol.value),
        }
    )
    policies = ",".join(
        _dumps({"id": f"P{j}", "policy": policy.to_json_obj(), "prob": format_rational(p)})
        for j, (policy, p) in enumerate(sol.searcher_mix)
    )
    at = head.rindex(',"value":')
    return f'{head[:at]},"searcher_policies":[{policies}]{head[at:]}\n'


def _cache_key(cfg: GameConfig, grid: Grid) -> str:
    """The request itself, as a file name: one name per request, no hash.

    A sha256 key needed hashlib, whose OpenSSL library added about 3.7 MB
    to the resident memory of every `caching-game` process.
    """
    h = cfg.h
    return f"solve-v{FORMAT_VERSION}-n{cfg.n}-k{cfg.k}-h{h.numerator}_{h.denominator}-m{grid.m}"


def solve_game_cached(
    cfg: GameConfig,
    grid: Grid,
    cache_dir: Path | str | None,
) -> GameSolution:
    """solve_game behind an on-disk cache.

    Cache entries are the canonical solution JSON, named by the request
    (format-versioned); a None cache_dir disables caching. An entry
    that does not parse as a solution, or parses as the solution of
    another request, is a miss: the game is solved again and the entry
    rewritten. Each writer creates its own temporary file, with the mode
    the umask gives a new file, and renames it into place.
    """
    if cache_dir is None:
        return solve_game(cfg, grid)
    cache_dir = Path(cache_dir)
    path = cache_dir / f"{_cache_key(cfg, grid)}.json"
    if path.exists():
        try:
            sol = solution_from_json(path.read_text())
            if (sol.cfg, sol.grid) != (cfg, grid):
                raise ValueError(f"entry is for {_cache_key(sol.cfg, sol.grid)}")
            return sol
        except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
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
