"""Command-line interface: exact solves, verification runs, and reports.

Every rational crosses the boundary as "p/q" text and stdout is
byte-deterministic for a given request; progress and cache notes go to
stderr. Exit codes: 0 success or PASS, 1 a verification failed, 2 usage,
domain or file error.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

from .bestresponse import best_response_value
from .core import GameConfig, format_rational, parse_rational
from .enumeration import Grid, dump_enumeration, enumerate_grid_hiders
from .solver import solution_to_json, solve_game_cached
from .strategies import (
    LEMMA_GRIDS,
    LEMMA_VALUES,
    TABLE_ONE,
    asymptotic_win_prob,
    format_script_mixture,
    lemma_config,
    lemma_hider,
    lemma_script,
    proposition_value,
    script_min_win_prob,
    uniform_allocation_count,
    uniform_allocation_strategies,
)

CACHE_ENV = "CACHING_GAME_CACHE_DIR"


def _cache_dir(args) -> Path | None:
    if args.no_cache:
        return None
    if args.cache_dir:
        return Path(args.cache_dir)
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path(".cache")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_solve(args) -> int:
    cfg = GameConfig(n=args.n, k=args.k, h=parse_rational(args.h))
    cfg.require_standard_budget()
    grid = Grid(args.m)
    sol = solve_game_cached(cfg, grid, _cache_dir(args))
    if sol.from_cache:
        print("cache hit", file=sys.stderr)
    _emit(solution_to_json(sol), args.out)
    return 0


def _lemma_best_response(lemma_id: int) -> tuple[Fraction, int]:
    """(best-response value to the lemma's Hider mix on its grid, the grid's m)."""
    m = LEMMA_GRIDS[lemma_id]
    value, _ = best_response_value(
        lemma_hider(lemma_id), lemma_config(lemma_id), Grid(m), extract_policy=False
    )
    return value, m


def cmd_verify_lemma(args) -> int:
    lemma_id = args.lemma
    if lemma_id not in LEMMA_VALUES:
        print(f"error: unknown lemma id {lemma_id}", file=sys.stderr)
        return 2
    value = LEMMA_VALUES[lemma_id]
    cfg = lemma_config(lemma_id)
    lines = [
        f"lemma {lemma_id}: budget {format_rational(cfg.h)}, "
        f"claimed value {format_rational(value)}"
    ]

    bv, m = _lemma_best_response(lemma_id)
    hider_ok = bv == value
    lines.append(
        f"  best response to the Hider mix (m={m}): {format_rational(bv)} "
        f"[{'ok' if hider_ok else 'MISMATCH'}]"
    )

    mix = lemma_script(lemma_id)
    mn, argmin = script_min_win_prob(mix, cfg, Grid(args.scan_m))
    searcher_ok = mn == value
    lines.append(
        f"  script minimum win probability (scan m={args.scan_m}): "
        f"{format_rational(mn)} at {argmin} "
        f"[{'ok' if searcher_ok else 'MISMATCH'}]"
    )
    lines.append("script under test:")
    lines.append(format_script_mixture(mix))
    ok = hider_ok and searcher_ok
    lines.append("PASS" if ok else "FAIL")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def _table1_rows(args):
    cache = _cache_dir(args)
    for row in TABLE_ONE:
        if row.method == "proposition":
            computed = proposition_value(4, 2)
            status = "exact" if computed == row.value else "MISMATCH"
            note = "closed form"
        elif row.method == "lemma":
            computed, m = _lemma_best_response(row.lemma_id)
            status = "exact" if computed == row.value else "MISMATCH"
            note = f"verified mix, m={m}"
        else:
            cfg = GameConfig(n=4, k=2, h=row.h_lo)
            sol = solve_game_cached(cfg, Grid(row.solver_m), cache)
            computed = sol.value
            note = f"grid solve, m={row.solver_m}"
            if computed == row.value:
                status = "exact"
            elif computed > row.value:
                status = "upper bound"
            else:
                status = "MISMATCH"
        yield row, computed, note, status


def cmd_table1(args) -> int:
    lines = []
    ok = True
    if args.csv:
        lines.append("h_lo,h_hi,value,computed,method,status")
    for row, computed, note, status in _table1_rows(args):
        if status == "MISMATCH":
            ok = False
        lo, hi = format_rational(row.h_lo), format_rational(row.h_hi)
        if args.csv:
            lines.append(
                f"{lo},{hi},{format_rational(row.value)},"
                f"{format_rational(computed)},{row.method},{status}"
            )
        else:
            lines.append(
                f"h in [{lo},{hi}): value {format_rational(row.value)}, "
                f"computed {format_rational(computed)} ({note}) [{status}]"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def cmd_asymptotic(args) -> int:
    n = args.n
    h = parse_rational(args.h)
    lines = []
    if args.y is None:
        p = asymptotic_win_prob(n, h, "same-location")
        lines.append(f"same-location win probability: {format_rational(p)}")
        ok = True
    else:
        y = parse_rational(args.y)
        p = asymptotic_win_prob(n, h, ("split", y))
        bound = Fraction(h, n) - Fraction(2, n)
        ok = p >= bound
        lines.append(f"split({format_rational(y)}) win probability: {format_rational(p)}")
        lines.append(
            f"lower bound h/n - 2/n = {format_rational(bound)} "
            f"[{'ok' if ok else 'VIOLATED'}]"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def cmd_proposition(args) -> int:
    count = uniform_allocation_count(args.n, args.k)
    value = proposition_value(args.n, args.k)
    strategies = uniform_allocation_strategies(args.n, args.k)
    lines = [
        f"uniform allocations: {count}",
        f"value for h < 1 + 1/{args.k}: {format_rational(value)}",
    ]
    lines.extend(f"  {hp}" for hp in strategies)
    ok = len(strategies) == count
    lines.append("PASS" if ok else "FAIL")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def cmd_enumerate(args) -> int:
    cfg = GameConfig(n=args.n, k=args.k, h=Fraction(1))
    entries = enumerate_grid_hiders(cfg, Grid(args.m), reduce_symmetry=args.reduce)
    _emit(dump_enumeration(entries) + "\n", args.out)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the report to a file instead of stdout")


def _add_cache(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cache-dir", help=f"solution cache directory (default .cache, env {CACHE_ENV})")
    p.add_argument("--no-cache", action="store_true", help="disable the solution cache")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caching-game",
        description="Exact solver and verifier for a two-player caching game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one discretized game exactly")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", required=True, help='dig budget as "p/q"')
    p.add_argument("--m", type=int, required=True, help="grid resolution")
    _add_cache(p)
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify-lemma", help="check one solved interval both ways")
    p.add_argument("lemma", type=int, help="lemma id (2-5)")
    p.add_argument("--scan-m", type=int, default=60, help="scan grid for the script minimum")
    _add_common(p)
    p.set_defaults(func=cmd_verify_lemma)

    p = sub.add_parser("table1", help="recompute the n=4, k=2 value table")
    p.add_argument("--csv", action="store_true")
    _add_cache(p)
    _add_common(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("asymptotic", help="sweep-then-cap searcher win probability")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", required=True, help='dig budget as "p/q"')
    p.add_argument("--y", help="split depth; omit for the same-location Hider")
    _add_common(p)
    p.set_defaults(func=cmd_asymptotic)

    p = sub.add_parser("proposition", help="small-budget closed form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_proposition)

    p = sub.add_parser("enumerate", help="list grid Hider strategies")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--reduce", action="store_true", help="fold location relabelings")
    _add_common(p)
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
