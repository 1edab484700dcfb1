"""Grid discretization and exhaustive generation of Hider strategies.

Grid(m) restricts burial depths to {1/m, ..., m/m}. Restricting the Hider
can only help the Searcher, so values computed on a grid upper-bound the
continuous game value. Placements are generated as integer step tuples and
reduced to canonical step placements before any strategy is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .core import GameConfig, HiderPure, _canonical_key, _orbit_size, format_hider, relabelings


@dataclass(frozen=True)
class Grid:
    """Depth discretization into m equal steps."""

    m: int

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"grid resolution must be a positive integer, got {self.m!r}")


def _placements(n: int, k: int, m: int):
    """Yield per-location ascending step tuples with sum of maxima <= m."""

    def rec(loc, remaining, depth_budget):
        if loc == n:
            if remaining == 0:
                yield ()
            return
        # Leaving the location empty costs no depth budget.
        for rest in rec(loc + 1, remaining, depth_budget):
            yield ((),) + rest
        if depth_budget < 1:
            return
        for count in range(1, remaining + 1):
            for combo in itertools.combinations_with_replacement(
                range(1, depth_budget + 1), count
            ):
                for rest in rec(loc + 1, remaining - count, depth_budget - combo[-1]):
                    yield (combo,) + rest

    yield from rec(0, k, m)


def _hider(steps, m: int) -> HiderPure:
    return HiderPure(tuple(tuple(Fraction(s, m) for s in loc) for loc in steps))


def enumerate_grid_hiders(
    cfg: GameConfig, grid: Grid, reduce_symmetry: bool = False
) -> list[tuple[HiderPure, int]]:
    """All valid Hider strategies on the grid, with multiplicities.

    Unreduced, every strategy appears with weight 1. With symmetry
    reduction, one canonical representative per location-relabeling orbit
    appears with its orbit size as weight, so weights always sum to the
    unreduced count. The canonical form lists the location multisets in
    ascending lexicographic order with empty locations last; it is taken
    on the integer step placements, and one strategy is built per orbit.
    Output order is lexicographic and deterministic.
    """
    m = grid.m
    placements = _placements(cfg.n, cfg.k, m)
    if not reduce_symmetry:
        return [(_hider(steps, m), 1) for steps in sorted(placements)]
    canonical = {tuple(sorted(steps, key=_canonical_key)) for steps in placements}
    return [(_hider(steps, m), _orbit_size(steps)) for steps in sorted(canonical)]


def family_D(x: Fraction, cfg: GameConfig) -> list[HiderPure]:
    """Split strategies: one object at depth x, the other at 1-x elsewhere.

    The relabeling orbit of ((x), (1-x), 0, ...), sorted. Defined for
    two-object games and 0 < x < 1 (x = 1 would put the second object at
    depth 0, which valid strategies exclude). There are n(n-1) members,
    halved when x = 1/2 since the two objects become symmetric, and none
    for n = 1.
    """
    x = Fraction(x)
    if cfg.k != 2:
        raise ValueError("family_D is defined for k=2 games only")
    if not 0 < x < 1:
        raise ValueError("family_D requires 0 < x < 1")
    if cfg.n < 2:
        return []
    return relabelings(HiderPure(((x,), (1 - x,)) + ((),) * (cfg.n - 2)))


def family_E(x: Fraction, cfg: GameConfig) -> list[HiderPure]:
    """Stacked strategies: objects at depths x and 1 in a single location.

    The relabeling orbit of ({x,1}, 0, ...), sorted: n members.
    """
    x = Fraction(x)
    if cfg.k != 2:
        raise ValueError("family_E is defined for k=2 games only")
    if not 0 < x <= 1:
        raise ValueError("family_E requires 0 < x <= 1")
    return relabelings(HiderPure(((x, 1),) + ((),) * (cfg.n - 1)))


def dump_enumeration(entries: list[tuple[HiderPure, int]]) -> str:
    """Line-oriented dump: one `strategy<TAB>weight` row per entry."""
    return "\n".join(f"{format_hider(hp)}\t{weight}" for hp, weight in entries)
