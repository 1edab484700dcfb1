"""Named two-stage search scripts and closed-form strategies, evaluated exactly.

A script digs along a piecewise-linear schedule until the first find, then
switches to an intelligent search: visiting locations in a prescribed order,
each dug to its feasibility cap (full depth in the trigger location, 1 - d
elsewhere when the first object sat at depth d, since the burial constraint
bounds the partner object by 1 - d). Everything here is exact: a script is
evaluated in integers, with every depth scaled by the lcm of the
denominators in play and stage-2 weights by theirs, and each win
probability comes back as one Fraction. Win probabilities average over
location relabelings and any randomized stage-2 rules.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    DigProfile,
    GameConfig,
    HiderMixed,
    HiderPure,
    format_rational,
    relabeled_sets,
    validate_hider,
)
from .enumeration import Grid, family_D, family_E

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class ScriptOutcome:
    """Exact win probability of a script against one Hider strategy."""

    win_probability: Fraction

    def __post_init__(self):
        if not 0 <= self.win_probability <= 1:
            raise ValueError("win probability outside [0,1]")


@dataclass(frozen=True)
class SearcherScript:
    """A two-stage search plan.

    stage1 lists dig-profile waypoints; between consecutive waypoints the
    fronts move linearly in total-dig time (several locations may advance in
    the same segment). stage2_rules maps the location of the first find to a
    distribution over visit orders for the remaining search. The script is
    played under a uniformly random relabeling of the locations.
    """

    stage1: tuple[DigProfile, ...]
    stage2_rules: dict[int, tuple[tuple[tuple[int, ...], Fraction], ...]]

    def __post_init__(self):
        if not self.stage1:
            raise ValueError("empty stage-1 schedule")
        n = len(self.stage1[0])
        prev = (_ZERO,) * n
        for wp in self.stage1:
            if len(wp) != n:
                raise ValueError("waypoint length mismatch")
            if any(b < a for a, b in zip(prev, wp.depths)):
                raise ValueError("dig schedule decreases somewhere")
            prev = wp.depths
        for trigger, branches in self.stage2_rules.items():
            if not 0 <= trigger < n:
                raise ValueError(f"stage-2 trigger {trigger} out of range")
            if sum(p for _, p in branches) != 1 or any(p <= 0 for _, p in branches):
                raise ValueError("stage-2 probabilities must be positive and sum to 1")
            for sigma, _ in branches:
                if len(set(sigma)) != len(sigma) or any(not 0 <= j < n for j in sigma):
                    raise ValueError(f"bad visit order {sigma}")

    @property
    def n(self) -> int:
        return len(self.stage1[0])

    def total_depth(self) -> Fraction:
        return self.stage1[-1].total()


@dataclass(frozen=True)
class ScriptMixture:
    """A randomized choice between scripts, with exact weights."""

    components: tuple[tuple[SearcherScript, Fraction], ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("empty script mixture")
        if sum(p for _, p in self.components) != 1 or any(p <= 0 for _, p in self.components):
            raise ValueError("mixture weights must be positive and sum to 1")
        if len({s.n for s, _ in self.components}) != 1:
            raise ValueError("mixture mixes location counts")


def _components(script) -> tuple[tuple[SearcherScript, Fraction], ...]:
    if isinstance(script, ScriptMixture):
        return script.components
    return ((script, _ONE),)


def _validated_components(script, cfg: GameConfig):
    """The (script, weight) components, each checked to fit cfg."""
    components = _components(script)
    for component, _ in components:
        if component.n != cfg.n:
            raise ValueError(f"script is for {component.n} locations, config has {cfg.n}")
        if component.total_depth() > cfg.h:
            raise ValueError(
                f"script digs {format_rational(component.total_depth())}, budget is "
                f"{format_rational(cfg.h)}"
            )
    return components


@dataclass(frozen=True)
class _ScaledScript:
    """A script in integers: depths times a common unit L, so depth 1 is
    unit and the budget is h * unit; stage-2 weights times their lcm q."""

    stage1: tuple[tuple[int, ...], ...]
    rules: dict[int, tuple[tuple[tuple[int, ...], int], ...]]
    q: int
    unit: int
    budget: int


def _scale_depth(d: Fraction, unit: int) -> int:
    return d.numerator * (unit // d.denominator)


def _scale_sets(sets, unit: int):
    return tuple(tuple(_scale_depth(d, unit) for d in s) for s in sets)


def _scaled_script(script: SearcherScript, unit: int, h: Fraction) -> _ScaledScript:
    rules = script.stage2_rules
    q = math.lcm(*(p.denominator for branches in rules.values() for _, p in branches))
    return _ScaledScript(
        tuple(tuple(_scale_depth(d, unit) for d in wp.depths) for wp in script.stage1),
        {
            trigger: tuple((sigma, _scale_depth(p, q)) for sigma, p in branches)
            for trigger, branches in rules.items()
        },
        q,
        unit,
        _scale_depth(h, unit),
    )


def _scale(components, h: Fraction, depths):
    """The lcm L of the denominators of h, of every waypoint depth and of
    depths, with each (script, weight) component rescaled over it."""
    waypoints = (d for c, _ in components for wp in c.stage1 for d in wp.depths)
    unit = math.lcm(h.denominator, *(d.denominator for d in itertools.chain(waypoints, depths)))
    return unit, [(_scaled_script(c, unit, h), weight) for c, weight in components]


def _stage1_outcome(stage1, sets):
    """Walk stage 1 to the first find, in integer depths.

    Each object's find time within a segment is the fraction
    (d - lo) / (hi - lo), compared by cross-multiplying; ties are hits in
    object order. Returns ("win", None) when every object is found at one
    instant, ("find", (profile, fd, location, depth, remaining_objects)) at a
    single first find, with the profile at the find as integers over
    unit * fd, fd = hi - lo, or ("none", None) when the schedule ends dry.
    """
    objects = [(loc, d) for loc, s in enumerate(sets) for d in s]
    prev = (0,) * len(sets)
    for cur in stage1:
        num = fd = 0
        hits = []
        for idx, (loc, d) in enumerate(objects):
            lo, hi = prev[loc], cur[loc]
            if lo < d <= hi:
                order = (d - lo) * fd - num * (hi - lo)
                if not hits or order < 0:
                    num, fd = d - lo, hi - lo
                    hits = [idx]
                elif order == 0:
                    hits.append(idx)
        if hits:
            if len(hits) == len(objects):
                return "win", None
            idx = hits[0]
            loc, d = objects[idx]
            profile = tuple(a * fd + num * (b - a) for a, b in zip(prev, cur))
            remaining = [o for i, o in enumerate(objects) if i != idx]
            return "find", (profile, fd, loc, d, remaining)
        prev = cur
    return "none", None


def _is_dig_win(trigger_loc, trigger_depth, profile, fd, sigma, remaining, unit, budget) -> bool:
    """Stage 2: visit sigma, digging each location to its cap.

    Depths are integers over unit * fd: profile is the dig profile at the
    find, trigger_depth, the remaining object's depth and budget (h) are
    over unit alone. The cap is full depth in the trigger location and
    1 - trigger_depth elsewhere.
    """
    (loc2, d2) = remaining[0]
    d2 *= fd
    cur = list(profile)
    budget = budget * fd - sum(cur)
    full = unit * fd
    capped = (unit - trigger_depth) * fd
    for j in sigma:
        cap = full if j == trigger_loc else capped
        if cap <= cur[j]:
            continue
        if j == loc2 and cur[j] < d2 <= cap:
            return d2 - cur[j] <= budget
        cost = cap - cur[j]
        if cost >= budget:
            return False
        budget -= cost
        cur[j] = cap
    return False


def is_dig(
    first_find: tuple[int, Fraction],
    profile_at_find: DigProfile,
    sigma: tuple[int, ...],
    cfg: GameConfig,
    hp: HiderPure,
) -> bool:
    """Outcome of the intelligent search after a single first find.

    Locations are 0-based. The first find is removed from hp, and the
    remaining object is hunted through sigma under the feasibility caps.
    """
    loc0, d = first_find
    d = Fraction(d)
    objects = hp.objects()
    try:
        objects.remove((loc0, d))
    except ValueError:
        raise ValueError("first_find is not an object of the given strategy") from None
    if len(objects) != 1:
        raise ValueError("intelligent search assumes exactly two objects")
    depths = [cfg.h, d, *profile_at_find.depths, *(e for _, e in objects)]
    unit = math.lcm(*(e.denominator for e in depths))
    return _is_dig_win(
        loc0,
        _scale_depth(d, unit),
        tuple(_scale_depth(e, unit) for e in profile_at_find.depths),
        1,
        sigma,
        [(loc, _scale_depth(e, unit)) for loc, e in objects],
        unit,
        _scale_depth(cfg.h, unit),
    )


def _win_prob_fixed(script: _ScaledScript, sets) -> int:
    """Win probability against one fixed arrangement (no relabeling) of
    integer depths, as a numerator over script.q."""
    kind, info = _stage1_outcome(script.stage1, sets)
    if kind == "win":
        return script.q
    if kind == "none":
        return 0
    profile, fd, loc, d, remaining = info
    branches = script.rules.get(loc)
    if branches is None:
        raise ValueError(f"no stage-2 rule for a find in location {loc + 1}")
    total = 0
    for sigma, p in branches:
        if _is_dig_win(loc, d, profile, fd, sigma, remaining, script.unit, script.budget):
            total += p
    return total


def _win_prob(script: _ScaledScript, sets, relabel: bool) -> Fraction:
    if not relabel:
        return Fraction(_win_prob_fixed(script, sets), script.q)
    arrs = relabeled_sets(sets)
    total = sum(_win_prob_fixed(script, a) for a in arrs)
    return Fraction(total, script.q * len(arrs))


def _mixture_win_prob(components, sets, relabel: bool) -> Fraction:
    """Weighted win probability of scaled script components against sets."""
    total = _ZERO
    for component, weight in components:
        total += weight * _win_prob(component, sets, relabel)
    return total


def script_win_prob(
    script, hp: HiderPure, cfg: GameConfig, *, relabel: bool = True
) -> ScriptOutcome:
    """Exact win probability of a script (or mixture) against hp.

    Averages over location relabelings (relabel=False evaluates hp's own
    arrangement only) and over all stage-2 randomization. Both objects
    found during stage 1 at one instant is an immediate win; a dry stage 1
    loses.
    """
    if cfg.k != 2:
        raise ValueError("scripts assume exactly two objects")
    violation = validate_hider(hp, cfg)
    if violation is not None:
        raise ValueError(f"invalid Hider strategy: {violation}")
    components = _validated_components(script, cfg)
    unit, scaled = _scale(components, cfg.h, [d for s in hp.sets for d in s])
    return ScriptOutcome(_mixture_win_prob(scaled, _scale_sets(hp.sets, unit), relabel))


def _scan_values(script, cfg: GameConfig, scan: Grid) -> list[Fraction]:
    """Scan depths: the grid plus script breakpoints and their midpoints."""
    breaks = {_ZERO, _ONE, cfg.h - 1, 2 - cfg.h}
    for component, _ in _components(script):
        for wp in component.stage1:
            for d in wp.depths:
                breaks.add(d)
                breaks.add(_ONE - d)
    breaks = {b for b in breaks if 0 <= b <= 1}
    values = {Fraction(t, scan.m) for t in range(1, scan.m + 1)}
    values.update(b for b in breaks if b > 0)
    for b1, b2 in itertools.combinations(sorted(breaks), 2):
        mid = (b1 + b2) / 2
        if mid > 0:
            values.add(mid)
    return sorted(values)


def script_min_win_prob(script, cfg: GameConfig, scan: Grid) -> tuple[Fraction, HiderPure]:
    """Minimum of script_win_prob over scanned two-object Hider strategies.

    Scans both objects in one location (any depth pair) and in two locations
    (depth sum at most 1) over the scan grid refined by script breakpoints.
    The win probability is piecewise constant between breakpoints, so a
    refining scan pins the global minimum. Returns the minimum and a
    strategy attaining it.
    """
    if cfg.k != 2:
        raise ValueError("the scan assumes exactly two objects")
    components = _validated_components(script, cfg)
    values = _scan_values(script, cfg, scan)
    unit, scaled = _scale(components, cfg.h, values)
    values = [_scale_depth(v, unit) for v in values]
    pad = ((),) * (cfg.n - 2)

    best = None
    best_sets = None
    for i, x in enumerate(values):
        for y in values[: i + 1]:
            candidates = [((y, x),) + ((),) * (cfg.n - 1)]
            if x + y <= unit:
                candidates.append(((x,), (y,)) + pad)
            for sets in candidates:
                p = _mixture_win_prob(scaled, sets, True)
                if best is None or p < best:
                    best = p
                    best_sets = sets
    return best, HiderPure(tuple(tuple(Fraction(d, unit) for d in s) for s in best_sets))


def _script(stage1, rules) -> SearcherScript:
    waypoints = tuple(
        DigProfile(tuple(Fraction(x) for x in wp.split())) for wp in stage1
    )
    stage2 = {}
    for trigger, branches in rules.items():
        stage2[trigger - 1] = tuple(
            (tuple(j - 1 for j in sigma), Fraction(p)) for sigma, p in branches
        )
    return SearcherScript(waypoints, stage2)


LEMMA_VALUES = {
    2: Fraction(1, 4),
    3: Fraction(9, 20),
    4: Fraction(9, 40),
    5: Fraction(7, 30),
}

LEMMA_BUDGETS = {
    2: Fraction(11, 6),
    3: Fraction(11, 5),
    4: Fraction(7, 4),
    5: Fraction(9, 5),
}

LEMMA_GRIDS = {2: 6, 3: 15, 4: 20, 5: 30}


def lemma_config(lemma_id: int) -> GameConfig:
    if lemma_id not in LEMMA_VALUES:
        raise ValueError(f"unknown lemma id {lemma_id}")
    return GameConfig(n=4, k=2, h=LEMMA_BUDGETS[lemma_id])


def lemma_hider(lemma_id: int) -> HiderMixed:
    """The equiprobable optimal Hider mix for one solved budget interval."""
    cfg = lemma_config(lemma_id)
    F = Fraction
    families = {
        2: [family_E(F(1), cfg)],
        3: [family_D(F(1, 3), cfg), family_E(F(1, 3), cfg), family_E(F(2, 3), cfg)],
        4: [
            family_D(F(1, 5), cfg),
            family_D(F(2, 5), cfg),
            family_E(F(1, 5), cfg),
            family_E(F(2, 5), cfg),
            family_E(F(3, 5), cfg),
            family_E(F(4, 5), cfg),
        ],
        5: [
            family_D(F(1, 6), cfg),
            family_D(F(1, 2), cfg),
            family_E(F(1, 6), cfg),
            family_E(F(1, 2), cfg),
            family_E(F(5, 6), cfg),
        ],
    }
    support = [hp for family in families[lemma_id] for hp in family]
    return HiderMixed.uniform(support)


def lemma_script(lemma_id: int) -> ScriptMixture:
    """The optimal Searcher script (as printed) for one solved interval.

    One stage-2 rule deviates from its printed form: the rule for a first
    find in the second location under the h in [11/6, 2) script continues
    in locations 1, 3, 4. The printed order starts at location 2, but that
    order cannot reach the partner object in location 1 and is inconsistent
    with the winning digs this same source derives case by case; the
    corrected order reproduces the stated value, the printed one does not.
    """
    F = Fraction
    if lemma_id == 2:
        return ScriptMixture(
            (
                (
                    _script(
                        ["1/2 0 0 0", "1/2 1/2 0 0", "1 1/2 0 0"],
                        {1: [((1, 2, 3, 4), 1)], 2: [((1, 3, 4), 1)]},
                    ),
                    F(1),
                ),
            )
        )
    if lemma_id == 3:
        return ScriptMixture(
            (
                (
                    _script(
                        [
                            "3/5 0 0 0",
                            "3/5 2/5 0 0",
                            "4/5 3/5 0 0",
                            "4/5 4/5 0 0",
                            "1 4/5 0 0",
                            "1 1 0 0",
                        ],
                        {
                            1: [((1, 2, 3, 4), 1)],
                            2: [((1, 2, 3, 4), F(4, 5)), ((1, 3, 4), F(1, 5))],
                        },
                    ),
                    F(1),
                ),
            )
        )
    if lemma_id == 4:
        script_a = _script(
            ["3/4 0 0 0", "3/4 1/4 0 0", "1 1/4 0 0", "1 3/4 0 0"],
            {1: [((1, 2, 3, 4), 1)], 2: [((1, 3, 4), 1)]},
        )
        script_b = _script(
            ["3/4 0 0 0", "3/4 3/4 0 0", "1 3/4 0 0"],
            {
                1: [((1, 2, 3, 4), F(3, 5)), ((2, 3, 4), F(2, 5))],
                2: [((1, 3, 4), 1)],
            },
        )
        return ScriptMixture(((script_a, F(3, 4)), (script_b, F(1, 4))))
    if lemma_id == 5:
        script_a = _script(
            ["1 0 0 0", "1 4/5 0 0"],
            {1: [((1, 2, 3, 4), 1)], 2: [((3, 4), 1)]},
        )
        script_b = _script(
            ["3/5 0 0 0", "3/5 3/5 0 0", "1 3/5 0 0", "1 4/5 0 0"],
            {
                1: [((1, 2, 3, 4), F(4, 5)), ((2, 3, 4), F(1, 5))],
                2: [((1, 3, 4), 1)],
            },
        )
        return ScriptMixture(((script_a, F(2, 3)), (script_b, F(1, 3))))
    raise ValueError(f"unknown lemma id {lemma_id}")


def format_is_rule(branches) -> str:
    parts = []
    for sigma, p in branches:
        name = "IS(" + "".join(str(j + 1) for j in sigma) + ")"
        if p == 1:
            parts.append(name)
        else:
            parts.append(f"{name} w.p. {format_rational(p)}")
    return " | ".join(parts)


def format_script(script: SearcherScript) -> str:
    stage1 = ",".join(
        "(" + ",".join(format_rational(d) for d in wp.depths) + ")"
        for wp in script.stage1
    )
    rules = "; ".join(
        f"L{trigger + 1} -> {format_is_rule(branches)}"
        for trigger, branches in sorted(script.stage2_rules.items())
    )
    return f"Stage 1: {stage1}; Stage 2: {rules}"


def format_script_mixture(mixture) -> str:
    components = _components(mixture)
    if len(components) == 1:
        return format_script(components[0][0])
    return "\n".join(
        f"w.p. {format_rational(p)}: {format_script(s)}" for s, p in components
    )


@dataclass(frozen=True)
class RegimeTable:
    """One published table of per-arrangement minimum win probabilities.

    Arrangements are 4-character patterns over {x, y, 0} placing the deeper
    object x and the shallower y; x ranges over [x_lo, x_hi] and y over
    (0, min(x, 1 - x)]. Classes pairing two patterns share one minimum.
    """

    lemma_id: int
    x_lo: Fraction
    x_hi: Fraction
    classes: tuple[tuple[tuple[str, ...], Fraction], ...]


SEARCHER_TABLES = (
    RegimeTable(
        4,
        Fraction(3, 4),
        Fraction(1),
        (
            (("xy00",), Fraction(1)),
            (("yx00",), Fraction(1, 10)),
            (("x0y0",), Fraction(17, 20)),
            (("x00y",), Fraction(3, 4)),
        ),
    ),
    RegimeTable(
        4,
        Fraction(0),
        Fraction(3, 4),
        (
            (("xy00", "yx00"), Fraction(1)),
            (("x0y0", "y0x0"), Fraction(1, 10)),
            (("0xy0", "0yx0"), Fraction(1, 4)),
        ),
    ),
    RegimeTable(
        5,
        Fraction(4, 5),
        Fraction(1),
        (
            (("xy00",), Fraction(1)),
            (("yx00",), Fraction(1, 15)),
            (("x0y0",), Fraction(1)),
            (("x00y",), Fraction(11, 15)),
        ),
    ),
    RegimeTable(
        5,
        Fraction(3, 5),
        Fraction(4, 5),
        (
            (("xy00",), Fraction(1)),
            (("yx00",), Fraction(1)),
            (("x0y0",), Fraction(11, 15)),
            (("y0x0",), Fraction(1, 15)),
            (("0yx0",), Fraction(1, 3)),
        ),
    ),
    RegimeTable(
        5,
        Fraction(0),
        Fraction(3, 5),
        (
            (("xy00", "yx00"), Fraction(1)),
            (("x0y0", "y0x0"), Fraction(1, 15)),
            (("0xy0", "0yx0"), Fraction(1, 3)),
        ),
    ),
)


def arrangement_sets(pattern: str, x: Fraction, y: Fraction):
    mapping = {"x": (x,), "y": (y,), "0": ()}
    return tuple(mapping[ch] for ch in pattern)


def table_class_min(
    table: RegimeTable, patterns, scan_m: int = 60
) -> tuple[Fraction, tuple[str, Fraction, Fraction]]:
    """Scan one table class: min over the regime of the fixed-arrangement
    win probability, with an (arrangement, x, y) witness."""
    cfg = lemma_config(table.lemma_id)
    components = _components(lemma_script(table.lemma_id))
    unit, scaled = _scale(components, cfg.h, [Fraction(1, scan_m)])
    step = unit // scan_m
    best = None
    witness = None
    for tx in range(1, scan_m + 1):
        if not table.x_lo <= Fraction(tx, scan_m) <= table.x_hi:
            continue
        for ty in range(1, min(tx, scan_m - tx) + 1):
            for pattern in patterns:
                sets = arrangement_sets(pattern, tx * step, ty * step)
                p = _mixture_win_prob(scaled, sets, False)
                if best is None or p < best:
                    best = p
                    witness = (pattern, Fraction(tx, scan_m), Fraction(ty, scan_m))
    return best, witness


def searcher_table_report(scan_m: int = 60) -> str:
    """Recompute every published per-arrangement minimum; table-shaped text."""
    lines = []
    for table in SEARCHER_TABLES:
        lines.append(
            f"regime: x in [{format_rational(table.x_lo)},"
            f"{format_rational(table.x_hi)}], budget "
            f"{format_rational(LEMMA_BUDGETS[table.lemma_id])}"
        )
        for patterns, expected in table.classes:
            got, witness = table_class_min(table, patterns, scan_m)
            status = "ok" if got == expected else "MISMATCH"
            name = " or ".join(patterns)
            lines.append(
                f"  {name}: expected {format_rational(expected)}, "
                f"computed {format_rational(got)} [{status}]"
            )
    return "\n".join(lines)


def asymptotic_win_prob(n: int, h, hider) -> Fraction:
    """Win probability of the sweep-then-cap Searcher for large games.

    The Searcher digs locations to depth 1 in random order; after a first
    find at depth y he continues through the remaining locations digging
    each to depth 1 - y. hider is "same-location" or ("split", y) with the
    objects at depths y and 1 - y in distinct locations.
    """
    h = Fraction(h)
    if not (n >= 2 and 1 <= h < n):
        raise ValueError("need n >= 2 and 1 <= h < n")
    if hider == "same-location":
        return Fraction(math.floor(h), n)
    if not (isinstance(hider, tuple) and len(hider) == 2 and hider[0] == "split"):
        raise ValueError('hider must be "same-location" or ("split", y)')
    y = Fraction(hider[1])
    if not 0 < y <= Fraction(1, 2):
        raise ValueError("split depth must lie in (0, 1/2]")
    deep = 1 - y
    wins = 0
    for i in range(1, n + 1):
        # shallow object at position i, deep at a later position j
        j_hi = min(n, math.floor((h + 1 - y - i * y) / deep))
        if j_hi > i:
            wins += j_hi - i
        # deep object at an earlier position j
        j_hi = min(i - 1, math.floor((h + y - i * y) / deep))
        if j_hi >= 1:
            wins += j_hi
    return Fraction(wins, n * (n - 1))


def asymptotic_lattice_count(n: int, h, y) -> int:
    """Points (i, j) in [1,n]^2 with i*y + j*(1-y) <= h: the sufficient
    win region used for the h/n - 2/n lower bound."""
    h = Fraction(h)
    y = Fraction(y)
    count = 0
    for i in range(1, n + 1):
        j_hi = min(n, math.floor((h - i * y) / (1 - y)))
        if j_hi >= 1:
            count += j_hi
    return count


def _weak_compositions(k: int, n: int):
    for dividers in itertools.combinations(range(k + n - 1), n - 1):
        prev = -1
        parts = []
        for d in dividers:
            parts.append(d - prev - 1)
            prev = d
        parts.append(k + n - 2 - prev)
        yield tuple(parts)


def _require_locations_and_objects(n: int, k: int) -> None:
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")


def uniform_allocation_count(n: int, k: int) -> int:
    _require_locations_and_objects(n, k)
    return math.comb(n + k - 1, k)


def proposition_value(n: int, k: int) -> Fraction:
    """Game value for small budgets (h < 1 + 1/k): one over the number of
    uniform allocations."""
    return Fraction(1, uniform_allocation_count(n, k))


MAX_UNIFORM_ALLOCATIONS = 100_000


def uniform_allocation_strategies(n: int, k: int) -> list[HiderPure]:
    """Every placement of k_i objects at depths 1/k..k_i/k per location.

    Raises ValueError, before listing any, when there are more than
    MAX_UNIFORM_ALLOCATIONS of them.
    """
    count = uniform_allocation_count(n, k)
    if count > MAX_UNIFORM_ALLOCATIONS:
        raise ValueError(
            f"{count} uniform allocations for n={n}, k={k}: "
            f"listing is limited to {MAX_UNIFORM_ALLOCATIONS}"
        )
    out = []
    for comp in _weak_compositions(k, n):
        sets = tuple(
            tuple(Fraction(i, k) for i in range(1, ki + 1)) for ki in comp
        )
        out.append(HiderPure(sets))
    return out


def uniform_distribution_strategies(n: int, k: int) -> list[tuple[int, ...]]:
    """Searcher guesses: dig location i until k_i objects are found."""
    _require_locations_and_objects(n, k)
    return list(_weak_compositions(k, n))


@dataclass(frozen=True)
class TableOneRow:
    """One budget interval of the solved n=4, k=2 value table."""

    h_lo: Fraction
    h_hi: Fraction
    value: Fraction
    method: str
    lemma_id: int | None = None
    solver_m: int | None = None


TABLE_ONE = (
    TableOneRow(Fraction(1), Fraction(3, 2), Fraction(1, 10), "proposition"),
    TableOneRow(Fraction(3, 2), Fraction(5, 3), Fraction(3, 20), "solver", solver_m=8),
    TableOneRow(Fraction(5, 3), Fraction(7, 4), Fraction(1, 5), "solver", solver_m=12),
    TableOneRow(Fraction(7, 4), Fraction(9, 5), Fraction(9, 40), "lemma", lemma_id=4),
    TableOneRow(Fraction(9, 5), Fraction(11, 6), Fraction(7, 30), "lemma", lemma_id=5),
    TableOneRow(Fraction(11, 6), Fraction(2), Fraction(1, 4), "lemma", lemma_id=2),
    TableOneRow(Fraction(2), Fraction(11, 5), Fraction(2, 5), "solver", solver_m=5),
    TableOneRow(Fraction(11, 5), Fraction(7, 3), Fraction(9, 20), "lemma", lemma_id=3),
    TableOneRow(Fraction(7, 3), Fraction(3), Fraction(1, 2), "solver", solver_m=1),
    TableOneRow(Fraction(3), Fraction(4), Fraction(3, 4), "solver", solver_m=1),
)
