"""Named two-stage search scripts and closed-form strategies, evaluated exactly.

A script digs along a piecewise-linear schedule until the first find, then
switches to an intelligent search: visiting locations in a prescribed order,
each dug to its feasibility cap (full depth in the trigger location, 1 - d
elsewhere when the first object sat at depth d, since the burial constraint
bounds the partner object by 1 - d). Everything here is exact: a script is
evaluated in integers, with every depth scaled by the lcm of the
denominators in play and stage-2 weights by theirs, and each win
probability comes back as one Fraction. Each call builds two tables per
script over the indices of its sorted depths: the rank of each
(location, depth)'s stage-1 find time and, per first find, the index ranges
of second-object depths that each stage-2 branch reaches. One placement is
then two ranks and a range test per branch; a scan adds each first find's
ranges once to a difference row, so a row of placements costs one running
sum. Win probabilities average over location relabelings and any randomized
stage-2 rules.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    DigProfile,
    GameConfig,
    HiderMixed,
    HiderPure,
    format_rational,
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
        n = len(self.stage1[0].depths)
        prev = (_ZERO,) * n
        for wp in self.stage1:
            if len(wp.depths) != n:
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
        return len(self.stage1[0].depths)

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


def _scale_depth(d: Fraction, unit: int) -> int:
    return d.numerator * (unit // d.denominator)


class _Tables:
    """One script in integers, with its rank and range tables over one
    call's sorted depths V.

    Depths are scaled by unit, so depth 1 is unit and the budget is
    h * unit; stage-2 weights are scaled by their lcm q. rank[loc][i] ranks
    the instant at which stage 1 first reaches depth V[i] in location loc:
    lower ranks are earlier and equal ranks are one instant. Within a
    segment that is the fraction num / fd of the location's advance
    fd = hi - lo, put over the lcm of the segment's advances. A depth the
    schedule never reaches ranks never, after every find. hits[loc][i] is
    filled lazily, once stage 1 first finds (loc, V[i]); see ranges.
    """

    def __init__(self, script: SearcherScript, unit: int, h: Fraction, values):
        self.unit = unit
        self.budget = _scale_depth(h, unit)
        self.stage1 = tuple(tuple(_scale_depth(d, unit) for d in wp.depths) for wp in script.stage1)
        rules = script.stage2_rules
        self.q = math.lcm(*(p.denominator for branches in rules.values() for _, p in branches))
        self.rules = {
            trigger: tuple((sigma, _scale_depth(p, self.q)) for sigma, p in branches)
            for trigger, branches in rules.items()
        }
        self.values = values
        self._at = {}  # (loc, i) -> (segment, num, fd)
        times = {}
        prev = (0,) * script.n
        for seg, cur in enumerate(self.stage1):
            advances = [(loc, a, b) for loc, (a, b) in enumerate(zip(prev, cur)) if a < b]
            span = math.lcm(*(b - a for _, a, b in advances))
            for loc, lo, hi in advances:
                for i in range(bisect.bisect_right(values, lo), bisect.bisect_right(values, hi)):
                    self._at[loc, i] = (seg, values[i] - lo, hi - lo)
                    times[loc, i] = (seg, (values[i] - lo) * (span // (hi - lo)))
            prev = cur
        order = {t: r for r, t in enumerate(sorted(set(times.values())))}
        self.never = len(order)
        self.rank = [[self.never] * len(values) for _ in range(script.n)]
        for (loc, i), t in times.items():
            self.rank[loc][i] = order[t]
        self.hits = [[None] * len(values) for _ in range(script.n)]

    def find(self, loc: int, i: int):
        """The dig profile when stage 1 finds (loc, V[i]), as integers over
        unit * fd, and fd."""
        seg, num, fd = self._at[loc, i]
        prev = self.stage1[seg - 1] if seg else (0,) * len(self.stage1[0])
        return tuple(a * fd + num * (b - a) for a, b in zip(prev, self.stage1[seg])), fd

    def ranges(self, loc: int, i: int):
        """hits[loc][i]: per location b, the (s, e, p) index ranges after a
        first find of (loc, V[i]), one per stage-2 branch of weight p whose
        visit reaches a second object at (b, V[j]) exactly for s <= j < e."""
        rule = self.rules.get(loc)
        if rule is None:
            raise ValueError(f"no stage-2 rule for a find in location {loc + 1}")
        profile, fd = self.find(loc, i)
        entry = tuple([] for _ in profile)
        for sigma, p in rule:
            windows = _windows(loc, self.values[i], profile, fd, sigma, self.unit, self.budget)
            # lo < d * fd <= hi for an integer depth d means lo // fd < d <= hi // fd
            for out, (lo, hi) in zip(entry, windows):
                s = bisect.bisect_right(self.values, lo // fd)
                e = bisect.bisect_right(self.values, hi // fd)
                if s < e:
                    out.append((s, e, p))
        self.hits[loc][i] = entry
        return entry


def _windows(trigger_loc, trigger_depth, profile, fd, sigma, unit, budget):
    """Stage 2: visit sigma, digging each location to its cap.

    Depths are integers over unit * fd: profile is the dig profile at the
    find, trigger_depth and budget (h) are over unit alone. The cap is full
    depth in the trigger location and 1 - trigger_depth elsewhere. Returns,
    per location, the window (lo, hi] of second-object depths that the
    visit reaches within the budget; it is empty for a location the visit
    skips or reaches only after the budget has run out.
    """
    windows = [(0, 0)] * len(profile)
    left = budget * fd - sum(profile)
    full = unit * fd
    capped = (unit - trigger_depth) * fd
    for j in sigma:
        cap = full if j == trigger_loc else capped
        lo = profile[j]
        if cap <= lo:
            continue
        windows[j] = (lo, min(cap, lo + left))
        if cap - lo >= left:
            break
        left -= cap - lo
    return tuple(windows)


def _win_prob(tables: _Tables, pairs, i: int, j: int) -> int:
    """Wins against the placements (a, V[i]), (b, V[j]) for each location
    pair (a, b) in pairs, as a numerator over q * len(pairs). The earlier
    find is the first find; finds at one instant win, no find loses."""
    rank, hits, never = tables.rank, tables.hits, tables.never
    wins = 0
    for a, b in pairs:
        first, second = rank[a][i], rank[b][j]
        if first == second:
            wins += tables.q if first != never else 0
            continue
        if first < second:
            ranges, k = (hits[a][i] or tables.ranges(a, i))[b], j
        else:
            ranges, k = (hits[b][j] or tables.ranges(b, j))[a], i
        for s, e, p in ranges:
            if s <= k < e:
                wins += p
    return wins


def _win_prob_fixed(tables: _Tables, a: int, i: int, b: int, j: int) -> int:
    """Wins against the one placement (a, V[i]), (b, V[j]), over q. The
    scans do not call it; bench/tracing.py still hooks the name."""
    return _win_prob(tables, ((a, b),), i, j)


def _location_pairs(n: int, stacked: bool):
    """A placement's relabelings as location pairs, each distinct relabeling
    equally often: (a, a) per location if stacked, else each ordered pair."""
    if stacked:
        return [(a, a) for a in range(n)]
    return list(itertools.permutations(range(n), 2))


def _script_tables(script, cfg: GameConfig, depths):
    """A script (or mixture) in integers over the sorted Fraction depths:
    D, [(weight * D / q, tables)], one entry per (script, weight) component,
    each checked to fit cfg, with the weights over one denominator D.

    Depths are scaled by unit, the lcm of the denominators of h, of every
    waypoint depth and of depths; each _Tables holds unit, and the scaled
    depths as its values.
    """
    components = _components(script)
    for component, _ in components:
        if component.n != cfg.n:
            raise ValueError(f"script is for {component.n} locations, config has {cfg.n}")
        if component.total_depth() > cfg.h:
            raise ValueError(
                f"script digs {format_rational(component.total_depth())}, budget is "
                f"{format_rational(cfg.h)}"
            )
    waypoints = (d for c, _ in components for wp in c.stage1 for d in wp.depths)
    unit = math.lcm(
        cfg.h.denominator, *(d.denominator for d in itertools.chain(waypoints, depths))
    )
    values = [_scale_depth(d, unit) for d in depths]
    tables = [(_Tables(c, unit, cfg.h, values), w) for c, w in components]
    den = math.lcm(*(w.denominator * t.q for t, w in tables))
    return den, [(w.numerator * (den // (w.denominator * t.q)), t) for t, w in tables]


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
    (a, x), (b, y) = hp.objects()
    values = sorted({x, y})
    den, weighted = _script_tables(script, cfg, values)
    pairs = _location_pairs(cfg.n, a == b) if relabel else [(a, b)]
    i, j = values.index(x), values.index(y)
    wins = sum(f * _win_prob(tables, pairs, i, j) for f, tables in weighted)
    return ScriptOutcome(Fraction(wins, den * len(pairs)))


MAX_SCAN_M = 1000


def _require_scan_m(m: int) -> None:
    if not 1 <= m <= MAX_SCAN_M:
        raise ValueError(f"scan grid m={m}: scans are limited to 1 <= m <= {MAX_SCAN_M}")


def _scan_values(script, cfg: GameConfig, scan: Grid) -> list[Fraction]:
    """Scan depths: the grid plus script breakpoints and their midpoints."""
    breaks = {_ZERO, _ONE, cfg.h - 1, 2 - cfg.h}
    for component, _ in _components(script):
        breaks.update(e for wp in component.stage1 for d in wp.depths for e in (d, _ONE - d))
    breaks = {b for b in breaks if 0 <= b <= 1}
    values = {Fraction(t, scan.m) for t in range(1, scan.m + 1)}
    values.update(b for b in breaks if b > 0)
    for b1, b2 in itertools.combinations(sorted(breaks), 2):
        mid = (b1 + b2) / 2
        if mid > 0:
            values.add(mid)
    return sorted(values)


def _row_sums(weighted, pairs, rows: range, fit: bool):
    """Yield, per row i of rows, the wins sum(f * _win_prob(tables, pairs,
    i, j) for f, tables in weighted) for j = 0..J: every j <= i, and only
    while V[i] + V[j] <= unit if fit.

    Within a location, rank strictly increases along the sorted depths until
    never. So a first find (a, V[i]) wins against the cells (b, V[j]) of its
    ranges hits[a][i][b] clipped to the j of a later rank, and ties at one j
    at most: it adds those ranges once to a difference row. Where the object
    at (b, V[j]) is found first, its ranges run down column j instead: they
    are added to a running column sum between events at their range ends.
    Only first finds inside the region get their ranges; live memory is one
    row and the pending events.
    """
    values, unit = weighted[0][1].values, weighted[0][1].unit
    col = [0] * len(values)
    events = [[] for _ in range(rows.stop)]
    for r in range(rows.stop):
        # the last row of column r, which is also the last column of row r
        reach = bisect.bisect_right(values, unit - values[r]) - 1 if fit else len(values) - 1
        first_row, last_row = max(r, rows.start), min(rows.stop - 1, reach)
        for f, t in weighted if first_row <= last_row else ():
            for a, b in pairs:
                found = t.rank[b][r]
                if found == t.never:
                    continue
                start = max(first_row, bisect.bisect_right(t.rank[a], found))
                for s, e, p in (t.hits[b][r] or t.ranges(b, r))[a] if start <= last_row else ():
                    s, e = max(s, start), min(e, last_row + 1)
                    if s < e:
                        events[s].append((r, f * p))
                    if s < e <= last_row:
                        events[e].append((r, -f * p))
        for j, w in events[r]:
            col[j] += w
        events[r] = None
        if r < rows.start:
            continue
        last = min(r, reach)
        diff = [0] * (last + 2)
        for f, t in weighted:
            for a, b in pairs:
                found = t.rank[a][r]
                if found == t.never:
                    continue
                cut = bisect.bisect_right(t.rank[b], found, 0, last + 1)
                tie = bisect.bisect_left(t.rank[b], found, 0, cut)
                if tie < cut:
                    diff[tie] += f * t.q
                    diff[tie + 1] -= f * t.q
                for s, e, p in (t.hits[a][r] or t.ranges(a, r))[b] if cut <= last else ():
                    s, e = max(s, cut), min(e, last + 1)
                    if s < e:
                        diff[s] += f * p
                        diff[e] -= f * p
        yield list(map(operator.add, itertools.accumulate(diff), col[: last + 1]))


def _scan_min(rows, sums):
    """(wins, i, j, k) of the least cell yielded: column j of row i of
    sums[k], the first in (i, j, k) order; None when no row has a cell."""
    best = None
    for i, *row in zip(rows, *sums):
        for k, cells in enumerate(row):
            if cells:
                least = min(cells)
                j = cells.index(least)
                if best is None or least < best[0] or ((least, i) == best[:2] and j < best[2]):
                    best = least, i, j, k
    return best


def script_min_win_prob(script, cfg: GameConfig, scan: Grid) -> tuple[Fraction, HiderPure]:
    """Minimum of script_win_prob over scanned two-object Hider strategies.

    Scans both objects in one location (any depth pair) and in two locations
    (depth sum at most 1) over the scan grid refined by script breakpoints.
    The win probability is piecewise constant between breakpoints, so a
    refining scan pins the global minimum. Returns the minimum and a
    strategy attaining it, the first in scan order: the deeper depth V[i]
    ascending, then the other V[j] ascending, stacked before split. Raises
    ValueError when scan.m > MAX_SCAN_M.
    """
    if cfg.k != 2:
        raise ValueError("the scan assumes exactly two objects")
    _require_scan_m(scan.m)
    den, weighted = _script_tables(script, cfg, _scan_values(script, cfg, scan))
    values, unit = weighted[0][1].values, weighted[0][1].unit
    stacked, split = _location_pairs(cfg.n, True), _location_pairs(cfg.n, False)
    kinds = [(stacked, False), (split, True)] if split else [(stacked, False)]
    # every kind's wins over den * size, so that cells compare as integers
    size = math.lcm(*(len(pairs) for pairs, _ in kinds))
    rows = range(len(values))
    sums = [
        _row_sums([(f * (size // len(pairs)), t) for f, t in weighted], pairs, rows, fit)
        for pairs, fit in kinds
    ]
    wins, i, j, k = _scan_min(rows, sums)
    x, y = Fraction(values[i], unit), Fraction(values[j], unit)
    sets = [(y, x)] if k == 0 else [(x,), (y,)]
    sets += [()] * (cfg.n - len(sets))
    return Fraction(wins, den * size), HiderPure(tuple(sets))


# Each lemma as printed: its grid m; the depths x of the split orbits
# ((x), (1-x), 0, 0) and then of the stacked orbits ({x,1}, 0, 0, 0) that its
# Hider mixes equiprobably; and its Searcher script components, each
# (stage-1 waypoints, stage-2 rules by 1-based trigger location, weight).
_LEMMAS = {
    2: (6, (), ("1",), [
        (
            ("1/2 0 0 0", "1/2 1/2 0 0", "1 1/2 0 0"),
            {1: [((1, 2, 3, 4), 1)], 2: [((1, 3, 4), 1)]},
            1,
        ),
    ]),
    3: (15, ("1/3",), ("1/3", "2/3"), [
        (
            ("3/5 0 0 0", "3/5 2/5 0 0", "4/5 3/5 0 0", "4/5 4/5 0 0", "1 4/5 0 0", "1 1 0 0"),
            {1: [((1, 2, 3, 4), 1)], 2: [((1, 2, 3, 4), "4/5"), ((1, 3, 4), "1/5")]},
            1,
        ),
    ]),
    4: (20, ("1/5", "2/5"), ("1/5", "2/5", "3/5", "4/5"), [
        (
            ("3/4 0 0 0", "3/4 1/4 0 0", "1 1/4 0 0", "1 3/4 0 0"),
            {1: [((1, 2, 3, 4), 1)], 2: [((1, 3, 4), 1)]},
            "3/4",
        ),
        (
            ("3/4 0 0 0", "3/4 3/4 0 0", "1 3/4 0 0"),
            {1: [((1, 2, 3, 4), "3/5"), ((2, 3, 4), "2/5")], 2: [((1, 3, 4), 1)]},
            "1/4",
        ),
    ]),
    5: (30, ("1/6", "1/2"), ("1/6", "1/2", "5/6"), [
        (
            ("1 0 0 0", "1 4/5 0 0"),
            {1: [((1, 2, 3, 4), 1)], 2: [((3, 4), 1)]},
            "2/3",
        ),
        (
            ("3/5 0 0 0", "3/5 3/5 0 0", "1 3/5 0 0", "1 4/5 0 0"),
            {1: [((1, 2, 3, 4), "4/5"), ((2, 3, 4), "1/5")], 2: [((1, 3, 4), 1)]},
            "1/3",
        ),
    ]),
}

LEMMA_GRIDS = {lemma_id: lemma[0] for lemma_id, lemma in _LEMMAS.items()}


def lemma_config(lemma_id: int) -> GameConfig:
    if lemma_id not in LEMMA_VALUES:
        raise ValueError(f"unknown lemma id {lemma_id}")
    return GameConfig(n=4, k=2, h=LEMMA_BUDGETS[lemma_id])


def lemma_hider(lemma_id: int) -> HiderMixed:
    """The equiprobable optimal Hider mix for one solved budget interval."""
    cfg = lemma_config(lemma_id)
    _, split, stacked, _ = _LEMMAS[lemma_id]
    support = [hp for x in split for hp in family_D(x, cfg)]
    support += [hp for x in stacked for hp in family_E(x, cfg)]
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
    lemma_config(lemma_id)  # refuses an unknown id
    components = []
    for stage1, rules, weight in _LEMMAS[lemma_id][3]:
        waypoints = tuple(DigProfile(tuple(map(Fraction, wp.split()))) for wp in stage1)
        stage2 = {
            trigger - 1: tuple(
                (tuple(j - 1 for j in sigma), Fraction(p)) for sigma, p in branches
            )
            for trigger, branches in rules.items()
        }
        components.append((SearcherScript(waypoints, stage2), Fraction(weight)))
    return ScriptMixture(tuple(components))


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


def _regime(lemma_id: int, x_lo, x_hi, classes) -> RegimeTable:
    """A table as printed: class names are patterns joined by spaces."""
    return RegimeTable(
        lemma_id,
        Fraction(x_lo),
        Fraction(x_hi),
        tuple((tuple(names.split()), Fraction(p)) for names, p in classes.items()),
    )


SEARCHER_TABLES = (
    _regime(4, "3/4", 1, {"xy00": 1, "yx00": "1/10", "x0y0": "17/20", "x00y": "3/4"}),
    _regime(4, 0, "3/4", {"xy00 yx00": 1, "x0y0 y0x0": "1/10", "0xy0 0yx0": "1/4"}),
    _regime(5, "4/5", 1, {"xy00": 1, "yx00": "1/15", "x0y0": 1, "x00y": "11/15"}),
    _regime(
        5, "3/5", "4/5", {"xy00": 1, "yx00": 1, "x0y0": "11/15", "y0x0": "1/15", "0yx0": "1/3"}
    ),
    _regime(5, 0, "3/5", {"xy00 yx00": 1, "x0y0 y0x0": "1/15", "0xy0 0yx0": "1/3"}),
)


def arrangement_sets(pattern: str, x: Fraction, y: Fraction):
    mapping = {"x": (x,), "y": (y,), "0": ()}
    return tuple(mapping[ch] for ch in pattern)


def _lemma_tables(lemma_id: int, scan_m: int):
    """_script_tables of a lemma's script over the depths t / scan_m at
    index t - 1. Raises ValueError unless 1 <= scan_m <= MAX_SCAN_M."""
    _require_scan_m(scan_m)
    depths = [Fraction(t, scan_m) for t in range(1, scan_m + 1)]
    return _script_tables(lemma_script(lemma_id), lemma_config(lemma_id), depths)


def table_class_min(
    table: RegimeTable, patterns, scan_m: int = 60, tables=None
) -> tuple[Fraction, tuple[str, Fraction, Fraction]]:
    """Scan one table class: min over the regime of the fixed-arrangement
    win probability, with an (arrangement, x, y) witness; (None, None) when
    no grid point lies in the regime. tables, when given, is the lemma's
    _lemma_tables(table.lemma_id, scan_m), shared by its classes. Raises
    ValueError unless 1 <= scan_m <= MAX_SCAN_M."""
    den, weighted = tables or _lemma_tables(table.lemma_id, scan_m)
    # rows tx - 1 for x = tx / scan_m in [x_lo, x_hi]; ty <= min(tx, scan_m - tx)
    lo, hi = max(math.ceil(table.x_lo * scan_m), 1), min(math.floor(table.x_hi * scan_m), scan_m)
    rows = range(lo - 1, hi)
    sums = [_row_sums(weighted, ((p.index("x"), p.index("y")),), rows, True) for p in patterns]
    best = _scan_min(rows, sums)
    if best is None:
        return None, None
    wins, i, j, k = best
    return Fraction(wins, den), (patterns[k], Fraction(i + 1, scan_m), Fraction(j + 1, scan_m))


def searcher_table_report(scan_m: int = 60) -> str:
    """Recompute every published per-arrangement minimum; table-shaped text.
    A class whose regime holds no point of the scan grid is a MISMATCH."""
    tables = {i: _lemma_tables(i, scan_m) for i in sorted({t.lemma_id for t in SEARCHER_TABLES})}
    lines = []
    for table in SEARCHER_TABLES:
        lines.append(
            f"regime: x in [{format_rational(table.x_lo)},"
            f"{format_rational(table.x_hi)}], budget "
            f"{format_rational(LEMMA_BUDGETS[table.lemma_id])}"
        )
        for patterns, expected in table.classes:
            got, _ = table_class_min(table, patterns, scan_m, tables[table.lemma_id])
            name = " or ".join(patterns)
            if got is None:
                computed, status = f"no scan point in the regime at m={scan_m}", "MISMATCH"
            else:
                computed = f"computed {format_rational(got)}"
                status = "ok" if got == expected else "MISMATCH"
            lines.append(f"  {name}: expected {format_rational(expected)}, {computed} [{status}]")
    return "\n".join(lines)


def _sweep_domain(n: int, h, y=None) -> tuple[Fraction, Fraction | None]:
    """(h, y) as Fractions, after checking n >= 2 and 1 <= h < n and, for a
    split Hider (y given), 0 < y <= 1/2; ValueError otherwise."""
    h = Fraction(h)
    if not (n >= 2 and 1 <= h < n):
        raise ValueError("need n >= 2 and 1 <= h < n")
    if y is None:
        return h, None
    y = Fraction(y)
    if not 0 < y <= Fraction(1, 2):
        raise ValueError("split depth must lie in (0, 1/2]")
    return h, y


def asymptotic_win_prob(n: int, h, hider) -> Fraction:
    """Win probability of the sweep-then-cap Searcher for large games.

    The Searcher digs locations to depth 1 in random order; after a first
    find at depth y he continues through the remaining locations digging
    each to depth 1 - y. hider is "same-location" or ("split", y) with the
    objects at depths y and 1 - y in distinct locations.
    """
    if hider == "same-location":
        h, _ = _sweep_domain(n, h)
        return Fraction(math.floor(h), n)
    if not (isinstance(hider, tuple) and len(hider) == 2 and hider[0] == "split"):
        raise ValueError('hider must be "same-location" or ("split", y)')
    h, y = _sweep_domain(n, h, hider[1])
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
    win region used for the h/n - 2/n lower bound. Takes the domain of
    asymptotic_win_prob's split Hider: n >= 2, 1 <= h < n, 0 < y <= 1/2."""
    h, y = _sweep_domain(n, h, y)
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

_LEMMA_ROWS = sorted((row.lemma_id, row) for row in TABLE_ONE if row.lemma_id is not None)
# The value and the budget h (the interval's lower end) of each lemma's row.
LEMMA_VALUES = {lemma_id: row.value for lemma_id, row in _LEMMA_ROWS}
LEMMA_BUDGETS = {lemma_id: row.h_lo for lemma_id, row in _LEMMA_ROWS}
