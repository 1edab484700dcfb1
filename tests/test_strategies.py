import hashlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from caching_game import strategies
from caching_game.bestresponse import best_response_value
from caching_game.core import (
    DigProfile,
    GameConfig,
    HiderPure,
    validate_hider,
)
from caching_game.enumeration import Grid
from caching_game.solver import solve_game
from caching_game.strategies import (
    LEMMA_BUDGETS,
    LEMMA_VALUES,
    SEARCHER_TABLES,
    ScriptMixture,
    ScriptOutcome,
    SearcherScript,
    TABLE_ONE,
    arrangement_sets,
    asymptotic_lattice_count,
    asymptotic_win_prob,
    format_script,
    format_script_mixture,
    lemma_config,
    lemma_hider,
    lemma_script,
    proposition_value,
    script_min_win_prob,
    script_win_prob,
    searcher_table_report,
    table_class_min,
    uniform_allocation_count,
    uniform_allocation_strategies,
    uniform_distribution_strategies,
)

import oracles
from oracles import round_robin_split_prob


def profile(*depths):
    return DigProfile(tuple(F(d) for d in depths))


def split_hider(pattern, x, y):
    return HiderPure(arrangement_sets(pattern, F(x), F(y)))


def stacked_hider(x, loc=0):
    sets = [()] * 4
    sets[loc] = (F(x), F(1))
    return HiderPure(tuple(sets))


def checked_is_dig(first_find, prof, sigma, cfg, hp):
    """Whether stage 2 reaches hp's other object after the first find,
    read off strategies._windows in integers over the lcm of every
    denominator, asserted equal to the oracle's Fraction walk."""
    loc, d = first_find[0], F(first_find[1])
    remaining = hp.objects()
    remaining.remove((loc, d))
    ((loc2, d2),) = remaining
    unit = math.lcm(*(e.denominator for e in [cfg.h, d, d2, *prof.depths]))
    scaled = [strategies._scale_depth(e, unit) for e in prof.depths]
    budget = strategies._scale_depth(cfg.h, unit)
    trigger = strategies._scale_depth(d, unit)
    lo, hi = strategies._windows(loc, trigger, scaled, 1, sigma, unit, budget)[loc2]
    won = lo < strategies._scale_depth(d2, unit) <= hi
    assert won == oracles._is_dig_win(loc, d, prof.depths, sigma, remaining, cfg.h)
    return won


# Off the 1/60 scan grid: 7m and 11m for m = 60, and primes above 10^4.
OFF_GRID = (7 * 60, 11 * 60, 10007, 10009, 10037)


def breakpoints(script, h):
    """Waypoint depths, their complements, h - 1 and 2 - h, inside (0, 1]."""
    found = {h - 1, 2 - h}
    for component, _ in strategies._components(script):
        for wp in component.stage1:
            found.update(wp.depths)
            found.update(1 - d for d in wp.depths)
    return sorted(b for b in found if 0 < b <= 1)


def random_depth(rng, cap, near=()):
    """A depth in (0, cap] over an OFF_GRID denominator; half of the draws
    land on a breakpoint in near or one step of that denominator off it."""
    q = rng.choice(OFF_GRID)
    if near and rng.random() < 0.5:
        d = rng.choice(near) + F(rng.randint(-1, 1), q)
    else:
        d = F(rng.randint(1, q), q)
    return min(max(d, F(1, q)), cap)


def random_placement(rng, near=(), n=4):
    """Two objects: stacked in one location (a fifth of them at one depth)
    or split over two locations with depth sum at most 1."""
    sets = [()] * n
    x = random_depth(rng, F(1), near)
    if x == 1 or rng.random() < 0.3:
        y = x if rng.random() < 0.2 else random_depth(rng, F(1), near)
        sets[rng.randrange(n)] = (x, y)
    else:
        a, b = rng.sample(range(n), 2)
        sets[a], sets[b] = (x,), (random_depth(rng, 1 - x, near),)
    return HiderPure(tuple(sets))


def random_script(rng, n=4, q=6, p_den=7):
    """Up to four waypoints, each advancing one or two locations by steps
    of 1/q, and a one- or two-branch stage-2 rule for every location, with
    weights over p_den."""
    cur = [0] * n
    waypoints = []
    for _ in range(rng.randint(1, 4)):
        for loc in rng.sample(range(n), rng.randint(1, 2)):
            cur[loc] = min(q, cur[loc] + rng.randint(1, q // 2))
        waypoints.append(DigProfile(tuple(F(c, q) for c in cur)))
    rules = {}
    for trigger in range(n):
        orders = {tuple(rng.sample(range(n), rng.randint(1, n))) for _ in range(2)}
        if len(orders) == 1:
            rules[trigger] = ((orders.pop(), F(1)),)
        else:
            p = F(rng.randint(1, p_den - 1), p_den)
            rules[trigger] = tuple(zip(sorted(orders), (p, 1 - p)))
    return SearcherScript(tuple(waypoints), rules)


def tie_placement(rng, script, n=4):
    """Two objects found at one instant: both in one segment of stage 1, at
    the same fraction of their locations' advances, or None when no segment
    advances two locations within the burial constraint."""
    prev = (F(0),) * n
    segments = []
    for wp in script.stage1:
        moving = [loc for loc in range(n) if wp.depths[loc] > prev[loc]]
        if len(moving) >= 2:
            segments.append((prev, wp.depths, moving))
        prev = wp.depths
    rng.shuffle(segments)
    for lo, hi, moving in segments:
        a, b = rng.sample(moving, 2)
        s = F(rng.randint(1, 10), rng.choice((10, 11, 13)))
        da, db = (lo[j] + s * (hi[j] - lo[j]) for j in (a, b))
        if 0 < da and 0 < db and da + db <= 1:
            sets = [()] * n
            sets[a], sets[b] = (da,), (db,)
            return HiderPure(tuple(sets))
    return None


class TestScriptValidation:
    def test_decreasing_schedule_rejected(self):
        with pytest.raises(ValueError, match="decreases"):
            SearcherScript(
                (profile(1, 0, 0, 0), profile("1/2", "1/2", 0, 0)),
                {0: (((0, 1, 2, 3), F(1)),)},
            )

    def test_waypoint_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            SearcherScript(
                (profile(0, 0, 0, 0), profile("1/2", 0, 0)),
                {},
            )

    def test_rule_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SearcherScript(
                (profile("1/2", 0, 0, 0),),
                {0: (((0, 1), F(1, 2)), ((1, 0), F(1, 3)))},
            )

    def test_duplicate_location_in_order_rejected(self):
        with pytest.raises(ValueError, match="visit order"):
            SearcherScript(
                (profile("1/2", 0, 0, 0),),
                {0: (((0, 0, 1), F(1)),)},
            )

    def test_trigger_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="trigger"):
            SearcherScript(
                (profile("1/2", 0, 0, 0),),
                {4: (((0, 1), F(1)),)},
            )

    def test_mixture_weights_validated(self):
        script = lemma_script(2).components[0][0]
        with pytest.raises(ValueError, match="weights"):
            ScriptMixture(((script, F(1, 2)),))

    def test_outcome_range_validated(self):
        with pytest.raises(ValueError, match="win probability"):
            ScriptOutcome(F(7, 5))

    def test_budget_overrun_reported(self):
        cfg = GameConfig(4, 2, F(11, 6))
        greedy = SearcherScript(
            (profile(1, 1, 0, 0),),
            {0: (((0, 1, 2, 3), F(1)),), 1: (((0, 2, 3), F(1)),)},
        )
        with pytest.raises(ValueError, match="budget"):
            script_win_prob(greedy, stacked_hider(F(1, 2)), cfg)

    def test_wrong_location_count_reported(self):
        cfg = GameConfig(3, 2, F(3, 2))
        script = lemma_script(2).components[0][0]
        with pytest.raises(ValueError, match="locations"):
            script_win_prob(script, HiderPure(((F(1, 2),), (F(1, 2),), ())), cfg)


class TestIsDig:
    """Caps: full depth in the trigger location, 1 - d elsewhere."""

    CFG = GameConfig(4, 2, F(11, 6))

    def test_shallow_trigger_reaches_partner(self):
        # find at 1/3, continue to 1 there, then to 2/3 next door: 5/3 total
        hp = HiderPure(((F(1, 3),), (F(2, 3),), (), ()))
        assert checked_is_dig((0, F(1, 3)), profile("1/3", 0, 0, 0), (0, 1), self.CFG, hp)

    def test_budget_boundary_is_inclusive(self):
        hp = HiderPure(((F(1, 3),), (F(2, 3),), (), ()))
        tight = GameConfig(4, 2, F(5, 3))
        assert checked_is_dig((0, F(1, 3)), profile("1/3", 0, 0, 0), (0, 1), tight, hp)
        short = GameConfig(4, 2, F(8, 5))
        assert not checked_is_dig((0, F(1, 3)), profile("1/3", 0, 0, 0), (0, 1), short, hp)

    @pytest.mark.parametrize(
        "x,y",
        [
            (F(1, 5), F(2, 5)),
            (F(2, 5), F(1, 2)),
            (F(3, 5), F(2, 5)),
            (F(5, 6), F(1, 6)),
            (F(17, 20), F(1, 10)),
        ],
    )
    def test_continue_then_sweep_wins_when_second_at_most_five_sixths(self, x, y):
        # second object sits within the 1 - y cap; win condition is 1 + x <= h
        hp = HiderPure(((y,), (x,), (), ()))
        won = checked_is_dig((0, y), profile(y, 0, 0, 0), (0, 1, 2, 3), self.CFG, hp)
        assert won == (1 + x <= F(11, 6))

    def test_deep_second_object_missed(self):
        hp = HiderPure(((F(9, 10),), (F(17, 20),), (), ()))
        assert not checked_is_dig(
            (0, F(9, 10)), profile("9/10", 0, 0, 0), (0, 1, 2, 3), self.CFG, hp
        )

    def test_full_depth_trigger_zeroes_other_caps(self):
        hp = HiderPure(((F(1),), (F(1, 10),), (), ()))
        assert not checked_is_dig((0, F(1)), profile(1, 0, 0, 0), (1, 2, 3), self.CFG, hp)
        assert not checked_is_dig((0, F(1)), profile(1, 0, 0, 0), (0, 1, 2, 3), self.CFG, hp)

    def test_overdug_location_skipped_free(self):
        # L2 already past its cap: skipping it must not cost budget
        hp = HiderPure(((F(1, 2),), (), (F(1, 2),), ()))
        cfg = GameConfig(4, 2, F(11, 5))
        assert checked_is_dig(
            (0, F(1, 2)), profile("1/2", "3/5", 0, 0), (0, 1, 2), cfg, hp
        )

    def test_exhausting_budget_on_nontarget_loses(self):
        # the L2 dig eats exactly the remaining budget before reaching L3
        hp = HiderPure(((F(1, 2),), (), (F(1, 2),), ()))
        cfg = GameConfig(4, 2, F(3, 2))
        assert not checked_is_dig(
            (0, F(1, 2)), profile("1/2", 0, 0, 0), (0, 1, 2), cfg, hp
        )

    def test_order_matters(self):
        # same budget, visiting L3 before L2 reaches the object exactly
        hp = HiderPure(((F(1, 2),), (), (F(1, 2),), ()))
        cfg = GameConfig(4, 2, F(3, 2))
        assert checked_is_dig((0, F(1, 2)), profile("1/2", 0, 0, 0), (0, 2, 1), cfg, hp)


class TestScriptWinProb:
    def test_stacked_pairs_win_one_quarter(self):
        cfg = lemma_config(2)
        script = lemma_script(2)
        for loc in range(4):
            sets = [()] * 4
            sets[loc] = (F(1), F(1))
            out = script_win_prob(script, HiderPure(tuple(sets)), cfg)
            assert out.win_probability == F(1, 4)

    @pytest.mark.parametrize("x", [F(5, 6), F(13, 15), F(9, 10), F(11, 12)])
    def test_deep_splits_no_worse_than_a_quarter(self, x):
        cfg = lemma_config(2)
        out = script_win_prob(lemma_script(2), split_hider("xy00", x, 1 - x), cfg)
        assert out.win_probability >= F(1, 4)

    @pytest.mark.parametrize("x,y", [(F(1, 2), F(1, 2)), (F(1, 2), F(1, 4)), (F(2, 5), F(1, 5))])
    def test_shallow_splits_no_worse_than_a_third(self, x, y):
        cfg = lemma_config(2)
        out = script_win_prob(lemma_script(2), split_hider("xy00", x, y), cfg)
        assert out.win_probability >= F(1, 3)

    def test_relabel_averages_over_arrangements(self):
        cfg = lemma_config(2)
        script = lemma_script(2).components[0][0]
        hp = split_hider("xy00", F(3, 5), F(2, 5))
        fixed = [
            script_win_prob(script, split_hider(p, F(3, 5), F(2, 5)), cfg, relabel=False)
            for p in (
                "xy00", "x0y0", "x00y", "yx00", "0xy0", "0x0y",
                "y0x0", "0yx0", "00xy", "y00x", "0y0x", "00yx",
            )
        ]
        average = sum(o.win_probability for o in fixed) / 12
        assert script_win_prob(script, hp, cfg).win_probability == average

    def test_simultaneous_double_find_wins_outright(self):
        # both objects at full depth: the final front reaches them at once
        cfg = lemma_config(2)
        hp = HiderPure(((F(1), F(1)), (), (), ()))
        out = script_win_prob(lemma_script(2), hp, cfg, relabel=False)
        assert out.win_probability == F(1)

    def test_equal_rate_segment_can_find_both_at_once(self):
        cfg = GameConfig(4, 2, F(3, 2))
        both = SearcherScript(
            (profile("1/2", "1/2", 0, 0),),
            {
                0: (((0, 1, 2, 3), F(1)),),
                1: (((1, 0, 2, 3), F(1)),),
            },
        )
        hp = HiderPure(((F(2, 5),), (F(2, 5),), (), ()))
        out = script_win_prob(both, hp, cfg, relabel=False)
        assert out.win_probability == F(1)

    def test_dry_stage_one_loses(self):
        cfg = lemma_config(2)
        hp = HiderPure(((), (), (F(1, 2),), (F(1, 2),)))
        out = script_win_prob(lemma_script(2), hp, cfg, relabel=False)
        assert out.win_probability == F(0)

    def test_invalid_hider_rejected(self):
        cfg = lemma_config(2)
        too_deep = HiderPure(((F(3, 4),), (F(3, 4),), (), ()))
        with pytest.raises(ValueError, match="invalid Hider"):
            script_win_prob(lemma_script(2), too_deep, cfg)

    @pytest.mark.parametrize("lemma_id", [2, 3, 4, 5])
    def test_non_decreasing_in_budget(self, lemma_id):
        lo = LEMMA_BUDGETS[lemma_id]
        hi = TABLE_ONE[[r.lemma_id for r in TABLE_ONE].index(lemma_id)].h_hi
        cfg_lo = GameConfig(4, 2, lo)
        cfg_hi = GameConfig(4, 2, hi - F(1, 1000))
        script = lemma_script(lemma_id)
        probes = [
            stacked_hider(F(1, 3)),
            stacked_hider(F(4, 5)),
            split_hider("xy00", F(3, 5), F(2, 5)),
            split_hider("x0y0", F(1, 2), F(1, 4)),
        ]
        for hp in probes:
            a = script_win_prob(script, hp, cfg_lo).win_probability
            b = script_win_prob(script, hp, cfg_hi).win_probability
            assert b >= a


    @pytest.mark.parametrize("lemma_id", [2, 3, 4, 5])
    def test_left_end_is_lowest_in_the_budget_interval(self, lemma_id):
        # stage 2's remaining budget only grows with h, so no placement does
        # worse inside the interval than at its left end
        row = TABLE_ONE[[r.lemma_id for r in TABLE_ONE].index(lemma_id)]
        script = lemma_script(lemma_id)
        left = GameConfig(4, 2, row.h_lo)
        midpoint = (row.h_lo + row.h_hi) / 2
        last_step = F(math.ceil(row.h_hi * 60) - 1, 60)
        inside = [GameConfig(4, 2, midpoint), GameConfig(4, 2, last_step)]
        assert all(row.h_lo < cfg.h < row.h_hi for cfg in inside)
        rng = random.Random(9100 + lemma_id)
        near = breakpoints(script, row.h_lo)
        for _ in range(100):
            hp = random_placement(rng, near)
            at_left = script_win_prob(script, hp, left).win_probability
            for cfg in inside:
                assert at_left <= script_win_prob(script, hp, cfg).win_probability, (hp, cfg.h)


class TestPublishedTables:
    """Per-arrangement conditional win probabilities, one tight point each."""

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
    def test_conditional_entries(self, lemma_id, x, y, expected):
        cfg = lemma_config(lemma_id)
        script = lemma_script(lemma_id)
        for pattern, want in expected.items():
            out = script_win_prob(script, split_hider(pattern, x, y), cfg, relabel=False)
            assert out.win_probability == want, pattern

    def test_regime_minima_match_published_entries(self):
        for table in SEARCHER_TABLES:
            for patterns, expected in table.classes:
                got, witness = table_class_min(table, patterns, scan_m=20)
                assert got == expected, (table.lemma_id, patterns, witness)

    def test_report_flags_no_mismatch(self):
        report = searcher_table_report(scan_m=20)
        assert "MISMATCH" not in report
        assert report.count("[ok]") == 19


class TestScriptMinima:
    def test_coarse_scan_already_exact_for_first_interval(self):
        cfg = lemma_config(2)
        value, argmin = script_min_win_prob(lemma_script(2), cfg, Grid(12))
        assert value == F(1, 4)
        assert script_win_prob(lemma_script(2), argmin, cfg).win_probability == value

    @pytest.mark.parametrize("lemma_id,want", [(2, F(1, 4)), (4, F(9, 40)), (5, F(7, 30))])
    def test_full_scan_certifies_lemma_value(self, lemma_id, want):
        cfg = lemma_config(lemma_id)
        value, argmin = script_min_win_prob(lemma_script(lemma_id), cfg, Grid(60))
        assert value == want
        assert script_win_prob(lemma_script(lemma_id), argmin, cfg).win_probability == value

    def test_third_interval_script_underperforms_its_target(self):
        # The h in [11/5, 7/3) script as published guarantees only 11/30,
        # not the interval's value 9/20; kept as a pinned regression so any
        # change to the schedule or rules is noticed. The acceptance suite
        # carries the (failing) 9/20 requirement.
        cfg = lemma_config(3)
        value, argmin = script_min_win_prob(lemma_script(3), cfg, Grid(60))
        assert value == F(11, 30)
        assert validate_hider(argmin, cfg) is None

    def test_requires_two_objects(self):
        cfg = GameConfig(4, 3, F(11, 6))
        with pytest.raises(ValueError, match="two objects"):
            script_min_win_prob(lemma_script(2), cfg, Grid(6))


class TestIntegerEvaluation:
    """Scripts are evaluated in integers over a common denominator; every
    result must equal the Fraction walk kept in tests/oracles.py."""

    @staticmethod
    def assert_matches_oracle(script, hp, cfg, relabel):
        got = script_win_prob(script, hp, cfg, relabel=relabel).win_probability
        want = oracles.script_win_prob(strategies._components(script), hp.sets, cfg.h, relabel)
        assert got == want, (hp, relabel)

    @pytest.mark.parametrize("relabel", [True, False])
    @pytest.mark.parametrize("lemma_id", [2, 3, 4, 5])
    def test_lemma_mixtures_off_the_grid(self, lemma_id, relabel):
        rng = random.Random(9000 + lemma_id)
        cfg = lemma_config(lemma_id)
        script = lemma_script(lemma_id)
        near = breakpoints(script, cfg.h)
        for _ in range(150):
            self.assert_matches_oracle(script, random_placement(rng, near), cfg, relabel)

    def test_random_scripts_with_ties_and_double_finds(self):
        rng = random.Random(9001)
        ties = 0
        for _ in range(150):
            script = random_script(rng)
            cfg = GameConfig(4, 2, script.total_depth() + F(rng.randint(0, 12), 7))
            placements = [random_placement(rng, breakpoints(script, cfg.h)) for _ in range(6)]
            tie = tie_placement(rng, script)
            if tie is not None:
                ties += 1
                placements.append(tie)
                # found together, so the script wins before stage 2
                assert script_win_prob(script, tie, cfg, relabel=False).win_probability == 1
            for hp in placements:
                for relabel in (True, False):
                    self.assert_matches_oracle(script, hp, cfg, relabel)
        assert ties >= 50

    def test_first_find_ties_break_in_object_order(self):
        # three objects, two of them tied: the rank table orders the finds
        # as the oracle's walk does, so the first object in location order
        # with the lowest rank is the oracle's find, the rest remain
        rng = random.Random(9002)
        kinds = set()
        for _ in range(300):
            script = random_script(rng)
            h = script.total_depth() + 1
            tie = tie_placement(rng, script)
            sets = [list(s) for s in (tie or random_placement(rng)).sets]
            if rng.random() < 0.3:
                # a copy of an object: all three found at once when tied
                loc, d = rng.choice([(j, e) for j, s in enumerate(sets) for e in s])
                sets[loc].append(d)
            else:
                sets[rng.randrange(4)].append(random_depth(rng, F(1)))
            sets = tuple(tuple(sorted(s)) for s in sets)
            depths = sorted({d for s in sets for d in s})
            _, ((_, tables),) = strategies._script_tables(script, GameConfig(4, 3, h), depths)
            unit, values = tables.unit, tables.values
            objects = [(j, strategies._scale_depth(d, unit)) for j, s in enumerate(sets) for d in s]
            ranks = [tables.rank[loc][values.index(d)] for loc, d in objects]
            first = min(ranks)
            if first == tables.never:
                kind = "none"
            else:
                kind = "win" if ranks.count(first) == len(ranks) else "find"
            want_kind, want = oracles._stage1_outcome(script, sets, h)
            assert kind == want_kind
            kinds.add(kind)
            if kind == "find":
                i = ranks.index(first)
                loc, d = objects[i]
                profile_at_find, fd = tables.find(loc, values.index(d))
                assert tuple(F(x, unit * fd) for x in profile_at_find) == want[0]
                assert (loc, F(d, unit)) == (want[1], want[2])
                remaining = objects[:i] + objects[i + 1 :]
                assert [(j, F(e, unit)) for j, e in remaining] == want[3]
        assert kinds == {"win", "find", "none"}

    def test_is_dig_off_the_grid(self):
        rng = random.Random(9003)
        for _ in range(400):
            hp = random_placement(rng)
            loc, d = rng.choice(hp.objects())
            depths = [random_depth(rng, F(1)) for _ in range(4)]
            depths[loc] = max(depths[loc], d)
            sigma = tuple(rng.sample(range(4), rng.randint(1, 4)))
            cfg = GameConfig(4, 2, sum(depths) + random_depth(rng, F(2)))
            checked_is_dig((loc, d), DigProfile(tuple(depths)), sigma, cfg, hp)


def scan_cases(script, h, sets):
    """The edge cases one arrangement exercises, by the oracle's walk:
    a same-location pair, a double find, a double find at the end of a
    segment, and a stage-2 branch whose budget runs out before it visits
    the second object's location."""
    cases = set()
    if sum(1 for s in sets if s) == 1:
        cases.add("same location")
    kind, info = oracles._stage1_outcome(script, sets, h)
    if kind == "win":
        cases.add("double find")
        loc, d = next((j, e) for j, s in enumerate(sets) for e in s)
        if len(sets[loc]) == 1 and any(wp.depths[loc] == d for wp in script.stage1):
            cases.add("tie at a segment end")
    elif kind == "find":
        profile_at_find, loc, d, ((loc2, _),) = info
        for sigma, _ in script.stage2_rules[loc]:
            budget = h - sum(profile_at_find)
            for j in sigma:
                if j == loc2:
                    break
                cost = (1 if j == loc else 1 - d) - profile_at_find[j]
                if cost > 0 and cost >= budget:
                    cases.add("budget stops before the second location")
                    break
                budget -= max(cost, 0)
    return cases


def scan_candidates(script, cfg, m):
    """script_min_win_prob's candidates in its order, each with its set of
    relabeled arrangements."""
    values = strategies._scan_values(script, cfg, Grid(m))
    for i, x in enumerate(values):
        for y in values[: i + 1]:
            candidates = [((y, x),) + ((),) * (cfg.n - 1)]
            if x + y <= 1:
                candidates.append(((x,), (y,)) + ((),) * (cfg.n - 2))
            for sets in candidates:
                yield sets, set(itertools.permutations(sets))


def brute_scan_min(script, cfg, m, cases):
    """script_min_win_prob's scan in its order, each placement evaluated by
    the oracle's Fraction walk; the first strict minimum is the witness."""
    components = strategies._components(script)
    best = witness = None
    for sets, arrangements in scan_candidates(script, cfg, m):
        for component, _ in components:
            for arrangement in arrangements:
                cases |= scan_cases(component, cfg.h, arrangement)
        p = oracles.script_win_prob(components, sets, cfg.h)
        if best is None or p < best:
            best, witness = p, HiderPure(sets)
    return best, witness


def first_finds_in(script, cfg, m, loc):
    """Whether stage 1 first-finds an object in loc on any scanned
    arrangement, by the oracle's walk."""
    for _, arrangements in scan_candidates(script, cfg, m):
        for arrangement in arrangements:
            kind, info = oracles._stage1_outcome(script, arrangement, cfg.h)
            if kind == "find" and info[1] == loc:
                return True
    return False


def brute_table_min(table, patterns, m):
    """table_class_min's scan in its order, through the oracle."""
    cfg = lemma_config(table.lemma_id)
    components = strategies._components(lemma_script(table.lemma_id))
    best = witness = None
    for tx in range(1, m + 1):
        if not table.x_lo <= F(tx, m) <= table.x_hi:
            continue
        for ty in range(1, min(tx, m - tx) + 1):
            for pattern in patterns:
                sets = arrangement_sets(pattern, F(tx, m), F(ty, m))
                p = oracles.script_win_prob(components, sets, cfg.h, relabel=False)
                if best is None or p < best:
                    best, witness = p, (pattern, F(tx, m), F(ty, m))
    return best, witness


class TestScanAgainstOracle:
    """The table-driven scans return the minimum and the first witness in
    scan order that a brute scan through the Fraction oracle finds."""

    def test_random_script_minima_and_witnesses(self):
        rng = random.Random(9004)
        cases = set()
        for _ in range(12):
            script = random_script(rng)
            cfg = GameConfig(4, 2, script.total_depth() + F(rng.randint(0, 12), 7))
            m = rng.randint(6, 12)
            assert script_min_win_prob(script, cfg, Grid(m)) == brute_scan_min(
                script, cfg, m, cases
            ), (script, cfg.h, m)
        assert cases == {
            "same location",
            "double find",
            "tie at a segment end",
            "budget stops before the second location",
        }

    def test_random_mixtures_with_different_stage_two_denominators(self):
        rng = random.Random(9010)
        unequal = 0
        for _ in range(6):
            scripts = [random_script(rng, p_den=p_den) for p_den in rng.sample((3, 5, 7, 11), 2)]
            weight = F(rng.randint(1, 4), 5)
            mixture = ScriptMixture(((scripts[0], weight), (scripts[1], 1 - weight)))
            depth = max(script.total_depth() for script in scripts)
            cfg = GameConfig(4, 2, depth + F(rng.randint(0, 12), 7))
            qs = {strategies._Tables(script, 1, cfg.h, []).q for script in scripts}
            unequal += len(qs) == 2
            m = rng.randint(6, 10)
            assert script_min_win_prob(mixture, cfg, Grid(m)) == brute_scan_min(
                mixture, cfg, m, set()
            ), (mixture, cfg.h, m)
        assert unequal >= 4

    def test_a_missing_stage_two_rule_fails_only_where_stage_one_finds(self):
        rng = random.Random(9011)
        seen = set()
        for _ in range(10):
            script = random_script(rng)
            loc = rng.randrange(4)
            rules = {t: rule for t, rule in script.stage2_rules.items() if t != loc}
            script = SearcherScript(script.stage1, rules)
            cfg = GameConfig(4, 2, script.total_depth() + F(rng.randint(0, 12), 7))
            m = rng.randint(6, 8)
            finds_there = first_finds_in(script, cfg, m, loc)
            seen.add(finds_there)
            if finds_there:
                message = f"^no stage-2 rule for a find in location {loc + 1}$"
                with pytest.raises(ValueError, match=message):
                    script_min_win_prob(script, cfg, Grid(m))
            else:
                assert script_min_win_prob(script, cfg, Grid(m)) == brute_scan_min(
                    script, cfg, m, set()
                ), (script, cfg.h, m)
        assert seen == {True, False}

    @pytest.mark.parametrize("m,empty", [(1, 19), (2, 13), (3, 8), (4, 4), (5, 0), (6, 0)])
    def test_coarse_table_reports_say_when_a_regime_has_no_scan_point(self, m, empty):
        rows = [line for line in searcher_table_report(m).splitlines() if line.startswith("  ")]
        classes = [(table, c) for table in SEARCHER_TABLES for c in table.classes]
        assert len(rows) == len(classes) == 19
        for row, (table, (patterns, _)) in zip(rows, classes):
            got, _ = table_class_min(table, patterns, m)
            if got is None:
                empty -= 1
                assert row.endswith(f"no scan point in the regime at m={m} [MISMATCH]"), row
            else:
                assert f"computed {strategies.format_rational(got)} [" in row, row
        assert empty == 0

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_other_location_counts(self, n):
        rng = random.Random(9006 + n)
        for _ in range(3):
            script = random_script(rng, n=n)
            cfg = GameConfig(n, 2, script.total_depth() + F(rng.randint(0, 12), 7))
            m = rng.randint(6, 8)
            assert script_min_win_prob(script, cfg, Grid(m)) == brute_scan_min(
                script, cfg, m, set()
            ), (script, cfg.h, m)

    @pytest.mark.parametrize("lemma_id", [2, 3, 4, 5])
    def test_lemma_minima_and_witnesses(self, lemma_id):
        cfg = lemma_config(lemma_id)
        for m in (6, 12):
            got = script_min_win_prob(lemma_script(lemma_id), cfg, Grid(m))
            assert got == brute_scan_min(lemma_script(lemma_id), cfg, m, set()), m

    def test_table_class_minima_and_witnesses(self):
        rng = random.Random(9005)
        for table in SEARCHER_TABLES:
            for patterns, _ in table.classes:
                m = rng.randint(6, 12)
                assert table_class_min(table, patterns, m) == brute_table_min(
                    table, patterns, m
                ), (table.lemma_id, patterns, m)

    def test_huge_scan_grids_are_refused_before_any_work(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the scan started")

        monkeypatch.setattr(strategies, "_scan_values", fail)
        monkeypatch.setattr(strategies, "_Tables", fail)
        too_fine = strategies.MAX_SCAN_M + 1
        with pytest.raises(ValueError, match="limited to"):
            script_min_win_prob(lemma_script(2), lemma_config(2), Grid(too_fine))
        for m in (too_fine, 0):
            with pytest.raises(ValueError, match="limited to"):
                table_class_min(SEARCHER_TABLES[0], ("xy00",), m)
        assert strategies.MAX_SCAN_M >= 210

    def test_a_scan_with_no_point_in_the_regime_has_no_minimum(self):
        assert table_class_min(SEARCHER_TABLES[0], ("xy00",), 1) == (None, None)


def regime_rows(table, m):
    """The row indices tx - 1 of the grid points x = tx / m in the regime."""
    inside = [tx - 1 for tx in range(1, m + 1) if table.x_lo <= F(tx, m) <= table.x_hi]
    return range(inside[0], inside[-1] + 1) if inside else range(0)


class TestRowSums:
    """Every cell of the scans' row sums is the one-placement evaluator's
    weighted sum on that cell, over the whole scanned region."""

    @staticmethod
    def check_cells(weighted, pairs, rows, fit):
        """Compare each row with _win_prob cell by cell; the nonzero cells."""
        values, unit = weighted[0][1].values, weighted[0][1].unit
        got = list(strategies._row_sums(weighted, pairs, rows, fit))
        assert len(got) == len(rows)
        nonzero = 0
        for i, row in zip(rows, got):
            region = [j for j in range(i + 1) if not fit or values[i] + values[j] <= unit]
            want = [sum(f * strategies._win_prob(t, pairs, i, j) for f, t in weighted) for j in region]
            assert row == want, (pairs, i)
            nonzero += sum(1 for w in want if w)
        return nonzero

    def test_random_scripts_and_mixtures(self):
        rng = random.Random(9012)
        nonzero = 0
        for n in (2, 3, 4, 5):
            for mixed in (False, True, False):
                if mixed:
                    scripts = [random_script(rng, n=n, p_den=p) for p in rng.sample((3, 5, 7), 2)]
                    weight = F(rng.randint(1, 4), 5)
                    script = ScriptMixture(((scripts[0], weight), (scripts[1], 1 - weight)))
                    depth = max(c.total_depth() for c in scripts)
                else:
                    script = random_script(rng, n=n)
                    depth = script.total_depth()
                cfg = GameConfig(n, 2, depth + F(rng.randint(0, 12), 7))
                values = strategies._scan_values(script, cfg, Grid(rng.randint(5, 9)))
                _, weighted = strategies._script_tables(script, cfg, values)
                rows = range(len(values))
                nonzero += self.check_cells(weighted, strategies._location_pairs(n, True), rows, False)
                nonzero += self.check_cells(weighted, strategies._location_pairs(n, False), rows, True)
                # one arrangement, which is not closed under swapping, on a band of rows
                start = rng.randrange(len(values))
                band = range(start, rng.randint(start + 1, len(values)))
                pair = tuple(rng.sample(range(n), 2))
                nonzero += self.check_cells(weighted, (pair,), band, True)
        assert nonzero > 1000

    @pytest.mark.parametrize("lemma_id", [4, 5])
    def test_lemma_table_regimes(self, lemma_id):
        _, weighted = strategies._lemma_tables(lemma_id, 60)
        for table in SEARCHER_TABLES:
            if table.lemma_id != lemma_id:
                continue
            for patterns, _ in table.classes:
                for pattern in patterns:
                    pair = (pattern.index("x"), pattern.index("y"))
                    assert self.check_cells(weighted, (pair,), regime_rows(table, 60), True)

    # sha256 of "value pattern x y" per class, in table order; the digests
    # come from a cell-by-cell scan through _win_prob, not from the row sums
    @pytest.mark.parametrize(
        "m,digest",
        [
            (20, "155f8928c89371481d4ca5565090286a2d63d477676166cf27e4a38b6af709ed"),
            (60, "1562f8d5730cc78a265ae97468ac132d5371306b1c018062447295159c5342da"),
            (120, "caf5e2059718bab603c72949e2c0875c6eb8e64323c2d55993346f3f53083eb5"),
        ],
    )
    def test_table_minima_and_witnesses_are_pinned(self, m, digest):
        lines = []
        for table in SEARCHER_TABLES:
            for patterns, _ in table.classes:
                value, (pattern, x, y) = table_class_min(table, patterns, m)
                lines.append(f"{value} {pattern} {x} {y}")
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest

    def test_the_scan_keeps_no_cell_matrix(self):
        # the peak measured 456,544 bytes on CPython 3.11.7; the stacked and
        # split cells of its 216 x 216 scan, held as lists, would add about 2 MB
        script, cfg = lemma_script(4), lemma_config(4)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            script_min_win_prob(script, cfg, Grid(210))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 1.5 * 456_544, peak


class TestLemmaStrategies:
    @pytest.mark.parametrize("lemma_id,size", [(2, 4), (3, 20), (4, 40), (5, 30)])
    def test_hider_support_sizes(self, lemma_id, size):
        mix = lemma_hider(lemma_id)
        assert len(mix.entries) == size
        assert all(p == F(1, size) for _, p in mix.entries)

    @pytest.mark.parametrize("lemma_id", [2, 3, 4, 5])
    def test_hider_mixes_valid_and_symmetric(self, lemma_id):
        cfg = lemma_config(lemma_id)
        mix = lemma_hider(lemma_id)
        for hp, _ in mix.entries:
            assert validate_hider(hp, cfg) is None
        assert mix.is_location_symmetric()

    def test_unknown_lemma_rejected(self):
        with pytest.raises(ValueError, match="unknown lemma"):
            lemma_hider(6)
        with pytest.raises(ValueError, match="unknown lemma"):
            lemma_script(1)
        with pytest.raises(ValueError, match="unknown lemma"):
            lemma_config(0)

    def test_script_budgets_within_interval(self):
        for lemma_id in (2, 3, 4, 5):
            h = LEMMA_BUDGETS[lemma_id]
            for script, _ in lemma_script(lemma_id).components:
                assert script.total_depth() <= h

    def test_mixture_weights(self):
        assert [p for _, p in lemma_script(4).components] == [F(3, 4), F(1, 4)]
        assert [p for _, p in lemma_script(5).components] == [F(2, 3), F(1, 3)]

    def test_formatting_shapes(self):
        text = format_script(lemma_script(3).components[0][0])
        assert "IS(1234) w.p. 4/5 | IS(134) w.p. 1/5" in text
        assert text.startswith("Stage 1: (3/5,0,0,0)")
        mixture_text = format_script_mixture(lemma_script(4))
        assert mixture_text.splitlines()[0].startswith("w.p. 3/4: ")
        # single-component mixtures print without a weight prefix
        assert format_script_mixture(lemma_script(2)).startswith("Stage 1:")


class TestAsymptoticStrategy:
    @pytest.mark.parametrize(
        "n,h,want",
        [
            (4, F(2), F(1, 2)),
            (4, F(5, 2), F(1, 2)),
            (10, F(7, 2), F(3, 10)),
            (50, F(49), F(49, 50)),
        ],
    )
    def test_same_location(self, n, h, want):
        assert asymptotic_win_prob(n, h, "same-location") == want

    def test_two_locations_half_depth_always_wins(self):
        assert asymptotic_win_prob(2, F(3, 2), ("split", F(1, 2))) == F(1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_split_matches_ordering_walk_oracle(self, n):
        for ty in range(1, 7):
            y = F(ty, 12)
            for th in range(n, 2 * n):
                h = F(th, 2)
                if not 1 <= h < n:
                    continue
                got = asymptotic_win_prob(n, h, ("split", y))
                assert got == round_robin_split_prob(n, h, y)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="n >= 2"):
            asymptotic_win_prob(4, F(4), "same-location")
        with pytest.raises(ValueError, match="n >= 2"):
            asymptotic_win_prob(4, F(1, 2), "same-location")
        with pytest.raises(ValueError, match="split depth"):
            asymptotic_win_prob(4, F(2), ("split", F(3, 5)))
        with pytest.raises(ValueError, match="hider"):
            asymptotic_win_prob(4, F(2), "stacked")

    def test_lattice_count_domain(self):
        # the split Hider's domain: n >= 2, 1 <= h < n, 0 < y <= 1/2
        brute = sum(i * F(1, 3) + j * F(2, 3) <= 7 for i in range(1, 11) for j in range(1, 11))
        assert asymptotic_lattice_count(10, F(7), F(1, 3)) == brute
        for n, h, y in [(10, F(7), F(1)), (10, F(7), F(2)), (10, F(7), F(-1)),
                        (10, F(7), F(0)), (10, F(7), F(31, 60)), (10, F(10), F(1, 3)),
                        (10, F(1, 2), F(1, 3)), (1, F(1), F(1, 3))]:
            with pytest.raises(ValueError):
                asymptotic_lattice_count(n, h, y)

    def test_lattice_certificate_chain(self):
        # count/n^2 is sandwiched: win prob >= count/n^2 >= h/n - 2/n
        for n in (5, 12, 30):
            for th in range(n, 2 * n, 3):
                h = F(th, 2)
                if not n / 2 <= h < n:
                    continue
                for ty in (1, 7, 15, 30):
                    y = F(ty, 60)
                    count = asymptotic_lattice_count(n, h, y)
                    assert asymptotic_win_prob(n, h, ("split", y)) >= F(count, n * n)
                    assert F(count, n * n) >= h / n - F(2, n)


class TestUniformAllocations:
    @pytest.mark.parametrize("n,k,count", [(4, 2, 10), (2, 2, 3), (3, 3, 10), (3, 2, 6), (2, 3, 4)])
    def test_counts_and_values(self, n, k, count):
        assert uniform_allocation_count(n, k) == count
        assert proposition_value(n, k) == F(1, count)

    def test_allocation_strategies_are_prefix_grid_hiders(self):
        from caching_game.enumeration import enumerate_grid_hiders

        for n, k in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3)):
            cfg = GameConfig(n, k, F(1))
            allocations = set(uniform_allocation_strategies(n, k))
            assert len(allocations) == uniform_allocation_count(n, k)
            prefixes = set()
            for hp, _ in enumerate_grid_hiders(cfg, Grid(k)):
                if all(
                    s == tuple(F(i, k) for i in range(1, len(s) + 1))
                    for s in hp.sets
                ):
                    prefixes.add(hp)
            assert allocations == prefixes

    def test_allocations_are_valid_hiders(self):
        cfg = GameConfig(4, 2, F(1))
        for hp in uniform_allocation_strategies(4, 2):
            assert validate_hider(hp, cfg) is None

    def test_distribution_strategies_are_weak_compositions(self):
        guesses = uniform_distribution_strategies(3, 3)
        assert len(guesses) == 10
        assert all(sum(g) == 3 and len(g) == 3 for g in guesses)
        assert len(set(guesses)) == 10


class TestTableOne:
    def test_intervals_tile_the_budget_range(self):
        assert TABLE_ONE[0].h_lo == F(1)
        assert TABLE_ONE[-1].h_hi == F(4)
        for prev, cur in zip(TABLE_ONE, TABLE_ONE[1:]):
            assert prev.h_hi == cur.h_lo
            assert prev.value < cur.value

    def test_lemma_rows_match_lemma_values(self):
        for row in TABLE_ONE:
            if row.method == "lemma":
                assert row.value == LEMMA_VALUES[row.lemma_id]
                assert row.h_lo == LEMMA_BUDGETS[row.lemma_id]

    def test_first_row_is_the_small_budget_formula(self):
        assert TABLE_ONE[0].method == "proposition"
        assert TABLE_ONE[0].value == proposition_value(4, 2)


def support_denominator(mix):
    """q: the lcm of the denominators of every depth in the mix's support."""
    return math.lcm(*(d.denominator for hp, _ in mix.entries for s in hp.sets for d in s))


def no_multiple_inside(q, lo, hi):
    """No multiple of 1/q lies in the open interval (lo, hi)."""
    return math.floor(lo * q) + 1 >= hi * q


class TestWholeIntervalHiderCertificates:
    """A grid game depends on h only through floor(q h), where 1/q is the
    grid of the Hider mix's support; so a mix that holds the Searcher to
    the row value at h_lo holds it there over [h_lo, h_hi) when no multiple
    of 1/q lies in (h_lo, h_hi)."""

    @pytest.mark.parametrize(
        "row",
        [r for r in TABLE_ONE if r.method == "lemma" or r.solver_m in (1, 5)],
        ids=lambda r: f"h={r.h_lo}",
    )
    def test_support_grid_has_no_point_inside_the_row(self, row):
        if row.method == "lemma":
            mix = lemma_hider(row.lemma_id)
        else:
            sol = solve_game(GameConfig(4, 2, row.h_lo), Grid(row.solver_m))
            assert sol.value == row.value
            mix = sol.hider_mix
        assert no_multiple_inside(support_denominator(mix), row.h_lo, row.h_hi)

    def test_sixths_solve_certifies_the_three_halves_row(self):
        (row,) = [r for r in TABLE_ONE if r.h_lo == F(3, 2)]
        sol = solve_game(GameConfig(4, 2, row.h_lo), Grid(6))
        assert sol.value == row.value == F(3, 20)
        assert support_denominator(sol.hider_mix) == 3
        assert no_multiple_inside(3, row.h_lo, row.h_hi)
        for h, m in ((F(3, 2), 6), (F(8, 5), 30), (F(49, 30), 30)):
            value, _ = best_response_value(sol.hider_mix, GameConfig(4, 2, h), Grid(m))
            assert value == F(3, 20), h

    def test_recorded_eighths_mix_does_not_cover_its_row(self):
        # the m=8 solve behind the row's recorded grid: its mix admits more
        # than the row value inside the interval
        (row,) = [r for r in TABLE_ONE if r.h_lo == F(3, 2)]
        assert row.solver_m == 8
        sol = solve_game(GameConfig(4, 2, row.h_lo), Grid(8))
        assert sol.value == F(3, 20)
        assert not no_multiple_inside(support_denominator(sol.hider_mix), row.h_lo, row.h_hi)
        value, _ = best_response_value(sol.hider_mix, GameConfig(4, 2, F(13, 8)), Grid(8))
        assert value == F(3, 10)
