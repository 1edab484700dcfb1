"""Output checks for the benchmark, built on reference computations of its own.

Nothing here imports `caching_game`: placements are enumerated by brute
force, policies are walked from their JSON form, best responses are searched
one grid step at a time, and the sweep is walked position by position. A
change to the package or to its tests cannot change what these checks
accept. Each checker raises `CheckError` on the first disagreement.

The paper's values are copied here as the paper states them.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction as F


class CheckError(Exception):
    """An output disagrees with a reference computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# --- the paper's values ------------------------------------------------------

# Table 1 for n=4, k=2: (h_lo, h_hi, value) on [h_lo, h_hi).
TABLE_ONE = (
    (F(1), F(3, 2), F(1, 10)),
    (F(3, 2), F(5, 3), F(3, 20)),
    (F(5, 3), F(7, 4), F(1, 5)),
    (F(7, 4), F(9, 5), F(9, 40)),
    (F(9, 5), F(11, 6), F(7, 30)),
    (F(11, 6), F(2), F(1, 4)),
    (F(2), F(11, 5), F(2, 5)),
    (F(11, 5), F(7, 3), F(9, 20)),
    (F(7, 3), F(3), F(1, 2)),
    (F(3), F(4), F(3, 4)),
)

LEMMA_VALUES = {2: F(1, 4), 3: F(9, 20), 4: F(9, 40), 5: F(7, 30)}

# The 19 per-arrangement minima behind the Searcher scripts of lemmas 4 and
# 5, in the order `searcher_table_report` lists them.
SEARCHER_TABLE_VALUES = (
    F(1), F(1, 10), F(17, 20), F(3, 4),
    F(1), F(1, 10), F(1, 4),
    F(1), F(1, 15), F(1), F(11, 15),
    F(1), F(1), F(11, 15), F(1, 15), F(1, 3),
    F(1), F(1, 15), F(1, 3),
)


def table_one_value(h: F) -> F:
    for lo, hi, value in TABLE_ONE:
        if lo <= h < hi:
            return value
    raise CheckError(f"no Table 1 interval holds h={h}")


# --- parsing -----------------------------------------------------------------

_RATIONAL = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> F:
    match = _RATIONAL.match(text.strip())
    require(match is not None and match.group(2) != "0", f"not a rational: {text!r}")
    return F(int(match.group(1)), int(match.group(2) or 1))


def parse_hider(text: str) -> tuple[tuple[F, ...], ...]:
    """"({1/2,2/3},1/3,0)" -> ((1/2, 2/3), (1/3,), ())."""
    body = text.strip()
    require(body.startswith("(") and body.endswith(")"), f"not a strategy: {text!r}")
    sets = []
    for part in re.findall(r"\{[^}]*\}|[^,]+", body[1:-1]):
        if part == "0":
            sets.append(())
        else:
            sets.append(tuple(sorted(parse_rational(x) for x in part.strip("{}").split(","))))
    return tuple(sets)


def to_steps(sets, m: int) -> tuple[tuple[int, ...], ...]:
    steps = []
    for depths in sets:
        scaled = [d * m for d in depths]
        require(all(s.denominator == 1 and 1 <= s <= m for s in scaled), f"{sets} is off the 1/{m} grid")
        steps.append(tuple(sorted(int(s) for s in scaled)))
    return tuple(steps)


# --- placements, policies, best responses ------------------------------------


def placements(n: int, k: int, m: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every labeled grid placement of k objects, as per-location sorted steps.

    Objects go to (location, step) cells independently; a placement is kept
    when its per-location deepest steps sum to at most m (total depth 1).
    """
    cells = list(itertools.product(range(n), range(1, m + 1)))
    out = set()
    for chosen in itertools.combinations_with_replacement(cells, k):
        sets = [[] for _ in range(n)]
        for loc, step in chosen:
            sets[loc].append(step)
        placement = tuple(tuple(sorted(s)) for s in sets)
        if sum(s[-1] for s in placement if s) <= m:
            out.add(placement)
    return sorted(out)


def orbits(all_placements) -> list[list]:
    """Group placements that differ only by a relabeling of locations."""
    groups: dict = {}
    for placement in all_placements:
        groups.setdefault(tuple(sorted(placement)), []).append(placement)
    return list(groups.values())


def load_policy(obj: dict):
    """A policy's JSON object as (n, m, budget, {(dug, found): (location, to_step)})."""
    moves = {}
    for move in obj["moves"]:
        key = (tuple(move["dug"]), tuple(tuple(f) for f in move["found"]))
        moves[key] = (move["location"], move["to_step"])
    return obj["n"], obj["m"], obj["budget"], moves


def policy_wins(policy, placement) -> bool:
    """Play a policy against one placement; True iff every object is found.

    A move (location, to_step) digs one step at a time and ends early at a
    find, after which the policy is consulted again. A state with no move
    digs the lowest-index location that is not yet at full depth.
    """
    n, m, budget, moves = policy
    k = sum(len(s) for s in placement)
    dug = [0] * n
    found = [()] * n
    got = 0
    while got < k and budget > 0:
        move = moves.get((tuple(dug), tuple(found)))
        if move is None:
            loc = next((j for j in range(n) if dug[j] < m), None)
            if loc is None:
                return False
            move = (loc, m)
        loc, target = move
        require(0 <= loc < n and dug[loc] < target <= m, f"move {move} digs nothing at {dug}")
        while dug[loc] < target and budget > 0:
            dug[loc] += 1
            budget -= 1
            hits = placement[loc].count(dug[loc])
            if hits:
                found[loc] = tuple(sorted(found[loc] + (dug[loc],) * hits))
                got += hits
                break
    return got == k


def brute_best_response(entries, n: int, m: int, budget: int) -> F:
    """Best adaptive win probability against weighted placements.

    Every move digs one grid step; no jump moves and no symmetry folding.
    Values are unnormalized masses of the placements still consistent with
    what has been seen, memoized on (dug, found).
    """
    k = sum(len(s) for s in entries[0][0])
    memo: dict = {}

    def value(dug, found, cons):
        key = (dug, found)
        if key in memo:
            return memo[key]
        if sum(len(f) for f in found) == k:
            result = sum(w for _, w in cons)
        else:
            result = F(0)
            if sum(dug) < budget:
                for j in range(n):
                    if dug[j] == m:
                        continue
                    step = dug[j] + 1
                    split: dict = {}
                    for placement, w in cons:
                        split.setdefault(placement[j].count(step), []).append((placement, w))
                    next_dug = dug[:j] + (step,) + dug[j + 1 :]
                    total = F(0)
                    for hits, members in split.items():
                        next_found = found[:j] + (found[j] + (step,) * hits,) + found[j + 1 :]
                        total += value(next_dug, next_found, members)
                    result = max(result, total)
        memo[key] = result
        return result

    return value((0,) * n, ((),) * n, list(entries))


def grid_budget(h: F, m: int) -> int:
    return math.floor(h * m)


# --- solve -------------------------------------------------------------------


def check_solve(spec: dict, cold: str, warm: str, warm_note: str) -> None:
    """One solve's report against brute placements, walks and Table 1."""
    n, k, h, m = spec["n"], spec["k"], spec["h"], spec["m"]
    require(warm == cold, f"{spec['name']}: warm report differs from the cold one")
    require("cache hit" in warm_note, f"{spec['name']}: warm run did not read the cache")
    obj = json.loads(cold)
    require(obj["config"] == {"n": n, "k": k, "h": str(h)}, f"{spec['name']}: wrong config")
    require(obj["grid"] == {"m": m}, f"{spec['name']}: wrong grid")
    value = parse_rational(obj["value"])
    budget = grid_budget(h, m)
    all_placements = placements(n, k, m)
    valid = set(all_placements)

    hider = [(to_steps(parse_hider(e["strategy"]), m), parse_rational(e["prob"])) for e in obj["hider_mix"]]
    require(all(p in valid and w > 0 for p, w in hider), f"{spec['name']}: Hider mix leaves the grid")
    require(sum(w for _, w in hider) == 1, f"{spec['name']}: Hider mix does not sum to 1")

    mix = []
    for e in obj["searcher_policies"]:
        policy = load_policy(e["policy"])
        require(policy[:3] == (n, m, budget), f"{spec['name']}: policy {e['id']} has the wrong budget")
        mix.append((policy, parse_rational(e["prob"])))
    require(sum(p for _, p in mix) == 1, f"{spec['name']}: Searcher mix does not sum to 1")

    # The Searcher mix, played under a uniformly random relabeling, must
    # reach the value against every placement and meet it on some.
    worst = None
    for orbit in orbits(all_placements):
        wins = sum(p * sum(policy_wins(pol, q) for q in orbit) for pol, p in mix if p)
        guaranteed = wins / len(orbit)
        require(guaranteed >= value, f"{spec['name']}: Searcher mix gets {guaranteed} < {value} on {orbit[0]}")
        worst = guaranteed if worst is None else min(worst, guaranteed)
    require(worst == value, f"{spec['name']}: Searcher guarantee {worst} is not the value {value}")

    br = brute_best_response(hider, n, m, budget)
    require(br == value, f"{spec['name']}: brute best response {br} to the Hider mix, value {value}")

    if (n, k) == (4, 2):
        paper = table_one_value(h)
        if spec["exact"]:
            require(value == paper, f"{spec['name']}: value {value}, Table 1 says {paper}")
        else:
            require(value >= paper, f"{spec['name']}: value {value} below Table 1's {paper}")


# --- best response -------------------------------------------------------------


def check_best_response(spec: dict, value: F, policy_obj: dict) -> None:
    """The extracted policy must realize the DP value against the mix."""
    entries, n, m, budget = spec["entries"], spec["n"], spec["m"], spec["budget"]
    policy = load_policy(policy_obj)
    require(policy[:3] == (n, m, budget), f"{spec['name']}: policy has the wrong budget")
    walked = sum(w for placement, w in entries if policy_wins(policy, placement))
    require(walked == value, f"{spec['name']}: policy walk gives {walked}, DP value {value}")
    sweep = (n, m, budget, {})
    swept = sum(w for placement, w in entries if policy_wins(sweep, placement))
    require(value >= swept, f"{spec['name']}: value {value} below the full sweep's {swept}")
    if spec["brute"]:
        br = brute_best_response(entries, n, m, budget)
        require(br == value, f"{spec['name']}: brute best response {br}, DP value {value}")


# --- script scan -----------------------------------------------------------------

_BR_LINE = re.compile(r"best response to the Hider mix \(m=\d+\): (\S+) \[")
_SCAN_LINE = re.compile(r"script minimum win probability \(scan m=\d+\): (\S+) at (\(.*\)) \[")
_TABLE_LINE = re.compile(r"expected (\S+), computed (\S+) \[(ok|MISMATCH)\]")


def check_lemma(lemma: int, exit_code: int, report: str, rewin) -> None:
    """verify-lemma's report: duality, the paper's value and the witness.

    `rewin(sets)` re-evaluates the script against the witness strategy. The
    script minimum must equal the best response only when the command
    reported PASS; lemma 3's script is known to fall short of it.
    """
    br_match = _BR_LINE.search(report)
    scan_match = _SCAN_LINE.search(report)
    require(br_match is not None and scan_match is not None, f"lemma {lemma}: unreadable report")
    br = parse_rational(br_match.group(1))
    low = parse_rational(scan_match.group(1))
    require(br == LEMMA_VALUES[lemma], f"lemma {lemma}: best response {br}, paper says {LEMMA_VALUES[lemma]}")
    require(low <= br, f"lemma {lemma}: script minimum {low} above the best response {br}")
    again = rewin(parse_hider(scan_match.group(2)))
    require(again == low, f"lemma {lemma}: witness re-evaluates to {again}, reported {low}")
    if exit_code == 0:
        require(low == br and report.rstrip().endswith("PASS"), f"lemma {lemma}: PASS without equality")


def check_table_report(report: str) -> None:
    rows = _TABLE_LINE.findall(report)
    require(len(rows) == len(SEARCHER_TABLE_VALUES), f"table report has {len(rows)} entries")
    for (_, computed, _), paper in zip(rows, SEARCHER_TABLE_VALUES):
        require(parse_rational(computed) == paper, f"table entry {computed}, paper says {paper}")


# --- sweep -----------------------------------------------------------------------


def walk_split_prob(n: int, h: F, y: F) -> F:
    """Sweep-then-cap against objects at depths y and 1-y, walked explicitly.

    For every ordered pair of distinct positions, dig the ordering: each
    location to depth 1 until the first find at depth d, then each later
    location to 1 - d, counting every unit against the budget h.
    """
    wins = 0
    for first, second in itertools.permutations(range(n), 2):
        depth = {first: y, second: 1 - y}
        spent = F(0)
        cap = None
        for pos in range(n):
            d = depth.get(pos)
            if cap is None:
                if d is None:
                    spent += 1
                    continue
                spent += d
                if spent > h:
                    break
                cap = 1 - d
            elif d is None:
                spent += cap
                if spent >= h:
                    break
            else:
                wins += d <= cap and spent + d <= h
                break
    return F(wins, n * (n - 1))


def brute_lattice_count(n: int, h: F, y: F) -> int:
    return sum(1 for i in range(1, n + 1) for j in range(1, n + 1) if i * y + j * (1 - y) <= h)


def large_split_prob(n: int, h: F, y: F) -> F:
    """The walk's win condition counted in integers, for n too large to walk.

    With the shallow object (depth y) at position i, the walk wins with the
    deep one at j > i iff (i-1) + y + (j-i)(1-y) <= h, and at j < i iff
    (j-1) + (1-y) + (i-j)y <= h, that is j(1-y) <= h + y - iy. With
    y = a/b and h = c/d both bounds are integer floor divisions.
    """
    a, b = y.numerator, y.denominator
    c, d = h.numerator, h.denominator
    den = (b - a) * d
    wins = 0
    for i in range(1, n + 1):
        reach = (c * b - (i - 1) * b * d - a * d) // den
        wins += max(0, min(n - i, reach))
        wins += max(0, min(i - 1, (c * b + a * d - i * a * d) // den))
    return F(wins, n * (n - 1))


def large_lattice_count(n: int, h: F, y: F) -> int:
    a, b = y.numerator, y.denominator
    c, d = h.numerator, h.denominator
    count = 0
    for i in range(1, n + 1):
        j_hi = (c * b - i * a * d) // ((b - a) * d)
        count += max(0, min(n, j_hi))
    return count


def check_sweep_point(n: int, h: F, y: F | None, p: F) -> None:
    if y is None:
        require(p == F(math.floor(h), n), f"same-location n={n} h={h}: {p}")
    else:
        require(p >= h / n - F(2, n), f"split n={n} h={h} y={y}: {p} below h/n - 2/n")
