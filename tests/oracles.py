"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: raw product enumeration, single-step
recursion over explicit histories, full decision-tree enumeration for tiny
games, straight walk-the-ordering simulation, a simplex over a plain Fraction
tableau, and the two-stage script walk in plain Fraction arithmetic. No code
is shared with the package beyond basic value types.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product


def brute_hiders(n: int, k: int, m: int):
    """All valid grid placements as per-location sorted step tuples.

    Brute force: assign each object a (location, step) pair independently,
    collapse to multisets, keep placements whose per-location maxima sum to
    at most m steps (total depth <= 1).
    """
    seen = set()
    for locs in product(range(n), repeat=k):
        for steps in product(range(1, m + 1), repeat=k):
            sets = [[] for _ in range(n)]
            for loc, s in zip(locs, steps):
                sets[loc].append(s)
            key = tuple(tuple(sorted(s)) for s in sets)
            if sum(max(s) for s in key if s) <= m:
                seen.add(key)
    return sorted(seen)


def brute_best_response(entries, n: int, m: int, budget_steps: int) -> Fraction:
    """Best adaptive Searcher win probability, one grid step at a time.

    entries: list of (placement, prob) with placement as returned by
    brute_hiders. No jump moves, no symmetry folding; consistency is
    recomputed from scratch at every node.
    """
    k = sum(len(s) for s in entries[0][0])

    def consistent(dug, found):
        out = []
        for hp, p in entries:
            ok = True
            for j in range(n):
                revealed = tuple(s for s in hp[j] if s <= dug[j])
                if revealed != found[j]:
                    ok = False
                    break
            if ok:
                out.append((hp, p))
        return out

    @lru_cache(maxsize=None)
    def value(dug, found, spent):
        cons = consistent(dug, found)
        weight = sum(p for _, p in cons)
        if weight == 0:
            return Fraction(0)
        if sum(len(f) for f in found) == k:
            return Fraction(1)
        if spent >= budget_steps:
            return Fraction(0)
        best = Fraction(0)
        for j in range(n):
            if dug[j] >= m:
                continue
            new_dug = dug[:j] + (dug[j] + 1,) + dug[j + 1:]
            branches = {}
            for hp, p in cons:
                reveal = tuple(s for s in hp[j] if s == dug[j] + 1)
                new_found = found[:j] + (found[j] + reveal,) + found[j + 1:]
                branches[new_found] = branches.get(new_found, 0) + p
            total = Fraction(0)
            for new_found, p in branches.items():
                total += p * value(new_dug, new_found, spent + 1)
            best = max(best, total / weight)
        return best

    root = ((0,) * n, ((),) * n, 0)
    return value(*root)


def enumerate_policy_trees(n: int, m: int, budget_steps: int, k: int):
    """All deterministic adaptive dig policies for a tiny grid game.

    A policy maps (dug, found-so-far) to the next location; branches cover
    every a-priori possible reveal multiset at the newly dug step (0..k
    objects). Returned as flat dicts state -> location.
    """
    def extend(policies, state, spent):
        dug, found = state
        nfound = sum(len(f) for f in found)
        if nfound == k or spent >= budget_steps:
            return policies
        if all(d >= m for d in dug):
            return policies
        out = []
        for pol in policies:
            if state in pol:
                out.append(pol)
                continue
            for j in range(n):
                if dug[j] >= m:
                    continue
                grown = [{**pol, state: j}]
                new_dug = dug[:j] + (dug[j] + 1,) + dug[j + 1:]
                for count in range(k - nfound + 1):
                    reveal = tuple([dug[j] + 1] * count)
                    nf = found[:j] + (found[j] + reveal,) + found[j + 1:]
                    grown = extend(grown, (new_dug, nf), spent + 1)
                out.extend(grown)
        return out

    root = ((0,) * n, ((),) * n)
    return extend([{}], root, 0)


def simulate_policy(policy, placement, n: int, budget_steps: int, k: int):
    """Run a flat-dict policy against a placement; 1 if all objects found."""
    dug = (0,) * n
    found = ((),) * n
    spent = 0
    while spent < budget_steps and sum(len(f) for f in found) < k:
        j = policy.get((dug, found))
        if j is None:
            return 0
        step = dug[j] + 1
        reveal = tuple(s for s in placement[j] if s == step)
        dug = dug[:j] + (step,) + dug[j + 1:]
        found = found[:j] + (found[j] + reveal,) + found[j + 1:]
        spent += 1
    return 1 if sum(len(f) for f in found) == k else 0


def round_robin_win(n: int, h: Fraction, y: Fraction, pos_first: int, pos_second: int) -> bool:
    """Walk the fixed ordering and account every dug unit explicitly.

    Objects at depths y (position pos_first) and 1-y (position pos_second),
    1-indexed positions within the ordering, pos_first != pos_second. The
    Searcher digs each location to depth 1 in order; after the first find
    it digs the remaining locations only to the second object's maximum
    possible depth. Returns whether the second object is reached within h.
    """
    h = Fraction(h)
    y = Fraction(y)
    depths = {pos_first: y, pos_second: 1 - y}
    spend = Fraction(0)
    cap = Fraction(1)
    found = 0
    for pos in range(1, n + 1):
        target = depths.get(pos)
        if found == 0:
            if target is None:
                spend += 1
                continue
            spend += target
            if spend > h:
                return False
            found = 1
            cap = 1 - target
        else:
            if target is None:
                spend += cap
                if spend >= h:
                    return False
                continue
            if target > cap:
                return False
            spend += target
            return spend <= h
    return False


def round_robin_split_prob(n: int, h: Fraction, y: Fraction) -> Fraction:
    """Average round_robin_win over all ordered position pairs."""
    wins = 0
    total = 0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            total += 1
            if round_robin_win(n, h, y, i, j):
                wins += 1
    return Fraction(wins, total)


def simplex_max(A, b, c):
    """Maximize c.x subject to A x <= b, x >= 0, with b >= 0.

    Dense tableau simplex with Bland's rule (smallest-index entering and
    leaving variables), which cannot cycle. Returns the solution vector and
    the dual values of the constraints.

    Plain Fraction tableau: the pivot row is divided by the pivot, then
    eliminated from every other row. The package's integer tableau must
    take the same pivots and return the same values.
    """
    m = len(A)
    n = len(c)
    zero = Fraction(0)
    tableau = [
        [Fraction(v) for v in A[i]]
        + [Fraction(1) if j == i else zero for j in range(m)]
        + [Fraction(b[i])]
        for i in range(m)
    ]
    obj = [-Fraction(v) for v in c] + [zero] * (m + 1)
    basis = [n + i for i in range(m)]
    width = n + m + 1
    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best_ratio = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            raise ValueError("LP unbounded")
        pivot_row = tableau[leave]
        pivot = pivot_row[enter]
        if pivot != 1:
            for j in range(width):
                pivot_row[j] /= pivot
        for row in tableau:
            if row is pivot_row:
                continue
            factor = row[enter]
            if factor:
                for j in range(width):
                    if pivot_row[j]:
                        row[j] -= factor * pivot_row[j]
        factor = obj[enter]
        if factor:
            for j in range(width):
                if pivot_row[j]:
                    obj[j] -= factor * pivot_row[j]
        basis[leave] = enter
    x = [zero] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][-1]
    duals = obj[n : n + m]
    return x, duals


# The two-stage script walk in Fraction arithmetic: the package evaluates
# scripts in integers over a common denominator and must agree exactly.

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _stage1_outcome(script, sets, h: Fraction):
    """Walk stage 1 to the first find.

    Returns ("win", None) when every object is found at one instant,
    ("find", (profile, location, depth, remaining_objects)) at a single
    first find, or ("none", None) when the schedule ends dry.
    """
    objects = [(loc, d) for loc, s in enumerate(sets) for d in s]
    n = len(sets)
    prev = (_ZERO,) * n
    for wp in script.stage1:
        cur = wp.depths
        first = None
        hits = []
        for idx, (loc, d) in enumerate(objects):
            lo, hi = prev[loc], cur[loc]
            if lo < d <= hi:
                s = (d - lo) / (hi - lo)
                if first is None or s < first:
                    first = s
                    hits = [idx]
                elif s == first:
                    hits.append(idx)
        if hits:
            profile = tuple(a + first * (b - a) for a, b in zip(prev, cur))
            if len(hits) == len(objects):
                return "win", None
            idx = hits[0]
            loc, d = objects[idx]
            remaining = [o for i, o in enumerate(objects) if i != idx]
            return "find", (profile, loc, d, remaining)
        prev = cur
    return "none", None


def _is_dig_win(trigger_loc, trigger_depth, profile, sigma, remaining, h) -> bool:
    """Stage 2: visit sigma, digging each location to its cap; exact budget."""
    (loc2, d2) = remaining[0]
    cur = list(profile)
    budget = h - sum(cur)
    for j in sigma:
        cap = _ONE if j == trigger_loc else _ONE - trigger_depth
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


def _win_prob_fixed(script, sets, h: Fraction) -> Fraction:
    """Win probability against one fixed arrangement (no relabeling)."""
    kind, info = _stage1_outcome(script, sets, h)
    if kind == "win":
        return _ONE
    if kind == "none":
        return _ZERO
    profile, loc, d, remaining = info
    branches = script.stage2_rules.get(loc)
    if branches is None:
        raise ValueError(f"no stage-2 rule for a find in location {loc + 1}")
    total = _ZERO
    for sigma, p in branches:
        if _is_dig_win(loc, d, profile, sigma, remaining, h):
            total += p
    return total


def script_win_prob(components, sets, h: Fraction, relabel: bool = True) -> Fraction:
    """Weighted win probability of (script, weight) components against sets
    of Fraction depths, averaged over every distinct relabeling if asked."""
    arrangements = sorted(set(permutations(sets))) if relabel else [sets]
    total = _ZERO
    for script, weight in components:
        wins = sum((_win_prob_fixed(script, a, h) for a in arrangements), _ZERO)
        total += weight * wins / len(arrangements)
    return total
