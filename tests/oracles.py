"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: raw product enumeration, single-step
recursion over explicit histories, full decision-tree enumeration for tiny
games, the reduced enumeration in Fractions, step-by-step policy replay, straight walk-the-ordering simulation, a
simplex over a plain Fraction tableau and the matrix-game wrapper around it,
the two-stage script walk in plain Fraction arithmetic, and the
best-response DP over explicit consistency lists. No code is shared with the
package beyond basic value types, `TreePolicy` (the move map the list DP
returns and the step replay plays) and `effective_budget` (floor(h * m)).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product, starmap

from caching_game.bestresponse import TreePolicy, effective_budget
from caching_game.core import HiderPure


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


def canonicalize(hp: HiderPure) -> tuple[HiderPure, int]:
    """Canonical location relabeling plus the orbit size.

    The canonical form lists the location multisets in ascending
    lexicographic order with empty locations last; the orbit size is n!
    over the factorials of the repeated location multisets.
    """
    ordered = tuple(sorted(hp.sets, key=lambda s: (not s, s)))
    repeats = math.prod(math.factorial(ordered.count(s)) for s in set(ordered))
    return HiderPure(ordered), math.factorial(len(ordered)) // repeats


def reduced_hiders(n: int, k: int, m: int) -> list[tuple[HiderPure, int]]:
    """One canonical strategy per relabeling orbit with its orbit size,
    sorted: every labeled placement built as a strategy of Fraction depths
    and canonicalized."""
    labeled = (
        HiderPure(tuple(tuple(Fraction(s, m) for s in loc) for loc in steps))
        for steps in brute_hiders(n, k, m)
    )
    return sorted({canonicalize(hp) for hp in labeled})


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


def step_simulate(policy: TreePolicy, hp_steps) -> bool:
    """Play a TreePolicy against one placement one grid step at a time;
    True iff all objects are found. A move's dig stops at its target, when
    the budget runs out or at the first step that reveals an object."""
    k = sum(len(s) for s in hp_steps)
    dug = [0] * policy.n
    found = [() for _ in range(policy.n)]
    found_count = 0
    budget = policy.budget
    while True:
        if found_count == k:
            return True
        if budget == 0:
            return False
        move = policy.act(tuple(dug), tuple(found))
        if move is None:
            return False
        loc, target = move
        hidden = hp_steps[loc]
        while dug[loc] < target and budget > 0:
            dug[loc] += 1
            budget -= 1
            step = dug[loc]
            hits = sum(1 for s in hidden if s == step)
            if hits:
                found[loc] = tuple(sorted(found[loc] + (step,) * hits))
                found_count += hits
                break


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


def simplex_max(A, b, c, pivots=None):
    """Maximize c.x subject to A x <= b, x >= 0, with b >= 0.

    Dense tableau simplex with Bland's rule (smallest-index entering and
    leaving variables), which cannot cycle. Returns the solution vector and
    the dual values of the constraints. Given a list, `pivots` receives one
    (entering, leaving) variable pair per pivot; the slack of constraint i
    is variable len(c) + i.

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
        if pivots is not None:
            pivots.append((enter, basis[leave]))
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



def matrix_game(matrix):
    """(value, row_mix, col_mix) of a zero-sum matrix game, rows minimizing.

    Fraction arithmetic throughout, over `simplex_max`: the shift that makes
    every entry at least 1, the normalized LP and both duality checks. The
    package runs the same LP on integers over a common denominator and must
    return the same mixes.
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
    # with u = q / v', minimizing v' is maximizing sum(u) subject to every
    # column's payoff <= 1
    A = [[entries[i][j] + shift for i in range(n_rows)] for j in range(n_cols)]
    u, duals = simplex_max(A, [Fraction(1)] * n_cols, [Fraction(1)] * n_rows)
    total = sum(u)
    assert total > 0, "degenerate LP solution"
    shifted_value = 1 / total
    value = shifted_value - shift
    row_mix = [ui * shifted_value for ui in u]
    col_mix = [d * shifted_value for d in duals]
    assert sum(row_mix) == 1 and sum(col_mix) == 1
    worst_col = max(
        sum(row_mix[i] * entries[i][j] for i in range(n_rows)) for j in range(n_cols)
    )
    worst_row = min(
        sum(col_mix[j] * entries[i][j] for j in range(n_cols)) for i in range(n_rows)
    )
    assert worst_col == value == worst_row, "duality gap"
    return value, row_mix, col_mix

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


# The best-response DP over explicit consistency lists: one list of support
# indices per state, every finished state memoized, every state recursed.
# The package's DP keeps consistency sets as bitmasks, returns a finished
# state's mass without a memo entry and settles the last object by a
# knapsack; values and policies must agree exactly.

def _fold_key(dug, found):
    return tuple(sorted(zip(dug, found)))


def _hit_table(steps, n: int, m: int):
    """hits[loc][step][i]: how many of strategy i's objects lie at (loc, step)."""
    return [
        [tuple(s[loc].count(step) for s in steps) for step in range(m + 1)]
        for loc in range(n)
    ]


def _split(hits, cons, loc, target, next_dug, found):
    """The states that digging loc down to target (next_dug) can lead to.

    Groups cons by how many objects lie at target and yields
    (next_dug, next_found, members) per group, in first-seen order. Every
    revealed depth lies below those already found at loc, so appending
    keeps found[loc] sorted.
    """
    row = hits[loc][target]
    groups: dict[int, list[int]] = {}
    for i in cons:
        groups.setdefault(row[i], []).append(i)
    for count, members in groups.items():
        if count:
            next_found = found[:loc] + (found[loc] + (target,) * count,) + found[loc + 1 :]
        else:
            next_found = found
        yield next_dug, next_found, members


class _BestResponse:
    def __init__(self, mu: HiderMixed, cfg: GameConfig, grid: Grid, fold: bool):
        self.n = cfg.n
        self.k = cfg.k
        self.m = grid.m
        self.budget = effective_budget(cfg, grid)
        self.fold = fold
        self.scale = math.lcm(*(p.denominator for _, p in mu.entries))
        self.masses = [p.numerator * (self.scale // p.denominator) for _, p in mu.entries]
        self.steps = [hp.scaled(grid.m) for hp, _ in mu.entries]
        self.hits = _hit_table(self.steps, self.n, self.m)
        # nxt[loc][f][i]: strategy i's (f+1)-th shallowest depth at loc. A
        # strategy consistent with f finds at loc has exactly f depths at or
        # above the dig front, so this is its next depth below it. Past the
        # last depth the entry is out of budget's reach.
        unreachable = self.m + self.budget + 1
        self.nxt = [
            [
                tuple(s[loc][f] if f < len(s[loc]) else unreachable for s in self.steps)
                for f in range(self.k + 1)
            ]
            for loc in range(self.n)
        ]
        self.memo: dict = {}

    def _moves(self, dug, found, cons, budget_left):
        """Eligible jump moves in location order, each with its successors.

        Yields ((loc, target), iterator of (next_dug, next_found, members)).
        """
        for loc in range(self.n):
            target = min(map(self.nxt[loc][len(found[loc])].__getitem__, cons))
            if target - dug[loc] > budget_left:
                continue
            next_dug = dug[:loc] + (target,) + dug[loc + 1 :]
            yield (loc, target), _split(self.hits, cons, loc, target, next_dug, found)

    def value(self, dug, found, cons) -> int:
        """Total mass of cons the Searcher can still fully uncover."""
        key = _fold_key(dug, found) if self.fold else (dug, found)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        if sum(map(len, found)) == self.k:
            result = sum(map(self.masses.__getitem__, cons))
        else:
            result = 0
            for _, successors in self._moves(dug, found, cons, self.budget - sum(dug)):
                total = sum(starmap(self.value, successors))
                if total > result:
                    result = total
        self.memo[key] = result
        return result

    def best_move(self, dug, found, cons):
        """The value-maximizing move, ties broken by lowest location.

        Returns (move, mass, successor states); move is None when no move
        is eligible.
        """
        best = None
        best_value = 0
        best_successors = []
        for move, successors in self._moves(dug, found, cons, self.budget - sum(dug)):
            successors = list(successors)
            total = sum(starmap(self.value, successors))
            if best is None or total > best_value:
                best, best_value, best_successors = move, total, successors
        return best, best_value, best_successors

    def extract_policy(self) -> TreePolicy:
        """Record the chosen move for every state reachable under the mix."""
        actions = {}
        root = ((0,) * self.n, ((),) * self.n, tuple(range(len(self.steps))))
        stack = [root]
        seen = set()
        while stack:
            dug, found, cons = stack.pop()
            if (dug, found) in seen:
                continue
            seen.add((dug, found))
            if sum(map(len, found)) == self.k:
                continue
            move, move_value, successors = self.best_move(dug, found, cons)
            if move is None or move_value == 0:
                # Nothing left worth digging for; fall back outside the map.
                continue
            actions[(dug, found)] = move
            stack.extend(successors)
        return TreePolicy(self.n, self.m, self.budget, actions)


def list_best_response(mu, cfg, grid, fold: bool):
    """(Fraction value, TreePolicy) from the list-based DP."""
    solver = _BestResponse(mu, cfg, grid, fold=fold)
    root_cons = tuple(range(len(mu.entries)))
    mass = solver.value((0,) * cfg.n, ((),) * cfg.n, root_cons)
    return Fraction(mass, solver.scale), solver.extract_policy()
