"""Optimal adaptive search against a known Hider mixture.

Exact dynamic program over Searcher information states. A state is the
per-location dug depth (in grid steps) plus the per-location multiset of
depths at which objects have been revealed; together these determine which
support strategies remain consistent, so values are memoized on
(dug, found) alone. The value of a state is the total mass of consistent
strategies the Searcher can still fully uncover within the remaining
budget. Masses are integers: each probability is scaled by the lcm L of the
mix's denominators, and the root mass is divided by L once at the end.

The consistent strategies of a state are a bitmask over the support: bit i
is strategy i. Tables built once per call give, for each (location, depth),
the strategies with an object there and those with exactly c objects there,
so a move's target is found and its successors are split by one AND each.

States are settled by how many objects remain:

* none: every object is found, so the placement is known; the value is
  that one strategy's mass, and no memo entry is made;
* one: no find before the last one can change the plan, so the Searcher
  fixes a dig depth per location in advance; the value is a knapsack of
  the remaining budget over locations, each gaining the mass whose last
  object lies within its dig, merged at the depths where that mass rises.
  Only a folding DP makes a memo entry here, since relabeled twins meet
  the state again (30-43% of its one-left calls are hits): recomputing
  them made the uniform-mix best responses about 25% slower. Unfolded,
  only the find that leaves one object reaches it and no move leaves it,
  so with two objects it never recurs (with three, two find orders can
  meet), and an entry only takes memory: such entries were 78% of the
  memo for a random mix at n=5, h=2, m=6. Every mix that solve and the
  CLI pass here is location-symmetric, so only a caller of
  best_response_value with an asymmetric mix reaches the unfolded DP;
* more: the exact recursion over moves, memoized.

Two accelerations, both checked against the single-step brute force in the
test oracles:

* jump moves: within one location, digging above the shallowest depth any
  consistent strategy still hides at reveals nothing, so each move takes
  the dig front straight to that depth;
* state folding: exactly when the mixture is invariant under location
  relabeling, values are memoized on the sorted multiset of (dug, found)
  location descriptors, and a move at a location whose descriptor equals
  an earlier location's is skipped: it is a relabeled twin of equal value.

The same tables drive `TreePolicy.win_mask`, which walks one policy over a
whole set of placements at once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, chain, repeat, starmap
from operator import add

from .core import GameConfig, HiderMixed, validate_hider
from .enumeration import Grid


def effective_budget(cfg: GameConfig, grid: Grid) -> int:
    """Grid steps available to the Searcher: floor(h * m)."""
    return math.floor(cfg.h * grid.m)


class TreePolicy:
    """A deterministic adaptive dig policy.

    `actions` maps (dug, found) states to (location, target_step) moves;
    states outside the map follow the fallback of digging the lowest-index
    unexhausted location to full depth. The policy is total, so it can be
    played against any placement of its grid, on or off the support it was
    built for. Raises ValueError for a move that cannot advance from its
    state, which the walk of `win_mask` would ask for forever.
    """

    def __init__(self, n: int, m: int, budget: int, actions: dict | None = None):
        self.n = n
        self.m = m
        self.budget = budget
        self.actions = dict(actions or {})
        for (dug, _), (loc, target) in self.actions.items():
            if not (0 <= loc < n == len(dug) and dug[loc] < target <= m):
                raise ValueError(f"move {(loc, target)} cannot advance from {dug}")

    def act(self, dug: tuple[int, ...], found) -> tuple[int, int] | None:
        move = self.actions.get((dug, found))
        if move is not None:
            return move
        for loc in range(self.n):
            if dug[loc] < self.m:
                return loc, self.m
        return None

    def simulate(self, hp_steps: tuple[tuple[int, ...], ...]) -> bool:
        """Play the policy against one placement; True iff all objects found.

        The walk of `win_mask` over a one-placement set.
        """
        at, hit = _placement_tables([hp_steps], self.n, self.m)
        return self.win_mask(at, hit, 1, sum(map(len, hp_steps))) == 1

    def win_mask(self, at, hit, cons: int, left: int) -> int:
        """The placements in cons that the policy finds whole, as a bitmask.

        at and hit are `_placement_tables` over placements that each hide
        `left` objects. One walk serves them all. Each move is one jump, as
        in the DP: a placement's dig front stops at the first depth past it
        that holds an object (revealing every object there), at the move's
        target or where the budget runs out, whichever comes first. So the
        placements split where some of them hold an object, grouped by how
        many lie there, and the rest go on with the same move.
        """
        wins = 0
        stack = [((0,) * self.n, ((),) * self.n, cons, left, self.budget)]
        while stack:
            dug, found, cons, left, budget = stack.pop()
            if not left:
                wins |= cons
                continue
            move = self.act(dug, found) if budget else None
            if move is None:
                continue
            loc, target = move
            start = dug[loc]
            end = min(target, start + budget)
            row = at[loc]
            for t in range(start + 1, end + 1):
                here = cons & row[t]
                if here:
                    cons ^= here
                    next_dug = dug[:loc] + (t,) + dug[loc + 1 :]
                    # found depths at loc lie above start, so appending keeps order
                    for count, group in hit[loc][t]:
                        members = here & group
                        if members:
                            next_found = found[:loc] + (found[loc] + (t,) * count,) + found[loc + 1 :]
                            stack.append((next_dug, next_found, members, left - count, budget - t + start))
                    if not cons:
                        break
            if cons:
                stack.append((dug[:loc] + (end,) + dug[loc + 1 :], found, cons, left, budget - end + start))
        return wins

    def to_json_obj(self) -> dict:
        moves = [
            {
                "dug": list(dug),
                "found": [list(f) for f in found],
                "location": loc,
                "to_step": target,
            }
            for (dug, found), (loc, target) in sorted(self.actions.items())
        ]
        return {"n": self.n, "m": self.m, "budget": self.budget, "moves": moves}

    @staticmethod
    def move_from_json_obj(move: dict):
        """One encoded move as its ((dug, found), (location, to_step)) pair;
        any other dict is returned unchanged, so this serves as a json
        object_hook."""
        if "to_step" not in move:
            return move
        state = (tuple(move["dug"]), tuple(tuple(f) for f in move["found"]))
        return state, (move["location"], move["to_step"])

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TreePolicy":
        """The policy of to_json_obj, its moves already decoded into pairs
        by move_from_json_obj. Raises ValueError for a state holding a
        non-integer, which to_json_obj could not sort, and, from the
        constructor, for a move that cannot advance."""
        actions = dict(obj["moves"])
        for dug, found in actions:
            if not all(isinstance(t, int) for t in chain(dug, *found)):
                raise ValueError(f"state {(dug, found)} holds a non-integer")
        return cls(obj["n"], obj["m"], obj["budget"], actions)


def _placement_tables(placements, n: int, m: int):
    """(at, hit) over placements given as per-location step tuples, bit i
    for placement i. at[loc][t]: the placements with an object at (loc, t);
    hit[loc][t]: (c, the placements with exactly c objects there) for each
    c that occurs, in ascending c."""
    at = [[0] * (m + 1) for _ in range(n)]
    hit = [[{} for _ in range(m + 1)] for _ in range(n)]
    for i, steps in enumerate(placements):
        bit = 1 << i
        for loc, depths in enumerate(steps):
            for t in set(depths):
                at[loc][t] |= bit
                c = depths.count(t)
                hit[loc][t][c] = hit[loc][t].get(c, 0) | bit
    return at, [[sorted(cell.items()) for cell in row] for row in hit]


def _fold_key(dug, found):
    return tuple(sorted(zip(dug, found)))


def _cumulative(masses: dict, budget: int):
    """(row, depths): row[t] sums masses at depths <= t for t up to budget."""
    row = [0] * (budget + 1)
    for t, mass in masses.items():
        row[t] = mass
    return list(accumulate(row)), sorted(masses)


class _BestResponse:
    def __init__(self, mu: HiderMixed, cfg: GameConfig, grid: Grid, fold: bool):
        self.n = cfg.n
        self.k = cfg.k
        self.m = grid.m
        self.budget = effective_budget(cfg, grid)
        self.fold = fold
        self.scale = math.lcm(*(p.denominator for _, p in mu.entries))
        self.masses = [p.numerator * (self.scale // p.denominator) for _, p in mu.entries]
        self.full = (1 << len(mu.entries)) - 1
        placements = [hp.scaled(grid.m) for hp, _ in mu.entries]
        self.at, self.hit = _placement_tables(placements, self.n, self.m)
        # last[found][loc]: (row, depths) for the strategies whose objects
        # are those in found plus one at loc; row[t] is their mass with that
        # object at depth <= t, for t up to the budget, and depths lists
        # where row rises. None where no such strategy has one at loc.
        last: dict = {}
        for steps, mass in zip(placements, self.masses):
            for loc, depths in enumerate(steps):
                for t in set(depths):
                    j = depths.index(t)
                    found = steps[:loc] + (depths[:j] + depths[j + 1 :],) + steps[loc + 1 :]
                    cell = last.setdefault(found, [{} for _ in range(self.n)])[loc]
                    if t <= self.budget:
                        cell[t] = cell.get(t, 0) + mass
        self.last = {
            found: [_cumulative(cell, self.budget) if cell else None for cell in cells]
            for found, cells in last.items()
        }
        self.memo: dict = {}

    def _moves(self, dug, found, cons, budget_left):
        """Eligible jump moves in location order, each with its successors.

        A move takes loc's dig front to the first depth at which a
        consistent strategy hides an object, if the budget reaches it.
        Yields ((loc, target), list of (next_dug, next_found, members)),
        the members grouped by how many objects lie at the target.

        A folding DP skips a location whose (dug, found) equals an earlier
        one's: its move is a relabeled twin of equal value, which the
        first-strictly-larger tie rule of best_move never picks.
        """
        for loc in range(self.n):
            if self.fold and (dug[loc], found[loc]) in zip(dug[:loc], found[:loc]):
                continue
            row = self.at[loc]
            start = dug[loc]
            for target in range(start + 1, min(self.m, start + budget_left) + 1):
                here = cons & row[target]
                if here:
                    break
            else:
                continue
            next_dug = dug[:loc] + (target,) + dug[loc + 1 :]
            successors = [(next_dug, found, cons ^ here)] if cons != here else []
            # every revealed depth lies below those already found at loc,
            # so appending keeps found[loc] sorted
            for count, group in self.hit[loc][target]:
                members = here & group
                if members:
                    next_found = found[:loc] + (found[loc] + (target,) * count,) + found[loc + 1 :]
                    successors.append((next_dug, next_found, members))
            yield (loc, target), successors

    def _last_object(self, dug, found, budget_left) -> int:
        """Value of a state with one object left: a knapsack over locations.

        No find before the last one remains, so the Searcher's plan is a dig
        depth per location fixed in advance: digging loc c steps further
        uncovers row[dug[loc] + c] - row[dug[loc]] of mass. best[b] is the
        most mass b steps uncover over the locations merged so far. The
        first location seeds it, the middle ones merge at the depths where
        their row rises, and the last one is read at the full budget only.
        """
        plans = []
        for start, cell in zip(dug, self.last[found]):
            if cell is not None and cell[0][start + budget_left] != cell[0][start]:
                plans.append((start, *cell))
        if not plans:
            return 0
        (start, row, _), *middle = plans
        best = [gain - row[start] for gain in row[start : start + budget_left + 1]]
        if not middle:
            return best[budget_left]
        *middle, last = middle
        for start, row, depths in middle:
            merged = best[:]
            for t in depths:
                cost = t - start
                if cost > budget_left:
                    break
                if cost > 0:
                    gain = repeat(row[t] - row[start], budget_left + 1 - cost)
                    merged[cost:] = map(max, merged[cost:], map(add, best, gain))
            best = merged
        start, row, _ = last
        return max(map(add, reversed(best), row[start : start + budget_left + 1])) - row[start]

    def value(self, dug, found, cons) -> int:
        """Total mass of cons the Searcher can still fully uncover."""
        left = self.k - sum(map(len, found))
        if left == 0:
            # every object is found, so cons holds the one strategy with
            # this placement (support strategies are distinct)
            return self.masses[cons.bit_length() - 1]
        if left == 1 and not self.fold:
            # unfolded, only a find reaches a one-left state and no move
            # leaves it, so it seldom recurs: settle it without an entry
            return self._last_object(dug, found, self.budget - sum(dug))
        key = _fold_key(dug, found) if self.fold else (dug, found)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        if left == 1:
            result = self._last_object(dug, found, self.budget - sum(dug))
        else:
            result = self.best_move(dug, found, cons)[1]
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
            total = sum(starmap(self.value, successors))
            if best is None or total > best_value:
                best, best_value, best_successors = move, total, successors
        return best, best_value, best_successors

    def extract_policy(self) -> TreePolicy:
        """Record the chosen move for every state reachable under the mix."""
        actions = {}
        root = ((0,) * self.n, ((),) * self.n, self.full)
        # a tree: siblings differ in found at the dug location, and found
        # only grows, so no state is reached twice
        stack = [root]
        while stack:
            dug, found, cons = stack.pop()
            if sum(map(len, found)) == self.k:
                continue
            move, move_value, successors = self.best_move(dug, found, cons)
            if move is None or move_value == 0:
                # Nothing left worth digging for; fall back outside the map.
                continue
            actions[(dug, found)] = move
            stack.extend(successors)
        return TreePolicy(self.n, self.m, self.budget, actions)


def best_response_value(
    mu: HiderMixed, cfg: GameConfig, grid: Grid, *, extract_policy: bool = True
) -> tuple[Fraction, TreePolicy | None]:
    """Exact value of the best adaptive Searcher reply to the mixture mu.

    Every support strategy must be a valid placement on the grid. The
    returned policy realizes the value against mu and is total (it digs
    sensibly off-support as well). States are folded exactly when mu is
    location-symmetric, which is what makes folding sound.
    """
    for hp, _ in mu.entries:
        violation = validate_hider(hp, cfg)
        if violation is not None:
            raise ValueError(f"invalid support strategy {hp}: {violation}")
    solver = _BestResponse(mu, cfg, grid, fold=mu.is_location_symmetric())
    mass = solver.value((0,) * cfg.n, ((),) * cfg.n, solver.full)
    policy = solver.extract_policy() if extract_policy else None
    return Fraction(mass, solver.scale), policy

