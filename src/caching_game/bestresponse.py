"""Optimal adaptive search against a known Hider mixture.

Exact dynamic program over Searcher information states. A state is the
per-location dug depth (in grid steps) plus the per-location multiset of
depths at which objects have been revealed; together these determine which
support strategies remain consistent, so values are memoized on
(dug, found) alone. The value of a state is the total mass of consistent
strategies the Searcher can still fully uncover within the remaining
budget. Masses are integers: each probability is scaled by the lcm L of the
mix's denominators, and the root mass is divided by L once at the end.

Two accelerations, both checked against the single-step brute force in the
test oracles:

* jump moves: within one location, digging above the shallowest depth any
  consistent strategy still hides at reveals nothing, so each move takes
  the dig front straight to that depth;
* state folding: when the mixture is invariant under location relabeling,
  values are memoized on the sorted multiset of (dug, found) location
  descriptors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import starmap

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
    simulated against any strategy, on or off the support it was built for.
    """

    def __init__(self, n: int, m: int, budget: int, actions: dict | None = None):
        self.n = n
        self.m = m
        self.budget = budget
        self.actions = dict(actions or {})

    def act(self, dug: tuple[int, ...], found) -> tuple[int, int] | None:
        move = self.actions.get((dug, found))
        if move is not None:
            return move
        for loc in range(self.n):
            if dug[loc] < self.m:
                return loc, self.m
        return None

    def simulate(self, hp_steps: tuple[tuple[int, ...], ...]) -> bool:
        """Play the policy against one placement; True iff all objects found."""
        k = sum(len(s) for s in hp_steps)
        dug = [0] * self.n
        found = [() for _ in range(self.n)]
        found_count = 0
        budget = self.budget
        while True:
            if found_count == k:
                return True
            if budget == 0:
                return False
            move = self.act(tuple(dug), tuple(found))
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

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TreePolicy":
        actions = {}
        for move in obj["moves"]:
            key = (
                tuple(move["dug"]),
                tuple(tuple(f) for f in move["found"]),
            )
            actions[key] = (move["location"], move["to_step"])
        return cls(obj["n"], obj["m"], obj["budget"], actions)


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


def best_response_value(
    mu: HiderMixed,
    cfg: GameConfig,
    grid: Grid,
    *,
    fold: bool | None = None,
    extract_policy: bool = True,
) -> tuple[Fraction, TreePolicy | None]:
    """Exact value of the best adaptive Searcher reply to the mixture mu.

    Every support strategy must be a valid placement on the grid. The
    returned policy realizes the value against mu and is total (it digs
    sensibly off-support as well). `fold` defaults to automatic: folding is
    enabled exactly when mu is location-symmetric, which is what makes it
    sound.
    """
    for hp, _ in mu.entries:
        violation = validate_hider(hp, cfg)
        if violation is not None:
            raise ValueError(f"invalid support strategy {hp}: {violation}")
    if fold is None:
        fold = mu.is_location_symmetric()
    solver = _BestResponse(mu, cfg, grid, fold=fold)
    root_cons = tuple(range(len(mu.entries)))
    mass = solver.value((0,) * cfg.n, ((),) * cfg.n, root_cons)
    policy = solver.extract_policy() if extract_policy else None
    return Fraction(mass, solver.scale), policy

