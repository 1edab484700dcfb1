"""Exact base types for the caching game.

Depths, probabilities and game values are `fractions.Fraction` throughout;
no solver path ever touches floating point. A Hider pure strategy is one
depth multiset per location, a Searcher position is a vector of dig depths.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(\d+)\s*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a bare integer "p") into an exact Fraction."""
    match = _RATIONAL_RE.match(text)
    if not match:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(match.group(1))
    den = int(match.group(2)) if match.group(2) else 1
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class GameConfig:
    """Game parameters: n locations, k buried objects, Searcher budget h.

    The interesting range is 1 <= h < n (outside it the game is trivial);
    construction only requires h >= 0 so that enumeration helpers can be
    used on degenerate configurations. Solver entry points call
    `require_standard_budget`.
    """

    n: int
    k: int
    h: Fraction

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        object.__setattr__(self, "h", Fraction(self.h))
        if self.h < 0:
            raise ValueError(f"h must be non-negative, got {self.h}")

    def require_standard_budget(self) -> None:
        if not 1 <= self.h < self.n:
            raise ValueError(
                f"h outside [1, n): h={format_rational(self.h)}, n={self.n}"
            )


@dataclass(frozen=True, order=True)
class HiderPure:
    """A Hider pure strategy: one sorted multiset of depths per location."""

    sets: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        norm = tuple(
            tuple(sorted(Fraction(d) for d in loc_set)) for loc_set in self.sets
        )
        object.__setattr__(self, "sets", norm)

    @property
    def n(self) -> int:
        return len(self.sets)

    @property
    def k(self) -> int:
        return sum(len(s) for s in self.sets)

    def max_depth_sum(self) -> Fraction:
        return sum((s[-1] for s in self.sets if s), Fraction(0))

    def objects(self) -> list[tuple[int, Fraction]]:
        """Flatten to (location, depth) pairs, in location order."""
        return [(i, d) for i, s in enumerate(self.sets) for d in s]

    def scaled(self, m: int) -> tuple[tuple[int, ...], ...]:
        """Depths as integer grid steps out of m. Raises off the grid."""
        scaled = []
        for s in self.sets:
            steps = []
            for d in s:
                step, off = divmod(d.numerator * m, d.denominator)
                if off:
                    raise ValueError(
                        f"depth {format_rational(d)} is not on the 1/{m} grid"
                    )
                steps.append(step)
            scaled.append(tuple(steps))
        return tuple(scaled)

    def __str__(self) -> str:
        return format_hider(self)


def make_hider(*location_sets) -> HiderPure:
    """Convenience constructor from per-location depth iterables."""
    return HiderPure(tuple(tuple(s) for s in location_sets))


def validate_hider(hp: HiderPure, cfg: GameConfig) -> str | None:
    """Check the Hider strategy invariants for cfg.

    Returns None when valid, otherwise a description of the violated
    invariant. Depth-0 burials are rejected (a depth-0 object is found by
    any dig, so it is dominated).
    """
    if hp.n != cfg.n:
        return f"location count {hp.n} != n={cfg.n}"
    if hp.k != cfg.k:
        return f"object count {hp.k} != k={cfg.k}"
    for i, s in enumerate(hp.sets):
        for d in s:
            if d > 1:
                return f"depth {format_rational(d)} > 1 in location {i + 1}"
            if d <= 0:
                return f"depth {format_rational(d)} out of range in location {i + 1}"
    total = hp.max_depth_sum()
    if total > 1:
        return f"sum of per-location maximum depths is {format_rational(total)} > 1"
    return None


def _canonical_key(loc_set: tuple):
    # Empty locations sort last; non-empty ones lexicographically.
    return (len(loc_set) == 0, loc_set)


def _orbit_size(sets) -> int:
    """Number of distinct orderings of the per-location sets."""
    repeats = math.prod(map(math.factorial, Counter(sets).values()))
    return math.factorial(len(sets)) // repeats


def relabelings(hp: HiderPure) -> list[HiderPure]:
    """All distinct location relabelings of hp, sorted."""
    return [HiderPure(sets) for sets in sorted(set(itertools.permutations(hp.sets)))]


def apply_permutation(hp: HiderPure, perm: tuple[int, ...]) -> HiderPure:
    """Relabel locations: new location j holds hp's location perm[j]."""
    return HiderPure(tuple(hp.sets[p] for p in perm))


@dataclass(frozen=True)
class HiderMixed:
    """A finitely supported Hider mixed strategy with exact probabilities."""

    entries: tuple[tuple[HiderPure, Fraction], ...]

    def __post_init__(self):
        norm = tuple((hp, Fraction(p)) for hp, p in self.entries)
        object.__setattr__(self, "entries", norm)
        if not norm:
            raise ValueError("empty mixed strategy support")
        if any(p <= 0 for _, p in norm):
            raise ValueError("support probabilities must be positive")
        total = sum(p for _, p in norm)
        if total != 1:
            raise ValueError(f"probabilities sum to {format_rational(total)}, not 1")
        if len({hp for hp, _ in norm}) != len(norm):
            raise ValueError("duplicate strategies in support")
        if len({hp.n for hp, _ in norm}) != 1:
            raise ValueError("support mixes different location counts")

    @classmethod
    def uniform(cls, strategies) -> "HiderMixed":
        strategies = list(strategies)
        p = Fraction(1, len(strategies))
        return cls(tuple((hp, p) for hp in strategies))

    def is_location_symmetric(self) -> bool:
        """True when the mix is invariant under every location relabeling.

        That is, each relabeling orbit the support meets lies in it whole,
        at one probability. Entries are grouped by their sorted location
        sets, one group per orbit; as entries are distinct, a group is the
        whole orbit when its size is the orbit size.
        """
        groups: dict[tuple, list[Fraction]] = {}
        for hp, p in self.entries:
            groups.setdefault(tuple(sorted(hp.sets)), []).append(p)
        for key, probs in groups.items():
            orbit = _orbit_size(key)
            if len(probs) != orbit or probs.count(probs[0]) != orbit:
                return False
        return True


@dataclass(frozen=True)
class DigProfile:
    """Current dig depths, one per location, each in [0, 1]."""

    depths: tuple[Fraction, ...]

    def __post_init__(self):
        norm = tuple(Fraction(d) for d in self.depths)
        object.__setattr__(self, "depths", norm)
        for d in norm:
            if not 0 <= d <= 1:
                raise ValueError(f"dig depth {format_rational(d)} outside [0, 1]")

    def total(self) -> Fraction:
        return sum(self.depths, Fraction(0))


def format_hider(hp: HiderPure) -> str:
    """Text form mirroring the usual notation, e.g. ({1/2,2/3},1/3,0)."""
    parts = []
    for s in hp.sets:
        if not s:
            parts.append("0")
        elif len(s) == 1:
            parts.append(format_rational(s[0]))
        else:
            parts.append("{" + ",".join(format_rational(d) for d in s) + "}")
    return "(" + ",".join(parts) + ")"


def parse_hider(text: str) -> HiderPure:
    """Parse the text form produced by `format_hider`.

    A lone "0" marks an empty location. A depth equal to 0 ("00", "{0,1}")
    raises ValueError: no valid strategy buries at depth 0, and a lone one
    would print back as the empty-location marker.
    """
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"expected parenthesized strategy, got {text!r}")
    body = body[1:-1]
    parts = []
    depth = 0
    current = ""
    for ch in body:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += ch
    parts.append(current)
    sets = []
    for part in parts:
        part = part.strip()
        if part == "0":
            sets.append(())
        elif part.startswith("{") and part.endswith("}"):
            sets.append(tuple(parse_rational(x) for x in part[1:-1].split(",")))
        else:
            sets.append((parse_rational(part),))
        if 0 in sets[-1]:
            raise ValueError(f"depth 0 in {part!r}: write an empty location as 0")
    return HiderPure(tuple(sets))
