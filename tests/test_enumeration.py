from fractions import Fraction as F

import pytest

from caching_game.core import GameConfig, HiderPure, make_hider
from caching_game.enumeration import (
    Grid,
    dump_enumeration,
    enumerate_grid_hiders,
    family_D,
    family_E,
)

from oracles import brute_hiders, canonicalize, reduced_hiders


class TestGrid:
    @pytest.mark.parametrize("bad", [0, -1, "2"])
    def test_rejects_bad_resolution(self, bad):
        with pytest.raises(ValueError):
            Grid(bad)


@pytest.mark.parametrize(
    "n,k,m",
    [(1, 1, 1), (2, 1, 2), (2, 2, 2), (3, 2, 2), (2, 2, 3), (4, 2, 2), (3, 3, 2)],
)
def test_enumeration_matches_brute_force(n, k, m):
    cfg = GameConfig(n, k, F(1))
    got = [hp.scaled(m) for hp, _ in enumerate_grid_hiders(cfg, Grid(m))]
    assert got == brute_hiders(n, k, m)


def test_known_counts():
    # n=2, k=2, m=2: placements of 2 objects on half-depth grid
    cfg = GameConfig(2, 2, F(1))
    assert len(enumerate_grid_hiders(cfg, Grid(2))) == 7
    # n=4, k=2, m=2: 12 stacked pairs plus 6 half-half splits
    cfg42 = GameConfig(4, 2, F(1))
    assert len(enumerate_grid_hiders(cfg42, Grid(2))) == 18


def test_reduction_weights_sum_to_unreduced_count():
    cfg = GameConfig(4, 2, F(1))
    full = enumerate_grid_hiders(cfg, Grid(2))
    reduced = enumerate_grid_hiders(cfg, Grid(2), reduce_symmetry=True)
    assert sum(w for _, w in reduced) == len(full)
    assert all(w >= 1 for _, w in reduced)
    assert len(reduced) < len(full)
    # representatives are canonical and distinct
    reps = [hp for hp, _ in reduced]
    assert len(set(reps)) == len(reps)
    assert all(canonicalize(hp)[0] == hp for hp in reps)


def _reduced_cases():
    """(n, k, m) for n = 1..6 and k = 1..3, m as far as the oracle is quick."""
    for n in range(1, 7):
        for k in (1, 2, 3):
            if k == 1:
                top = 12
            elif k == 2:
                top = 12 if n <= 4 else 6
            else:
                top = 8 if n <= 3 else 5 if n == 4 else 4
            yield from ((n, k, m) for m in range(1, top + 1))


def test_step_reduction_equals_the_fraction_construction():
    # the package canonicalizes integer step placements; the oracle builds
    # every labeled strategy in Fractions and canonicalizes that
    cases = list(_reduced_cases())
    assert {(4, 2, 12), (4, 3, 5), (6, 2, 5), (6, 3, 4)} <= set(cases)
    for n, k, m in cases:
        got = enumerate_grid_hiders(GameConfig(n, k, F(1)), Grid(m), reduce_symmetry=True)
        assert got == reduced_hiders(n, k, m), (n, k, m)


def test_reduction_covers_every_orbit():
    cfg = GameConfig(3, 2, F(1))
    full = {hp for hp, _ in enumerate_grid_hiders(cfg, Grid(2))}
    reduced = enumerate_grid_hiders(cfg, Grid(2), reduce_symmetry=True)
    covered = {hp for rep, _ in reduced for hp in _orbit(rep)}
    assert covered == full


def _orbit(hp: HiderPure):
    from caching_game.core import relabelings

    return set(relabelings(hp))


class TestFamilies:
    def setup_method(self):
        self.cfg = GameConfig(4, 2, F(11, 5))

    def test_family_D_members(self):
        members = family_D(F(1, 3), self.cfg)
        assert len(members) == 12
        assert make_hider((F(1, 3),), (F(2, 3),), (), ()) in members
        for hp in members:
            depths = sorted(d for _, d in hp.objects())
            assert depths == [F(1, 3), F(2, 3)]
            assert sum(1 for s in hp.sets if s) == 2

    def test_family_D_halves_at_symmetric_depth(self):
        assert len(family_D(F(1, 2), self.cfg)) == 6

    def test_family_E_members(self):
        members = family_E(F(1, 3), self.cfg)
        assert len(members) == 4
        assert make_hider((F(1, 3), F(1)), (), (), ()) in members
        for hp in members:
            assert hp.max_depth_sum() == F(1)

    def test_family_domains(self):
        with pytest.raises(ValueError):
            family_D(F(0), self.cfg)
        with pytest.raises(ValueError):
            family_D(F(1), self.cfg)
        with pytest.raises(ValueError):
            family_E(F(0), self.cfg)
        family_E(F(1), self.cfg)  # depth-1 pair in one location is fine
        with pytest.raises(ValueError):
            family_D(F(1, 3), GameConfig(4, 3, F(1)))


def test_dump_enumeration_format():
    cfg = GameConfig(2, 1, F(1))
    entries = enumerate_grid_hiders(cfg, Grid(1))
    text = dump_enumeration(entries)
    lines = text.splitlines()
    assert len(lines) == len(entries)
    assert all("\t1" in line for line in lines)
