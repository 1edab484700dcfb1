import random
from fractions import Fraction as F

import pytest

from caching_game.core import (
    DigProfile,
    GameConfig,
    HiderMixed,
    HiderPure,
    apply_permutation,
    format_hider,
    format_rational,
    make_hider,
    parse_hider,
    parse_rational,
    relabelings,
    validate_hider,
)

from oracles import canonicalize


def test_parse_format_rational_round_trip():
    for text in ["1/3", "9/20", "2", "0", "11/6"]:
        assert format_rational(parse_rational(text)) == text
    assert parse_rational("4/8") == F(1, 2)
    assert format_rational(F(4, 8)) == "1/2"


def test_parse_rational_rejects_garbage():
    # decimal text is rejected too: values cross boundaries as p/q only
    for bad in ["", "a/b", "1.5", "1/0"]:
        with pytest.raises(ValueError):
            parse_rational(bad)


class TestGameConfig:
    def test_basic_construction(self):
        cfg = GameConfig(n=4, k=2, h=F(11, 5))
        assert (cfg.n, cfg.k, cfg.h) == (4, 2, F(11, 5))

    def test_h_coerced_to_fraction(self):
        assert GameConfig(2, 1, 1).h == F(1)

    @pytest.mark.parametrize("n,k", [(0, 1), (-1, 1), (1, 0), (1, -2)])
    def test_rejects_nonpositive_counts(self, n, k):
        with pytest.raises(ValueError):
            GameConfig(n, k, F(1))

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            GameConfig(2, 1, F(-1, 2))

    def test_standard_budget_gate(self):
        GameConfig(2, 1, F(1)).require_standard_budget()
        GameConfig(2, 1, F(3, 2)).require_standard_budget()
        for n, h in [(2, F(2)), (2, F(1, 2)), (1, F(2))]:
            with pytest.raises(ValueError, match="outside"):
                GameConfig(n, 1, h).require_standard_budget()
        # degenerate budgets may still be constructed, for enumeration use
        GameConfig(4, 2, F(0))


class TestHiderPure:
    def test_objects_and_counts(self):
        hp = make_hider((F(1, 3), F(1)), (), (), ())
        assert hp.n == 4
        assert hp.k == 2
        assert hp.objects() == [(0, F(1, 3)), (0, F(1))]
        assert hp.max_depth_sum() == F(1)

    def test_sets_are_sorted_multisets(self):
        hp = make_hider((F(2, 3), F(1, 3)), ())
        assert hp.sets[0] == (F(1, 3), F(2, 3))

    def test_duplicate_depths_allowed(self):
        hp = make_hider((F(1, 4), F(1, 4)), ())
        assert hp.k == 2

    def test_scaled(self):
        hp = make_hider((F(1, 3),), (F(2, 3),))
        assert hp.scaled(3) == ((1,), (2,))
        with pytest.raises(ValueError):
            hp.scaled(2)  # 1/3 is not a multiple of 1/2


def test_validate_hider_reports_violations():
    cfg = GameConfig(2, 2, F(1))
    ok = make_hider((F(1, 2),), (F(1, 2),))
    assert validate_hider(ok, cfg) is None
    wrong_n = make_hider((F(1, 2),), (F(1, 2),), ())
    assert validate_hider(wrong_n, cfg) is not None
    wrong_k = make_hider((F(1, 2),), ())
    assert validate_hider(wrong_k, cfg) is not None
    infeasible = make_hider((F(3, 4),), (F(1, 2),))
    assert "> 1" in validate_hider(infeasible, cfg)


def test_validate_hider_depth_domain():
    cfg = GameConfig(2, 1, F(1))
    assert validate_hider(make_hider((F(3, 2),), ()), cfg) is not None
    zero = make_hider((F(0),), ())
    assert validate_hider(zero, cfg) is not None
    assert validate_hider(make_hider((F(-1, 2),), ()), cfg) is not None


def test_infeasible_total_depth_rejected_at_validation_not_construction():
    # constraint is total of per-location maxima, not of all depths
    cfg = GameConfig(2, 2, F(1))
    stacked = make_hider((F(3, 4), F(1)), ())
    assert validate_hider(stacked, cfg) is None


class TestCanonicalization:
    def test_canonical_sorts_locations_empties_last(self):
        hp = make_hider((), (F(1, 2),), (), (F(1, 3), F(1)))
        canon, orbit = canonicalize(hp)
        assert canon.sets[0] != ()
        assert canon.sets[-1] == ()
        assert orbit == len(set(relabelings(hp)))

    def test_relabelings_orbit(self):
        hp = make_hider((F(1, 2),), (F(1, 2),), (), ())
        orbit = relabelings(hp)
        assert len(set(orbit)) == 6
        canon, size = canonicalize(hp)
        assert size == 6
        assert all(canonicalize(o)[0] == canon for o in orbit)

    def test_apply_permutation(self):
        hp = make_hider((F(1, 2),), (F(1, 4),))
        swapped = apply_permutation(hp, (1, 0))
        assert swapped.sets == ((F(1, 4),), (F(1, 2),))


class TestHiderMixed:
    def test_probabilities_validated(self):
        a = make_hider((F(1, 2),), ())
        b = make_hider((), (F(1, 2),))
        HiderMixed(((a, F(1, 2)), (b, F(1, 2))))
        with pytest.raises(ValueError):
            HiderMixed(((a, F(1, 2)), (b, F(1, 3))))
        with pytest.raises(ValueError):
            HiderMixed(((a, F(-1, 2)), (b, F(3, 2))))

    def test_uniform(self):
        mix = HiderMixed.uniform([make_hider((F(1, 2),), ()), make_hider((), (F(1, 2),))])
        assert all(p == F(1, 2) for _, p in mix.entries)

    def test_location_symmetry_detection(self):
        a = make_hider((F(1, 2),), ())
        b = make_hider((), (F(1, 2),))
        assert HiderMixed.uniform([a, b]).is_location_symmetric()
        assert not HiderMixed(((a, F(2, 3)), (b, F(1, 3)))).is_location_symmetric()


class TestDigProfile:
    def test_validation(self):
        DigProfile((F(1, 2), F(0)))
        with pytest.raises(ValueError):
            DigProfile((F(-1, 4),))
        with pytest.raises(ValueError):
            DigProfile((F(5, 4),))

    def test_total_and_depths(self):
        p = DigProfile((F(1, 2), F(1, 4)))
        assert p.total() == F(3, 4)
        assert p.depths == (F(1, 2), F(1, 4))


def test_format_parse_hider_round_trip():
    examples = [
        make_hider((F(1, 3), F(1)), (), (), ()),
        make_hider((F(1, 2),), (F(1, 2),)),
        make_hider((), (F(7, 30),), (F(1, 60),), ()),
    ]
    for hp in examples:
        assert parse_hider(format_hider(hp)) == hp


def test_format_hider_is_deterministic():
    hp = make_hider((F(1, 3), F(1)), (), (), ())
    assert format_hider(hp) == format_hider(parse_hider(format_hider(hp)))


def test_parse_hider_rejects_depth_zero():
    # "0" alone is the empty-location marker; a zero depth is never a valid
    # burial, and a lone one would print back as that marker
    assert parse_hider("(0)") == make_hider(())
    for text in ["(00)", "(-0)", "(2,00)", "(0/3)", "({0,1},0)"]:
        with pytest.raises(ValueError, match="depth 0"):
            parse_hider(text)


def _random_valid_hider(rng):
    n, k = rng.randint(1, 5), rng.randint(1, 4)
    cfg = GameConfig(n, k, F(1))
    while True:
        sets = [[] for _ in range(n)]
        for _ in range(k):
            q = rng.randint(1, 40)
            sets[rng.randrange(n)].append(F(rng.randint(1, q), q * rng.randint(1, k)))
        hp = make_hider(*sets)
        if validate_hider(hp, cfg) is None:
            return hp


class TestTextRoundTrips:
    """Seeded random round trips of the text forms."""

    def test_hider_round_trip(self):
        rng = random.Random(1501)
        for _ in range(2000):
            hp = _random_valid_hider(rng)
            assert parse_hider(format_hider(hp)) == hp

    def test_rational_round_trip(self):
        rng = random.Random(1503)
        for _ in range(5000):
            bound = 10 ** rng.randint(1, 30)
            q = F(rng.randint(-bound, bound), rng.randint(1, bound))
            assert parse_rational(format_rational(q)) == q

    def test_random_text_raises_only_value_error(self):
        # whatever parses must print back to text that parses to it again
        rng = random.Random(1507)
        alphabet = "(){},/0123456789-"
        parsed = 0
        for i in range(20000):
            body = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            text = f"({body})" if i % 2 else body
            try:
                hp = parse_hider(text)
            except ValueError:
                continue
            parsed += 1
            assert parse_hider(format_hider(hp)) == hp
        assert parsed > 100
