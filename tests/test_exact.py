"""Exact-core tests.

Region algebra on random regions whose endpoints live on the 2^-6 grid is
checked against `tests/reference.py`, which decides each gap between
endpoints by its midpoint's membership, so any disagreement is an
implementation bug, not tolerance noise.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab.exact import (
    Dyadic,
    Interval,
    Region,
    UNIT,
    canonical_exp,
    format_region,
    parse_fraction,
    parse_region,
    region_combine,
    region_subtract,
    shared_zeros,
)
from gaugelab.errors import MalformedInterval
import reference as ref

GRID_DEPTH = 6
GRID_N = 1 << GRID_DEPTH


def random_grid_region(rng: random.Random, max_parts: int = 4) -> Region:
    ivs = []
    for _ in range(rng.randint(0, max_parts)):
        a = rng.randint(0, GRID_N - 1)
        b = rng.randint(a, GRID_N)
        ivs.append(Interval(Dyadic(a, GRID_DEPTH), Dyadic(b, GRID_DEPTH)))
    return Region(ivs)


# -- dyadic arithmetic ----------------------------------------------------


def test_dyadic_canonical_form():
    d = Dyadic(4, 3)  # 4/8 == 1/2
    assert (d.num, d.exp) == (1, 1)
    assert Dyadic(6, 0).exp == 0
    assert Dyadic(0, 9) == Dyadic(0, 0)


def test_dyadic_parse_format_roundtrip():
    for text in ["3/2^5", "-7/2^2", "0/2^0", "12", "2^-10"]:
        d = Dyadic.parse(text)
        assert Dyadic.parse(str(d)) == d


def test_dyadic_arithmetic_matches_fractions():
    rng = random.Random(11)
    for _ in range(300):
        a = Dyadic(rng.randint(-200, 200), rng.randint(0, 8))
        b = Dyadic(rng.randint(-200, 200), rng.randint(0, 8))
        assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()
        assert (a < b) == (a.as_fraction() < b.as_fraction())


@given(st.integers(-10**6, 10**6), st.integers(0, 40))
def test_dyadic_canonical_is_odd_or_integer(num, exp):
    d = Dyadic(num, exp)
    assert d.exp == 0 or d.num % 2 == 1
    assert d.as_fraction() == Fraction(num, 1 << exp)


def loop_canonical(num: int, exp: int) -> tuple[int, int]:
    """The one-factor-of-two-per-pass canonicalisation the constructor used to run."""
    if exp < 0:
        num <<= -exp
        exp = 0
    while exp > 0 and num % 2 == 0:
        num //= 2
        exp -= 1
    return num, exp


@settings(max_examples=500)
@given(st.one_of(st.just(0), st.integers(-2**80, 2**80),
                 st.builds(lambda odd, z: odd << z,
                           st.integers(-999, 999).map(lambda k: 2 * k + 1),
                           st.integers(0, 80))),
       st.integers(-5, 64))
def test_dyadic_shift_canonical_matches_loop(num, exp):
    d = Dyadic(num, exp)
    assert (d.num, d.exp) == loop_canonical(num, exp)
    assert type(d.num) is int and type(d.exp) is int
    assert canonical_exp(num, exp) == loop_canonical(num, exp)[1]
    if exp >= 0:
        assert shared_zeros(exp, [num]) == exp - canonical_exp(num, exp)


def test_parse_fraction_forms():
    assert parse_fraction("1/5") == Fraction(1, 5)
    assert parse_fraction("2^-3") == Fraction(1, 8)
    assert parse_fraction("7/2^2") == Fraction(7, 4)
    assert parse_fraction("3") == 3


# -- interval and normalization -------------------------------------------


def test_malformed_interval_rejected():
    with pytest.raises(MalformedInterval):
        Interval(Dyadic(1), Dyadic(0))


def test_normalize_examples():
    assert Region([]) == Region.empty()
    r = Region.make((Dyadic(0), Dyadic(1, 1)), (Dyadic(1, 2), Dyadic(3, 2)))
    assert r == Region.make((Dyadic(0), Dyadic(3, 2)))
    assert r.measure() == Dyadic(3, 2)
    touching = Region.make((Dyadic(0), Dyadic(1, 1)), (Dyadic(1, 1), Dyadic(1)))
    assert touching == Region((UNIT,))


def test_normalize_idempotent_and_order_insensitive():
    rng = random.Random(5)
    for _ in range(200):
        ivs = []
        for _ in range(rng.randint(0, 5)):
            a = rng.randint(0, 63)
            b = rng.randint(a, 64)
            ivs.append(Interval(Dyadic(a, 6), Dyadic(b, 6)))
        r1 = Region(ivs)
        rng.shuffle(ivs)
        r2 = Region(ivs)
        assert r1 == r2
        assert Region(r1.parts) == r1


# -- combine against the cell oracle ---------------------------------------


def test_combine_spec_cases():
    a = Region.make((Dyadic(0), Dyadic(1, 1)), (Dyadic(3, 2), Dyadic(1)))
    b = Region.make((Dyadic(3, 3), Dyadic(7, 3)))
    out = region_combine(a, b, "subtract")
    assert out == Region.make((Dyadic(0), Dyadic(3, 3)), (Dyadic(7, 3), Dyadic(1)))
    same = Region.make((Dyadic(0), Dyadic(1)))
    assert region_combine(same, same, "symmdiff") == Region.empty()
    left = Region.make((Dyadic(0), Dyadic(1, 1)))
    right = Region.make((Dyadic(1, 2), Dyadic(3, 2)))
    assert region_combine(left, right, "intersect") == Region.make((Dyadic(1, 2), Dyadic(1, 1)))


def test_combine_matches_cell_oracle():
    rng = random.Random(2024)
    ops = ["union", "intersect", "subtract", "symmdiff"]
    for _ in range(250):
        a = random_grid_region(rng)
        b = random_grid_region(rng)
        op = rng.choice(ops)
        got = region_combine(a, b, op)
        want = ref.combine(a.parts, b.parts, op)
        assert got == Region(Interval.make(lo, hi) for lo, hi in want), (a, b, op)


def test_measure_inclusion_exclusion():
    rng = random.Random(77)
    for _ in range(250):
        a = random_grid_region(rng)
        b = random_grid_region(rng)
        mu_union = region_combine(a, b, "union").measure()
        mu_inter = region_combine(a, b, "intersect").measure()
        assert (mu_union.as_fraction() + mu_inter.as_fraction()
                == a.measure().as_fraction() + b.measure().as_fraction())


def test_subtract_point_is_noop_modulo_null():
    a = Region((UNIT,))
    point = Region.make((Dyadic(1, 1), Dyadic(1, 1)))
    assert region_combine(a, point, "subtract") == a


def test_complement_and_distance():
    a = Region.make((Dyadic(1, 2), Dyadic(1, 1)))
    comp = region_subtract(Region((UNIT,)), a)
    assert comp == Region.make((Dyadic(0), Dyadic(1, 2)), (Dyadic(1, 1), Dyadic(1)))
    assert a.distance_to_point(Dyadic(3, 3)) == 0
    assert a.distance_to_point(Dyadic(3, 2)) == Fraction(1, 4)
    assert a.distance_to_point(Dyadic(0)) == Fraction(1, 4)


def test_region_parse_format():
    r = parse_region("0:1/2^1+3/2^2:1/2^0")
    assert r == Region.make((Dyadic(0), Dyadic(1, 1)), (Dyadic(3, 2), Dyadic(1)))
    assert format_region(r) == [["0/2^0", "1/2^1"], ["3/2^2", "1/2^0"]]


def test_translate_scale():
    r = Region.make((Dyadic(1, 2), Dyadic(1, 1)))
    assert r.translate(Dyadic(1, 1)) == Region.make((Dyadic(3, 2), Dyadic(1)))
    assert r.scale_half() == Region.make((Dyadic(1, 3), Dyadic(1, 2)))
