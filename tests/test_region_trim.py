"""Region trimming and the sampled region pool against Fraction oracles.

The oracles are the versions they replaced, copied in below: the trim walked
Interval parts with a Fraction budget and cut the overrunning part with
floor_to_depth; the pool built each draw as Dyadic Intervals and normalized
it with Region(...).  Both must give equal regions, column for column.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaugelab.exact import D0, D1, Dyadic, Interval, Region, UNIT_REGION
from gaugelab.integrate import _trim_depth, _trim_region_to_measure, sample_regions
from gaugelab.rng import stream


def oracle_floor_to_depth(x, depth):
    q = x.as_fraction() if isinstance(x, Dyadic) else Fraction(x)
    scaled = q * (1 << depth)
    return Dyadic(scaled.numerator // scaled.denominator, depth)


def oracle_trim(region, target):
    kept = []
    budget = target
    for part in region.parts:
        length = part.hi.as_fraction() - part.lo.as_fraction()
        if length <= budget:
            kept.append(part)
            budget -= length
        elif budget > 0:
            hi = oracle_floor_to_depth(part.lo.as_fraction() + budget, _trim_depth(part.lo.exp))
            if hi > part.lo:
                kept.append(Interval(part.lo, hi))
            budget = Fraction(0)
    return Region(kept)


def oracle_sample_regions(count, seed, max_measure=Fraction(1), depth=8):
    floor = Fraction(1, 1 << _trim_depth(depth))
    if max_measure < floor:
        raise ValueError(f"regions need a positive measure bound of at least {floor}, "
                         f"got {max_measure}")
    rng = stream(seed, 0)
    out = []
    target = min(Fraction(1), max_measure)
    canonical = [
        oracle_trim(UNIT_REGION, target),
        oracle_trim(Region.make((D0, Dyadic(1, 1))), target),
        oracle_trim(Region.make((Dyadic(1, 1), D1)), target),
    ]
    out.extend(canonical[: min(count, 3)])
    while len(out) < count:
        parts = []
        for _ in range(int(rng.integers(1, 4))):
            a = int(rng.integers(0, 1 << depth))
            b = int(rng.integers(a + 1, (1 << depth) + 1))
            parts.append(Interval(Dyadic(a, depth), Dyadic(b, depth)))
        region = oracle_trim(Region(parts), target)
        if not region.is_empty():
            out.append(region)
    return out


@st.composite
def fine_regions(draw):
    """Parts at mixed exponents up to 64, some degenerate, some negative, so
    a part's left end and the region can sit on different trim grids."""
    parts = []
    for e, a, w in draw(st.lists(st.tuples(st.integers(0, 64), st.integers(-(1 << 66), 1 << 67),
                                           st.sampled_from([0, 0, 1, 3, 1 << 20, 1 << 62])),
                                 max_size=6)):
        a %= 3 << e
        a -= 1 << e
        parts.append(Interval(Dyadic(a, e), Dyadic(a + w, e)))
    return Region(parts)


TARGETS = st.one_of(
    st.fractions(0, 3, max_denominator=1000),
    st.integers(0, 70).map(lambda k: Fraction(1, 1 << k)),
    st.sampled_from([Fraction(1, 3), Fraction(7, 1000), Fraction(1, 1 << 52)]),
)


@settings(max_examples=300, deadline=None)
@given(fine_regions(), TARGETS)
@example(Region.make((0, Fraction(1, 2)), (1, 2)), Fraction(1, 2))  # a part fills the budget
@example(Region.make((0, 1)), Fraction(1, 1 << 60))  # the cut floors to the left end
def test_trim_matches_fraction_oracle(region, target):
    assert _trim_region_to_measure(region, target) == oracle_trim(region, target)


def test_trim_keeps_degenerate_parts_after_the_cut_in_order():
    region = Region.make((0, Fraction(1, 2)), (Fraction(5, 8), Fraction(3, 4)),
                         (Fraction(7, 8), Fraction(7, 8)), (Fraction(15, 16), 1),
                         (Fraction(2), Fraction(2)))
    for target in (Fraction(1, 3), Fraction(9, 16), Fraction(7, 1000)):
        got = _trim_region_to_measure(region, target)
        assert got == oracle_trim(region, target)
        assert list(got.lo) == sorted(got.lo)
        assert [iv.lo for iv in got.parts[-2:]] == [Dyadic(7, 3), Dyadic(2)]


def test_trim_cuts_on_the_grid_of_the_parts_left_end():
    # the region's exponent is 60, the cut part's left end 1/2 has exponent
    # 1: the cut falls on the 2^-52 grid, not on the 2^-72 one
    region = Region.make((Fraction(1, 2), 1), (Fraction(3, 2), Fraction(3, 2) + Fraction(1, 1 << 60)))
    got = _trim_region_to_measure(region, Fraction(1, 3))
    assert got == oracle_trim(region, Fraction(1, 3))
    assert got.exp == 52


@pytest.mark.parametrize("depth", [3, 8, 12])
@pytest.mark.parametrize("cap", [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(1, 3),
                                 Fraction(7, 1000), Fraction(1, 1 << 40), Fraction(1, 1 << 52)])
def test_sample_regions_match_fraction_oracle(cap, depth):
    for seed in range(6):
        assert sample_regions(15, seed, max_measure=cap, depth=depth) == \
            oracle_sample_regions(15, seed, max_measure=cap, depth=depth)
