"""Step values as integer columns against dense Fraction oracles.

A step value on the grid 2^-g keeps int columns: break keys, level
numerators and one positive denominator, canonical (no equal adjacent levels,
gcd of numerators and denominator 1).  The oracle here is dense: one Fraction
level per grid cell, worked out from the breaks, levels and coefficients the
test drew, never from the columns under test.  Each result's columns must be
canonical and give exactly the oracle's cells, and its `data` must be the
oracle's canonical (Dyadic breaks, Fraction levels) with the same `repr`.

Grids are small (depth 0 to 5).  Levels and coefficients mix ints and
Fractions with unrelated denominators, so sums keep raising their common
denominator; levels repeat, so canonical form must merge cells; coefficients
include 0 and terms that cancel.  Checked: `VectorValue.step` and the `data`
constructor, `linear_combination` and the operators, `norm`, `distance`, and
the step-space functionals (coordinates and step pairings with their norm
bounds).
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab.errors import SpaceMismatch
from gaugelab.exact import D0, D1, Dyadic
from gaugelab.spaces import DualFunctional, ValueSpace, VectorValue, distance, linear_combination

GRIDS = st.integers(0, 5)
LEVELS = st.one_of(st.integers(-3, 3), st.sampled_from([Fraction(0), Fraction(1, 3)]),
                   st.fractions(min_value=-3, max_value=3, max_denominator=12))
COEFFS = st.one_of(st.just(0), st.integers(-4, 4),
                   st.fractions(min_value=-4, max_value=4, max_denominator=10),
                   st.sampled_from([Fraction(1, 1024), Fraction(3, 64), Fraction(-7, 9)]))


# -- the dense oracle --------------------------------------------------------------


def dense(keys, levels):
    """One Fraction per grid cell: cell j lies in [keys[i], keys[i+1])."""
    cells = []
    for lo, hi, level in zip(keys, keys[1:], levels):
        cells += [Fraction(level)] * (hi - lo)
    return cells


def canonical_data(g, cells):
    breaks, levels = [D0], []
    for j, level in enumerate(cells):
        if levels and level == levels[-1]:
            continue
        if j:
            breaks.append(Dyadic(j, g))
        levels.append(level)
    breaks.append(D1)
    return tuple(breaks), tuple(levels)


def assert_columns(v, cells):
    """v's columns are canonical and hold exactly the oracle's cells."""
    g = v.space.grid_depth
    keys, nums, den = v.keys, v.nums, v.den
    assert type(den) is int and den > 0 and gcd(den, *nums) == 1
    assert all(type(x) is int for x in keys + nums)
    assert keys[0] == 0 and keys[-1] == 1 << g
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert len(nums) == len(keys) - 1
    assert all(a != b for a, b in zip(nums, nums[1:]))
    got = []
    for lo, hi, n in zip(keys, keys[1:], nums):
        got += [Fraction(n, den)] * (hi - lo)
    assert got == cells
    assert repr(v.data) == repr(canonical_data(g, cells))


@st.composite
def drawn(draw, g):
    """(breaks, levels, cells): a step function on the grid, often with equal
    neighbouring levels, as the Dyadic breaks and levels given to the
    constructor, and its dense cells."""
    n = 1 << g
    keys = [0] + sorted(draw(st.sets(st.integers(1, n - 1), max_size=6)) if n > 1 else []) + [n]
    levels = draw(st.lists(LEVELS, min_size=len(keys) - 1, max_size=len(keys) - 1))
    for i in range(1, len(levels)):
        if draw(st.integers(0, 3)) == 0:
            levels[i] = levels[i - 1]
    return [Dyadic(k, g) for k in keys], levels, dense(keys, levels)


@st.composite
def step_cases(draw, count):
    g = draw(GRIDS)
    space = ValueSpace.step_linf(g)
    out = []
    for _ in range(count):
        breaks, levels, cells = draw(drawn(g))
        out.append((VectorValue.step(space, breaks, levels), cells))
    return space, out


# -- the tests ---------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_constructors_give_canonical_columns(data):
    g = data.draw(GRIDS)
    space = ValueSpace.step_linf(g)
    breaks, levels, cells = data.draw(drawn(g))
    v = VectorValue.step(space, breaks, levels)
    assert_columns(v, cells)
    # the data constructor keeps what it is given and converts it to the same columns
    given_data = (tuple(breaks), tuple(Fraction(x) for x in levels))
    w = VectorValue(space, given_data)
    assert w.data is given_data
    assert (w.keys, w.nums, w.den) == (v.keys, v.nums, v.den) and w == v


def test_step_validation():
    space = ValueSpace.step_linf(2)
    with pytest.raises(ValueError, match="finer than grid"):
        VectorValue.step(space, [D0, Dyadic(1, 3), D1], [1, 0])
    with pytest.raises(ValueError, match="must increase"):
        VectorValue.step(space, [D0, Dyadic(1, 1), Dyadic(1, 1), D1], [1, 0, 2])
    with pytest.raises(ValueError, match="span"):
        VectorValue.step(space, [D0, Dyadic(1, 1)], [1])
    with pytest.raises(ValueError, match="one level per cell"):
        VectorValue.step(space, [D0, D1], [1, 2])
    with pytest.raises(ValueError, match="step_linf"):
        VectorValue.step(ValueSpace.findim(1), [D0, D1], [1])


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_linear_combination_matches_dense_sum(data):
    space, values = data.draw(step_cases(data.draw(st.integers(0, 6))))
    coeffs = [data.draw(COEFFS) for _ in values]
    n = 1 << space.grid_depth
    want = [Fraction(0)] * n
    for c, (_, cells) in zip(coeffs, values):
        want = [w + c * x for w, x in zip(want, cells)]
    terms = [(c, v) for c, (v, _) in zip(coeffs, values)]
    assert_columns(linear_combination(space, terms), want)
    assert_columns(linear_combination(space, iter(terms)), want)
    # undoing every term leaves the zero function: every jump cancels
    undo = terms + [(-c, v) for c, v in reversed(terms)]
    assert_columns(linear_combination(space, undo), [Fraction(0)] * n)
    if values:
        (u, uc), (v, vc) = values[0], values[-1]
        c = coeffs[0]
        assert_columns(u + v, [a + b for a, b in zip(uc, vc)])
        assert_columns(u - v, [a - b for a, b in zip(uc, vc)])
        assert_columns(u * c, [c * a for a in uc])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_norm_distance_eval_and_pairings_match_dense(data):
    space, [(u, uc), (v, vc), (d, dc)] = data.draw(step_cases(3))
    g = space.grid_depth
    n = 1 << g

    def exact(enc, want):
        assert type(enc.lo) is Fraction and enc.lo == enc.hi == want

    exact(u.norm(), max(abs(x) for x in uc))
    exact(distance(u, v), max(abs(a - b) for a, b in zip(uc, vc)))
    exact(distance(u, u), Fraction(0))

    for j in range(n):
        got = DualFunctional.coordinate(space, j)(u)
        assert type(got) is Fraction and got == uc[j]
    f = DualFunctional.step_pairing(space, d)
    assert f.norm_bound == sum(abs(x) for x in dc) / n
    got = f(u)
    assert type(got) is Fraction and got == sum(a * b for a, b in zip(dc, uc)) / n


def test_distance_refuses_other_space():
    u = VectorValue.zero(ValueSpace.step_linf(3))
    for w in (VectorValue.zero(ValueSpace.step_linf(4)), VectorValue.zero(ValueSpace.findim(1))):
        with pytest.raises(SpaceMismatch):
            distance(u, w)
