"""Values as integer columns against `tests/reference.py`.

A step value on the grid 2^-g keeps int columns: break keys, level
numerators and one positive denominator, canonical (no equal adjacent levels,
gcd of numerators and denominator 1).  The reference holds a value as one
Fraction level per grid cell, and states the canonical columns of such a
value.  A value built from drawn breaks and levels must hold the reference's
cells of the same breaks and levels, in those columns, and its `data` must be
the columns' (Dyadic breaks, Fraction levels) with the same `repr`; sums,
norms, distances and functionals must equal the reference's on the cells.

Grids are small (depth 0 to 5).  Levels and coefficients mix ints and
Fractions with unrelated denominators, so sums keep raising their common
denominator; levels repeat, so canonical form must merge cells; coefficients
include 0 and terms that cancel.  Checked: `VectorValue.step`,
`linear_combination` and the operators, `norm`, `distance`, and
the step-space functionals (coordinates and step pairings with their norm
bounds).

A coordinate value keeps the same columns: it is the step function i -> x_i
on the grid of its dim coordinates, so its keys bound runs of equal
neighbouring coordinates, checked against the coordinates the test drew.
Coordinates often repeat their neighbour, so runs longer than one cell are
common, and the norms, the spread and the combination functional must
weight each run by its length.  Spaces: findim l1/l2/linf, seq_l2 and
seq_sup of dimension 1-4.  Mutations these tests catch (each run on a
scratch copy): the final gcd reduction of `linear_combination` dropped; its
rescale when the common denominator grows skipped; the l1 and linf norms
swapped; den in place of den^2 in the l2 norm; a coordinate functional that
does not divide by den; `coords` keeping a denominator twice the lcm; the
run length dropped from the l1 or the l2 norm; equal neighbouring runs left
unmerged in `coords`; `basis` keeping an empty run at index 0 or dim - 1;
`_level_at` with `bisect_left`; `data` expanding one run short.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab.errors import SpaceMismatch
from gaugelab.exact import D0, D1, Dyadic
from gaugelab.spaces import (L1, L2, LINF, DualFunctional, ValueSpace, VectorValue, distance,
                             linear_combination, spread)
import reference as ref

GRIDS = st.integers(0, 5)
LEVELS = st.one_of(st.integers(-3, 3), st.sampled_from([Fraction(0), Fraction(1, 3)]),
                   st.fractions(min_value=-3, max_value=3, max_denominator=12))
COEFFS = st.one_of(st.just(0), st.integers(-4, 4),
                   st.fractions(min_value=-4, max_value=4, max_denominator=10),
                   st.sampled_from([Fraction(1, 1024), Fraction(3, 64), Fraction(-7, 9)]))


def assert_columns(v, xs):
    """v's columns are the reference's canonical columns of the value xs, and
    its `data` is built from them."""
    keys, nums, den = ref.columns(v.space, xs)
    assert (v.keys, v.nums, v.den) == (keys, nums, den)
    assert type(den) is int and den > 0 and gcd(den, *nums) == 1
    assert all(type(x) is int for x in (*keys, *nums))
    levels = tuple(Fraction(n, den) for n in nums)
    g = v.space.grid_depth
    assert repr(v.data) == repr((tuple(Dyadic(k, g) for k in keys), levels) if v.space.is_step
                                else tuple(xs))


def assert_spread(values):
    """`spread` of the values is the reference's spread of their cells."""
    want = ref.spread(values[0].space, [ref.cells(v) for v in values]) if values else 0
    assert spread(values) == want


def repeating(draw, xs):
    """xs with about one entry in four set to its left neighbour's value."""
    for i in range(1, len(xs)):
        if draw(st.integers(0, 3)) == 0:
            xs[i] = xs[i - 1]
    return xs


@st.composite
def drawn(draw, g):
    """(breaks, levels, cells): a step function on the grid, often with equal
    neighbouring levels, as the Dyadic breaks and levels given to the
    constructor, and its reference cells."""
    n = 1 << g
    keys = [0] + sorted(draw(st.sets(st.integers(1, n - 1), max_size=6)) if n > 1 else []) + [n]
    levels = repeating(draw, draw(st.lists(LEVELS, min_size=len(keys) - 1,
                                           max_size=len(keys) - 1)))
    breaks = [Dyadic(k, g) for k in keys]
    return breaks, levels, ref.step(g, breaks, levels)


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


COORD_SPACES = ([ValueSpace.findim(d, norm) for d in range(1, 5) for norm in (L1, L2, LINF)]
                + [ValueSpace.seq_l2(d) for d in range(1, 5)]
                + [ValueSpace.seq_sup(d) for d in range(1, 5)])


@st.composite
def coord_cases(draw, count):
    space = draw(st.sampled_from(COORD_SPACES))
    return space, [repeating(draw, draw(st.lists(LEVELS, min_size=space.dim,
                                                 max_size=space.dim)))
                   for _ in range(count)]


@st.composite
def step_terms(draw):
    space, values = draw(step_cases(draw(st.integers(0, 6))))
    return space, [(draw(COEFFS), v) for v, _ in values]


@st.composite
def coord_terms(draw):
    space, values = draw(coord_cases(draw(st.integers(0, 6))))
    return space, [(draw(COEFFS), VectorValue.coords(space, coords)) for coords in values]


def check_combination(space, terms):
    """linear_combination of terms, and the operators on two of them, match the reference."""
    want = [(c, ref.cells(v)) for c, v in terms]
    for got in (linear_combination(space, terms), linear_combination(space, iter(terms))):
        assert_columns(got, ref.combination(space, want))
    # undoing every term leaves the zero value: every jump cancels
    undo = terms + [(-c, v) for c, v in reversed(terms)]
    assert_columns(linear_combination(space, undo), ref.combination(space, []))
    if terms:
        (c, u), (_, v) = terms[0], terms[-1]
        uc, vc = want[0][1], want[-1][1]
        assert_columns(u + v, ref.combination(space, [(1, uc), (1, vc)]))
        assert_columns(u - v, ref.combination(space, [(1, uc), (-1, vc)]))
        assert_columns(u * c, ref.combination(space, [(c, uc)]))


@settings(max_examples=400, deadline=None)
@given(step_terms())
def test_linear_combination_matches_dense_sum(case):
    check_combination(*case)


@settings(max_examples=400, deadline=None)
@given(coord_terms())
def test_coordinate_linear_combination_matches_fraction_sum(case):
    check_combination(*case)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_norm_distance_eval_and_pairings_match_dense(data):
    space, [(u, uc), (v, vc), (d, dc)] = data.draw(step_cases(3))

    def exact(enc, want):
        assert type(enc.lo) is Fraction and (enc.lo, enc.hi) == want

    exact(u.norm(), ref.norm(space, uc))
    exact(distance(u, v), ref.distance(space, uc, vc))
    exact(distance(u, u), (Fraction(0), Fraction(0)))

    for j in range(1 << space.grid_depth):
        f = DualFunctional.coordinate(space, j)
        got = f(u)
        assert type(got) is Fraction and got == ref.pair(f, uc)
    f = DualFunctional.step_pairing(space, d)
    assert f.norm_bound == sum(map(abs, dc)) / len(dc)
    got = f(u)
    assert type(got) is Fraction and got == ref.pair(f, uc)


def test_distance_refuses_other_space():
    u = VectorValue.zero(ValueSpace.step_linf(3))
    for w in (VectorValue.zero(ValueSpace.step_linf(4)), VectorValue.zero(ValueSpace.findim(1))):
        with pytest.raises(SpaceMismatch):
            distance(u, w)


# -- coordinate values ---------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(coord_cases(1), st.integers(0, 3))
def test_coordinate_constructors_give_canonical_columns(case, n):
    space, [coords] = case
    v = VectorValue.coords(space, coords)
    assert_columns(v, [Fraction(x) for x in coords])
    # coords of the Fraction form gives the same columns again
    assert VectorValue.coords(space, v.data) == v
    assert_columns(VectorValue.zero(space), [Fraction(0)] * space.dim)
    unit = [Fraction(0)] * space.dim
    unit[n % space.dim] = Fraction(1)
    assert_columns(VectorValue.basis(space, n % space.dim), unit)


@pytest.mark.parametrize("n", [-1, 3, 4])
def test_basis_refuses_an_index_out_of_range(n):
    space = ValueSpace.findim(3)
    with pytest.raises(ValueError, match=f"coordinate {n} out of range"):
        VectorValue.basis(space, n)
    with pytest.raises(ValueError, match=f"coordinate {n} out of range"):
        DualFunctional.coordinate(space, n)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_coordinate_norm_functionals_and_spread_match_fraction_code(data):
    space, rows = data.draw(coord_cases(data.draw(st.integers(0, 5))))
    rows = [tuple(Fraction(x) for x in coords) for coords in rows]
    values = [VectorValue.coords(space, coords) for coords in rows]
    for v, coords in zip(values, rows):
        got = v.norm()
        assert type(got.lo) is Fraction and (got.lo, got.hi) == ref.norm(space, coords)
        for j in range(space.dim):
            f = DualFunctional.coordinate(space, j)
            x = f(v)
            assert type(x) is Fraction and x == ref.pair(f, coords)
        f = DualFunctional.combination(space, [data.draw(COEFFS) for _ in range(space.dim)])
        x = f(v)
        assert type(x) is Fraction and x == ref.pair(f, coords)
    assert_spread(values)
