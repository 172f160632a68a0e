"""Values as integer columns against Fraction oracles.

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

A coordinate value keeps the same columns without keys: one numerator per
coordinate over the lcm of the coordinates' reduced denominators.  Its
oracle is the coordinates the test drew, as Fractions, and the Fraction code
that norms, functionals and `_max_distance` ran on coordinate tuples before
they read columns, copied in below.  Spaces: findim l1/l2/linf, seq_l2 and
seq_sup of dimension 1-4.  Mutations these tests catch (each run once on a
scratch copy): the final gcd reduction of `linear_combination` dropped; its
rescale when the common denominator grows skipped; the l1 and linf norms
swapped; den in place of den^2 in the l2 norm; a coordinate functional that
does not divide by den; `coords` keeping a denominator twice the lcm.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab.errors import SpaceMismatch
from gaugelab.exact import D0, D1, Dyadic
from gaugelab.integrate import _max_distance
from gaugelab.spaces import (L1, L2, LINF, DualFunctional, Enclosure, ValueSpace, VectorValue,
                             distance, linear_combination, sqrt_enclosure)

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


# -- coordinate values ---------------------------------------------------------------

COORD_SPACES = ([ValueSpace.findim(d, norm) for d in range(1, 5) for norm in (L1, L2, LINF)]
                + [ValueSpace.seq_l2(d) for d in range(1, 5)]
                + [ValueSpace.seq_sup(d) for d in range(1, 5)])


def oracle_norm(space, coords):
    """The norm of a tuple of Fractions, as it was worked out on them."""
    if space.norm == L1:
        return Enclosure.exact(sum((abs(v) for v in coords if v), Fraction(0)))
    if space.norm == LINF:
        return Enclosure.exact(max((abs(v) for v in coords if v), default=Fraction(0)))
    return sqrt_enclosure(sum((v * v for v in coords if v), Fraction(0)))


def oracle_max_distance(space, rows):
    """The coordinate branch of `_max_distance` on tuples of Fractions."""
    if len(rows) < 2:
        return Fraction(0)
    den = lcm(*(x.denominator for v in rows for x in v))
    rows = [[x.numerator * (den // x.denominator) for x in v] for v in rows]
    if space.norm == LINF or space.dim == 1:
        return Fraction(max(max(c) - min(c) for c in zip(*rows)), den)
    diffs = ([a - b for a, b in zip(u, v)] for i, u in enumerate(rows) for v in rows[i + 1:])
    if space.norm == L1:
        return Fraction(max(sum(map(abs, d)) for d in diffs), den)
    square = den * den
    best = Fraction(0)
    for q in sorted({sum(x * x for x in d) for d in diffs}, reverse=True):
        if Fraction(isqrt((q << 128) // square) + 1, 1 << 64) <= best:
            break
        best = max(best, sqrt_enclosure(Fraction(q, square)).hi)
    return best


def assert_coord_columns(v, coords):
    """v's columns are canonical and hold exactly the given coordinates."""
    want = [Fraction(x) for x in coords]
    keys, nums, den = v.keys, v.nums, v.den
    assert keys is None and len(nums) == v.space.dim
    assert type(den) is int and den > 0 and gcd(den, *nums) == 1
    assert all(type(n) is int for n in nums)
    assert den == lcm(*(q.denominator for q in want))
    assert [Fraction(n, den) for n in nums] == want
    # coords of the Fraction form gives the same columns again
    w = VectorValue.coords(v.space, v.data)
    assert (w.keys, w.nums, w.den) == (keys, nums, den) and w == v


@st.composite
def coord_cases(draw, count):
    space = draw(st.sampled_from(COORD_SPACES))
    return space, [draw(st.lists(LEVELS, min_size=space.dim, max_size=space.dim))
                   for _ in range(count)]


@settings(max_examples=300, deadline=None)
@given(coord_cases(1), st.integers(0, 3))
def test_coordinate_constructors_give_canonical_columns(case, n):
    space, [coords] = case
    v = VectorValue.coords(space, coords)
    assert_coord_columns(v, coords)
    assert repr(v.data) == repr(tuple(Fraction(x) for x in coords))
    # the data constructor keeps what it is given and converts it to the same columns
    given_data = tuple(coords)
    w = VectorValue(space, given_data)
    assert w.data is given_data
    assert (w.keys, w.nums, w.den) == (v.keys, v.nums, v.den) and w == v
    assert_coord_columns(VectorValue.zero(space), [0] * space.dim)
    unit = [0] * space.dim
    unit[n % space.dim] = 1
    assert_coord_columns(VectorValue.basis(space, n % space.dim), unit)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_coordinate_linear_combination_matches_fraction_sum(data):
    space, values = data.draw(coord_cases(data.draw(st.integers(0, 6))))
    coeffs = [data.draw(COEFFS) for _ in values]
    want = [Fraction(0)] * space.dim
    for c, coords in zip(coeffs, values):
        want = [w + c * Fraction(x) for w, x in zip(want, coords)]
    terms = [(c, VectorValue.coords(space, coords)) for c, coords in zip(coeffs, values)]
    assert_coord_columns(linear_combination(space, terms), want)
    assert_coord_columns(linear_combination(space, iter(terms)), want)
    undo = terms + [(-c, v) for c, v in reversed(terms)]
    assert_coord_columns(linear_combination(space, undo), [0] * space.dim)
    if values:
        (u, uc), (v, vc) = (terms[0][1], values[0]), (terms[-1][1], values[-1])
        c = coeffs[0]
        assert_coord_columns(u + v, [Fraction(a) + b for a, b in zip(uc, vc)])
        assert_coord_columns(u - v, [Fraction(a) - b for a, b in zip(uc, vc)])
        assert_coord_columns(u * c, [c * Fraction(a) for a in uc])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_coordinate_norm_functionals_and_spread_match_fraction_code(data):
    space, rows = data.draw(coord_cases(data.draw(st.integers(0, 5))))
    rows = [tuple(Fraction(x) for x in coords) for coords in rows]
    values = [VectorValue.coords(space, coords) for coords in rows]
    for v, coords in zip(values, rows):
        got, want = v.norm(), oracle_norm(space, coords)
        assert type(got.lo) is Fraction and (got.lo, got.hi) == (want.lo, want.hi)
        for j in range(space.dim):
            x = DualFunctional.coordinate(space, j)(v)
            assert type(x) is Fraction and x == coords[j]
        coeffs = [data.draw(COEFFS) for _ in range(space.dim)]
        x = DualFunctional.combination(space, coeffs)(v)
        assert type(x) is Fraction
        assert x == sum((Fraction(c) * y for c, y in zip(coeffs, coords)), Fraction(0))
    assert _max_distance(values) == oracle_max_distance(space, rows)
