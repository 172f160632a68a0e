"""The exact side of the dual pairing against `tests/reference.py`.

`exact_vector_integral` finds where the integrand's cells meet the region's
parts in one integer sweep and weights each step value once, by its cell's
total overlap; `scalar_integral` applies f to that vector integral.  On the
step space, `DualFunctional` reads int keys on the space's grid.  The
reference integrates per (cell, part) overlap in Fractions, holds values as
one Fraction per coordinate or grid cell, and applies a functional to those.
Results must be the same Fraction, or a vector in the reference's canonical
columns.

Regions have parts reaching outside [0,1], degenerate parts, and parts that
end on the integrand's breaks.  Integrands: step values in coordinate spaces
and in step spaces, polynomial cells, and both restricted to regions.
Functionals: coordinates and combinations on coordinate spaces; coordinates
and step pairings with random densities on step spaces.  Drawn regions
seldom put two parts in one step cell, so an example does: a cell's weight
overwritten by its last overlap, not added up, fails it.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaugelab.errors import SpaceMismatch
from gaugelab.exact import D0, D1, Dyadic, Interval, Region
from gaugelab.integrands import (POLY, IntegrandFn, exact_vector_integral, restrict_integrand,
                                 scalar_integral)
from gaugelab.spaces import DualFunctional, ValueSpace, VectorValue, linear_combination
import reference as ref


def assert_integral(phi, region):
    """exact_vector_integral is the reference's integral, in canonical columns."""
    got = exact_vector_integral(phi, region)
    assert got.space == phi.space
    assert (got.keys, got.nums, got.den) == \
        ref.columns(phi.space, ref.integral(phi, region.parts))


# -- integrands, functionals and regions --------------------------------------------------

RATIONALS = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 3),
                             Fraction(-5, 7), Fraction(3, 2), Fraction(1, 1024)])
COORD_SPACES = [ValueSpace.findim(1, "l2"), ValueSpace.findim(2, "l1"),
                ValueSpace.findim(3, "linf"), ValueSpace.seq_l2(2), ValueSpace.seq_sup(3)]
STEP_SPACES = [ValueSpace.step_linf(d) for d in (0, 2, 4, 6)]


@st.composite
def breakpoints(draw):
    interior = draw(st.sets(st.integers(1, 63), max_size=6))
    return [D0] + [Dyadic(k, 6) for k in sorted(interior)] + [D1]


@st.composite
def step_value(draw, space):
    if not space.is_step:
        return VectorValue.coords(space, draw(st.lists(RATIONALS, min_size=space.dim,
                                                       max_size=space.dim)))
    n = 1 << space.grid_depth
    inner = sorted(draw(st.sets(st.integers(1, n - 1), max_size=5))) if n > 1 else []
    breaks = [Dyadic(k, space.grid_depth) for k in [0] + inner + [n]]
    return VectorValue.step(space, breaks, draw(st.lists(
        RATIONALS, min_size=len(breaks) - 1, max_size=len(breaks) - 1)))


@st.composite
def integrands(draw):
    breaks = draw(breakpoints())
    if draw(st.booleans()):
        space = draw(st.sampled_from(COORD_SPACES + STEP_SPACES))
        phi = IntegrandFn.step(space, breaks, [draw(step_value(space)) for _ in breaks[1:]])
    else:
        space = draw(st.sampled_from(COORD_SPACES))
        phi = IntegrandFn.poly(space, breaks, [
            tuple(tuple(draw(st.lists(RATIONALS, min_size=1, max_size=4)))
                  for _ in range(space.dim)) for _ in breaks[1:]])
    if draw(st.integers(0, 3)) == 0:
        phi = restrict_integrand(phi, draw(regions(phi)))
    return phi


@st.composite
def functionals(draw, space):
    if space.is_step:
        n = 1 << space.grid_depth
        if draw(st.booleans()):
            return DualFunctional.coordinate(space, draw(st.integers(0, n - 1)))
        return DualFunctional.step_pairing(space, draw(step_value(space)))
    if draw(st.booleans()):
        return DualFunctional.coordinate(space, draw(st.integers(0, space.dim - 1)))
    return DualFunctional.combination(space, draw(st.lists(RATIONALS, min_size=space.dim,
                                                          max_size=space.dim)))


@st.composite
def regions(draw, phi):
    """Parts reaching past either end of [0,1], degenerate parts, and parts
    ending on the integrand's breaks."""
    point = st.one_of(st.sampled_from(phi.breaks),
                      st.builds(Dyadic, st.integers(-20, 84), st.integers(4, 7)))
    parts = []
    for _ in range(draw(st.integers(0, 4))):
        a, b = sorted([draw(point), draw(point)])
        parts.append(Interval(a, b))
        if draw(st.integers(0, 3)) == 0:
            parts.append(Interval(b, b))
    return Region(parts)


# -- the tests ------------------------------------------------------------------------


@st.composite
def pairing_cases(draw):
    phi = draw(integrands())
    return phi, draw(regions(phi)), [draw(functionals(phi.space)) for _ in range(3)]


def two_parts_in_one_cell():
    """A step integrand whose first cell [0, 1/2] holds two parts of the
    region, so its weight is the sum of two overlaps."""
    space = ValueSpace.findim(2, "l1")
    phi = IntegrandFn.step(space, [D0, Dyadic(1, 1), D1], [
        VectorValue.coords(space, [1, Fraction(-1, 3)]), VectorValue.coords(space, [2, 0])])
    region = Region([Interval(D0, Dyadic(1, 3)), Interval(Dyadic(1, 2), Dyadic(3, 3)),
                     Interval(Dyadic(3, 2), D1)])
    return phi, region, [DualFunctional.coordinate(space, 0),
                         DualFunctional.combination(space, [1, 1])]


@settings(max_examples=400, deadline=None)
@given(pairing_cases())
@example(two_parts_in_one_cell())
def test_scalar_integral_matches_fraction_route(case):
    phi, region, fs = case
    for f in fs:
        got = scalar_integral(f, phi, region)
        assert type(got) is Fraction
        assert got == ref.pair(f, ref.integral(phi, region.parts))
    assert_integral(phi, region)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_functional_matches_fraction_route(data):
    space = data.draw(st.sampled_from(COORD_SPACES + STEP_SPACES))
    f = data.draw(functionals(space))
    for _ in range(4):
        v = data.draw(step_value(space))
        if space.is_step and data.draw(st.booleans()):
            # a sum, as the Riemann sums make them, canonical on the grid
            v = linear_combination(space, [(data.draw(RATIONALS), v),
                                           (1, data.draw(step_value(space)))])
        got = f(v)
        assert type(got) is Fraction
        assert got == ref.pair(f, ref.cells(v))


def test_functional_refuses_other_space():
    f = DualFunctional.coordinate(ValueSpace.step_linf(2), 1)
    with pytest.raises(SpaceMismatch):
        f(VectorValue.zero(ValueSpace.step_linf(3)))


def test_step_cell_meeting_several_parts():
    space = ValueSpace.step_linf(2)
    value = VectorValue.step(space, [D0, Dyadic(1, 2), D1], [Fraction(2), Fraction(-1, 3)])
    phi = IntegrandFn.step(space, [D0, Dyadic(3, 2), D1], [value, VectorValue.zero(space)])
    # two parts inside the first cell, one reaching past 1
    region = Region([Interval(Dyadic(1, 4), Dyadic(1, 3)), Interval(Dyadic(1, 2), Dyadic(5, 3)),
                     Interval(Dyadic(7, 3), Dyadic(3, 1))])
    density = VectorValue.step(space, [D0, Dyadic(1, 1), D1], [Fraction(1), Fraction(-1)])
    for f in (DualFunctional.coordinate(space, 0), DualFunctional.step_pairing(space, density)):
        want = ref.pair(f, ref.integral(phi, region.parts))
        assert scalar_integral(f, phi, region) == want != 0
    assert_integral(phi, region)
    assert exact_vector_integral(phi, region) == value * Fraction(7, 16)


def test_polynomial_cells_on_region_parts():
    phi = IntegrandFn.poly(ValueSpace.findim(1, "l2"), [D0, Dyadic(1, 1), D1],
                           [((Fraction(0), Fraction(1)),), ((Fraction(1),),)])
    assert phi.klass == POLY
    region = Region([Interval(Dyadic(-1, 1), Dyadic(1, 2)), Interval(Dyadic(1, 1), Dyadic(1, 1)),
                     Interval(Dyadic(3, 2), Dyadic(3, 1))])
    f = DualFunctional.coordinate(phi.space, 0)
    # t over [0, 1/4], plus 1 over [3/4, 1]; the point 1/2 adds nothing
    assert scalar_integral(f, phi, region) == Fraction(1, 32) + Fraction(1, 4)
