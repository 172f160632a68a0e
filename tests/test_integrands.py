"""Integrand evaluation, restriction, and the exact integral oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab.exact import D0, D1, Dyadic, Interval, Region, UNIT, region_subtract
from gaugelab.gauges import cousin_partition, is_subordinate
from gaugelab.integrands import (IntegrandFn, adapted_gauge, exact_vector_integral, identity_integrand,
                                 poly_eval, poly_integral, poly_integrand,
                                 restrict_integrand, scalar_integral)
from gaugelab.spaces import DualFunctional, ValueSpace, VectorValue


def two_cell_step():
    space = ValueSpace.findim(2, "l2")
    breaks = (D0, Dyadic(1, 1), D1)
    values = (VectorValue.coords(space, [1, 0]), VectorValue.coords(space, [0, 3]))
    return IntegrandFn.step(space, breaks, values, label="two-cell")


def test_poly_eval_and_integral():
    # 1 + 2t + 3t^2 at t=2 -> 17; integral over [0,1] -> 1+1+1 = 3
    coeffs = [Fraction(1), Fraction(2), Fraction(3)]
    assert poly_eval(coeffs, Fraction(2)) == 17
    assert poly_integral(coeffs, Fraction(0), Fraction(1)) == 3
    assert poly_integral(coeffs, Fraction(1), Fraction(0)) == -3


def test_step_eval_half_open_cells():
    phi = two_cell_step()
    quarter = Fraction(1, 4)
    assert phi.eval(quarter).data == (Fraction(1), Fraction(0))
    # cell boundary belongs to the cell on its right
    assert phi.eval(Fraction(1, 2)).data == (Fraction(0), Fraction(3))
    # the last cell is closed at 1
    assert phi.eval(Fraction(1)).data == (Fraction(0), Fraction(3))
    with pytest.raises(ValueError):
        phi.eval(Fraction(3, 2))


def test_sup_norm_and_lipschitz_bounds():
    phi = two_cell_step()
    assert phi.sup_norm_bound() == 3
    assert phi.lipschitz_bound() == 0
    lin = identity_integrand()
    assert lin.sup_norm_bound() == 1
    assert lin.lipschitz_bound() == 1


def test_norm_lower_on_is_sound():
    phi = two_cell_step()
    lo = phi.norm_lower_on(1, 2, 1)  # [1/2, 1]
    assert lo <= 3
    assert lo > 0
    lin = identity_integrand()
    bound = lin.norm_lower_on(1, 3, 2)  # [1/4, 3/4]
    # inf of |t| on [1/4, 3/4] is 1/4
    assert bound <= Fraction(1, 4)


def test_restrict_zeroes_outside_and_keeps_class():
    phi = two_cell_step()
    left = Region((Interval(D0, Dyadic(1, 1)),))
    cut = restrict_integrand(phi, left)
    assert cut.klass == "step"
    assert cut.eval(Fraction(1, 4)).data == (Fraction(1), Fraction(0))
    assert cut.eval(Fraction(3, 4)).data == (Fraction(0), Fraction(0))
    lin = restrict_integrand(identity_integrand(), left)
    assert lin.klass == "poly"
    assert lin.eval(Fraction(1, 4)).data == (Fraction(1, 4),)
    assert lin.eval(Fraction(3, 4)).data == (Fraction(0),)


def test_exact_vector_integral_step():
    phi = two_cell_step()
    total = exact_vector_integral(phi)
    assert total.data == (Fraction(1, 2), Fraction(3, 2))
    left = Region((Interval(D0, Dyadic(1, 1)),))
    assert exact_vector_integral(phi, left).data == (Fraction(1, 2), Fraction(0))
    # additivity over a complement split
    right = region_subtract(Region((UNIT,)), left)
    got = exact_vector_integral(phi, left) + exact_vector_integral(phi, right)
    assert got.data == total.data


def test_exact_vector_integral_poly():
    # phi(t) = (t, t^2): integral (1/2, 1/3)
    phi = poly_integrand([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0), Fraction(1)]])
    total = exact_vector_integral(phi)
    assert total.data == (Fraction(1, 2), Fraction(1, 3))


def test_scalar_integral_matches_coordinates():
    phi = two_cell_step()
    f0 = DualFunctional.coordinate(phi.space, 0)
    f1 = DualFunctional.coordinate(phi.space, 1)
    assert scalar_integral(f0, phi) == Fraction(1, 2)
    assert scalar_integral(f1, phi) == Fraction(3, 2)
    halfr = Region((Interval(Dyadic(1, 1), D1),))
    assert scalar_integral(f1, phi, halfr) == Fraction(3, 2)
    assert scalar_integral(f0, phi, halfr) == 0


def test_scalar_integral_linearity_against_vector_oracle():
    phi = poly_integrand([[Fraction(1)], [Fraction(0), Fraction(2)]])
    f = DualFunctional.combination(phi.space, [Fraction(1, 2), Fraction(1, 3)])
    vec = exact_vector_integral(phi)
    assert scalar_integral(f, phi) == f(vec)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(0, 200))
def test_scalar_integral_region_additivity(depth, start):
    start = start % (1 << depth)
    if start + 1 > (1 << depth):
        start = 0
    cell = Region((Interval(Dyadic(start, depth), Dyadic(start + 1, depth)),))
    rest = region_subtract(Region((UNIT,)), cell)
    phi = identity_integrand()
    f = DualFunctional.coordinate(phi.space, 0)
    assert scalar_integral(f, phi, cell) + scalar_integral(f, phi, rest) == Fraction(1, 2)


def test_adapted_gauge_isolates_breakpoints():
    phi = two_cell_step()
    g = adapted_gauge(phi, level=5)
    part = cousin_partition(g, seed=3)
    assert is_subordinate(part, g)
    # any cell whose tag is not a breakpoint stays inside one piece
    breaks = {b.as_fraction() for b in phi.breaks}
    for item in part.items:
        if item.tag.as_fraction() in breaks:
            continue
        lo, hi = item.interval.lo.as_fraction(), item.interval.hi.as_fraction()
        inner = [b for b in breaks if lo < b < hi]
        assert not inner
