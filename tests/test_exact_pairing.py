"""The exact side of the dual pairing against the Fraction code it replaced.

`exact_vector_integral` finds where the integrand's cells meet the region's
parts in one integer sweep and weights each step value once, by its cell's
total overlap; `scalar_integral` applies f to that vector integral.  On the
step space, `DualFunctional` reads int keys on the space's grid.  The oracles
are the code as it was, copied in below: a Dyadic min/max per (cell, part)
pair, and functionals that merge Dyadic breaks and locate a grid cell's middle
in Fractions (here by a linear scan).  Results must be structurally equal:
the same Fraction, or the same `repr` for a vector.

Regions have parts reaching outside [0,1], degenerate parts, and parts that
end on the integrand's breaks.  Integrands: step values in coordinate spaces
and in step spaces, polynomial cells, and both restricted to regions.
Functionals: coordinates and combinations on coordinate spaces; coordinates
and step pairings with random densities on step spaces.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab.errors import SpaceMismatch
from gaugelab.exact import D0, D1, Dyadic, Interval, Region
from gaugelab.integrands import (POLY, STEP, IntegrandFn, exact_vector_integral,
                                 poly_integral, restrict_integrand, scalar_integral)
from gaugelab.spaces import DualFunctional, ValueSpace, VectorValue, linear_combination

# -- the Fraction code, as it was ----------------------------------------------------


def oracle_merge_steps(a_breaks, a_levels, b_breaks, b_levels):
    out = []
    ia = ib = 0
    cur = a_breaks[0]
    while cur < a_breaks[-1]:
        hi_a = a_breaks[ia + 1]
        hi_b = b_breaks[ib + 1]
        hi = hi_a if hi_a <= hi_b else hi_b
        out.append((cur, hi, a_levels[ia], b_levels[ib]))
        if hi == hi_a:
            ia += 1
        if hi == hi_b:
            ib += 1
        cur = hi
    return out


def oracle_step_eval(v, tq):
    breaks, levels = v.data
    return levels[sum(1 for b in breaks[1:len(levels)] if b.as_fraction() <= tq)]


def oracle_apply(f, v):
    if v.space != f.space:
        raise SpaceMismatch(f"{v.space} vs {f.space}")
    if f.kind == "coordinate":
        if f.space.is_step:
            n = f.params
            return oracle_step_eval(v, Fraction(2 * n + 1, 1 << (f.space.grid_depth + 1)))
        return v.data[f.params]
    if f.kind == "combination":
        return sum((c * x for c, x in zip(f.params, v.data)), Fraction(0))
    db, dl = f.params.data
    vb, vl = v.data
    total = Fraction(0)
    for lo, hi, ld, lv in oracle_merge_steps(db, dl, vb, vl):
        total += ld * lv * (hi - lo).as_fraction()
    return total


def oracle_paired_polys(f, phi):
    weights = [oracle_apply(f, VectorValue.basis(phi.space, c)) for c in range(phi.space.dim)]
    out = []
    for cell in phi.polys:
        coeffs = [Fraction(0)] * max(len(c) for c in cell)
        for w, c in zip(weights, cell):
            for k, ck in enumerate(c):
                coeffs[k] += w * ck
        out.append(coeffs)
    return out


def oracle_scalar_integral(f, phi, region):
    total = Fraction(0)
    if phi.klass == STEP:
        for lo, hi, val in zip(phi.breaks, phi.breaks[1:], phi.values):
            paired = None
            for part in region.parts:
                a = lo if lo > part.lo else part.lo
                b = hi if hi < part.hi else part.hi
                if a < b:
                    if paired is None:
                        paired = oracle_apply(f, val)
                    total += paired * (b - a).as_fraction()
        return total
    for lo, hi, coeffs in zip(phi.breaks, phi.breaks[1:], oracle_paired_polys(f, phi)):
        for part in region.parts:
            a = lo.as_fraction() if lo > part.lo else part.lo.as_fraction()
            b = hi.as_fraction() if hi < part.hi else part.hi.as_fraction()
            if a < b:
                total += poly_integral(coeffs, a, b)
    return total


def oracle_vector_integral(phi, region):
    if phi.klass == STEP:
        terms = []
        for lo, hi, val in zip(phi.breaks, phi.breaks[1:], phi.values):
            for part in region.parts:
                a = lo if lo > part.lo else part.lo
                b = hi if hi < part.hi else part.hi
                if a < b:
                    terms.append(((b - a).as_fraction(), val))
        return linear_combination(phi.space, terms)
    coords = [Fraction(0)] * phi.space.dim
    for lo, hi, cell in zip(phi.breaks, phi.breaks[1:], phi.polys):
        for part in region.parts:
            a = lo.as_fraction() if lo > part.lo else part.lo.as_fraction()
            b = hi.as_fraction() if hi < part.hi else part.hi.as_fraction()
            if a < b:
                for c, coeffs in enumerate(cell):
                    coords[c] += poly_integral(coeffs, a, b)
    return VectorValue.coords(phi.space, coords)


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


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_scalar_integral_matches_fraction_route(data):
    phi = data.draw(integrands())
    region = data.draw(regions(phi))
    for _ in range(3):
        f = data.draw(functionals(phi.space))
        got = scalar_integral(f, phi, region)
        assert type(got) is Fraction
        assert got == oracle_scalar_integral(f, phi, region)
    assert repr(exact_vector_integral(phi, region)) == repr(oracle_vector_integral(phi, region))


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
        assert got == oracle_apply(f, v)


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
        assert scalar_integral(f, phi, region) == oracle_scalar_integral(f, phi, region) != 0
    vector = exact_vector_integral(phi, region)
    assert repr(vector) == repr(oracle_vector_integral(phi, region))
    assert vector == value * Fraction(7, 16)


def test_polynomial_cells_on_region_parts():
    phi = IntegrandFn.poly(ValueSpace.findim(1, "l2"), [D0, Dyadic(1, 1), D1],
                           [((Fraction(0), Fraction(1)),), ((Fraction(1),),)])
    assert phi.klass == POLY
    region = Region([Interval(Dyadic(-1, 1), Dyadic(1, 2)), Interval(Dyadic(1, 1), Dyadic(1, 1)),
                     Interval(Dyadic(3, 2), Dyadic(3, 1))])
    f = DualFunctional.coordinate(phi.space, 0)
    # t over [0, 1/4], plus 1 over [3/4, 1]; the point 1/2 adds nothing
    assert scalar_integral(f, phi, region) == Fraction(1, 32) + Fraction(1, 4)
