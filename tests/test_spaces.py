"""Value-space arithmetic, certified norms, dual pairings."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaugelab.errors import SpaceMismatch
from gaugelab.exact import D0, D1, Dyadic
from gaugelab.spaces import (
    DualFunctional,
    Enclosure,
    ValueSpace,
    VectorValue,
    distance,
    sqrt_enclosure,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=64
)


def test_sqrt_enclosure_perfect_square_exact():
    e = sqrt_enclosure(Fraction(25))
    assert e.is_exact and e.lo == 5
    e = sqrt_enclosure(Fraction(9, 16))
    assert e.is_exact and e.lo == Fraction(3, 4)


@given(st.fractions(min_value=Fraction(0), max_value=Fraction(10**6), max_denominator=10**6))
def test_sqrt_enclosure_brackets(q):
    e = sqrt_enclosure(q, bits=40)
    assert e.lo * e.lo <= q <= e.hi * e.hi
    assert e.hi - e.lo <= Fraction(1, 1 << 40)


def test_pythagoras_345():
    v = VectorValue.coords(ValueSpace.findim(2, "l2"), [3, 4])
    e = v.norm()
    assert e.is_exact and e.lo == 5


def test_norm_kinds():
    sp1 = ValueSpace.findim(3, "l1")
    spi = ValueSpace.findim(3, "linf")
    v1 = VectorValue.coords(sp1, [1, -2, Fraction(1, 2)])
    assert v1.norm().lo == Fraction(7, 2)
    vi = VectorValue.coords(spi, [1, -2, Fraction(1, 2)])
    assert vi.norm().lo == 2
    vs = VectorValue.coords(ValueSpace.seq_sup(3), [0, 1, 0])
    assert vs.norm().lo == 1


def test_space_mismatch_rejected():
    a = VectorValue.coords(ValueSpace.findim(2, "l2"), [1, 0])
    b = VectorValue.coords(ValueSpace.findim(2, "l1"), [1, 0])
    with pytest.raises(SpaceMismatch):
        _ = a + b


@given(st.lists(rationals, min_size=3, max_size=3), st.lists(rationals, min_size=3, max_size=3), rationals)
def test_linear_arithmetic(xs, ys, c):
    sp = ValueSpace.seq_l2(3)
    u = VectorValue.coords(sp, xs)
    v = VectorValue.coords(sp, ys)
    w = (u + v) * c
    expect = [c * (a + b) for a, b in zip(xs, ys)]
    assert list(w.data) == expect
    # triangle inequality on certified bounds
    assert (u + v).norm().lo <= u.norm().hi + v.norm().hi


def test_step_values_merge_and_norm():
    sp = ValueSpace.step_linf(3)
    u = VectorValue.step(sp, [D0, Dyadic(1, 1), D1], [1, 0])
    v = VectorValue.step(sp, [D0, Dyadic(1, 3), D1], [2, 0])
    w = u + v
    breaks, levels = w.data
    assert [str(b) for b in breaks] == ["0/2^0", "1/2^3", "1/2^1", "1/2^0"]
    assert levels == (Fraction(3), Fraction(1), Fraction(0))
    assert w.norm().lo == 3
    assert (u - u).norm().lo == 0
    # half-open cells: the cell at the boundary 1/8 joins the right cell
    assert DualFunctional.coordinate(sp, 1)(w) == 1
    assert DualFunctional.coordinate(sp, 7)(w) == 0


def test_step_canonicalizes_equal_runs():
    sp = ValueSpace.step_linf(4)
    v = VectorValue.step(sp, [D0, Dyadic(1, 2), Dyadic(1, 1), D1], [1, 1, 0])
    breaks, levels = v.data
    assert len(levels) == 2 and levels == (Fraction(1), Fraction(0))


def test_dual_coordinate_and_combination():
    sp = ValueSpace.seq_l2(4)
    v = VectorValue.coords(sp, [Fraction(1, 2), 0, -3, 1])
    f = DualFunctional.coordinate(sp, 2)
    assert f(v) == -3
    assert f.norm_bound == 1
    g = DualFunctional.combination(sp, [Fraction(3, 5), 0, Fraction(4, 5), 0])
    assert g.norm_bound == 1  # (3/5, 4/5) is unit in l2
    assert g(v) == Fraction(3, 10) - Fraction(12, 5)
    sup = ValueSpace.seq_sup(2)
    h = DualFunctional.combination(sup, [Fraction(1, 2), Fraction(1, 2)])
    assert h.norm_bound == 1  # dual of sup is absolute sum


def test_functional_linearity_random():
    rng = random.Random(31)
    sp = ValueSpace.findim(5, "l2")
    f = DualFunctional.combination(sp, [Fraction(rng.randint(-3, 3), 7) for _ in range(5)])
    for _ in range(50):
        u = VectorValue.coords(sp, [Fraction(rng.randint(-9, 9), 4) for _ in range(5)])
        v = VectorValue.coords(sp, [Fraction(rng.randint(-9, 9), 4) for _ in range(5)])
        a = Fraction(rng.randint(-5, 5), 3)
        assert f(u * a + v) == a * f(u) + f(v)


def test_step_pairing_unit_density_halfline():
    # density 1 against the indicator of [0,1/2] integrates to 1/2
    sp = ValueSpace.step_linf(4)
    density = VectorValue.step(sp, [D0, D1], [1])
    f = DualFunctional.step_pairing(sp, density)
    assert f.norm_bound == 1
    ind = VectorValue.step(sp, [D0, Dyadic(1, 1), D1], [1, 0])
    assert f(ind) == Fraction(1, 2)
    # functional coordinate on step space reads a cell level
    c = DualFunctional.coordinate(sp, 0)
    assert c(ind) == 1


def test_distance_enclosure_direction():
    sp = ValueSpace.seq_l2(2)
    u = VectorValue.coords(sp, [1, 1])
    d = distance(u, VectorValue.zero(sp))
    assert d.lo <= Fraction(142, 100) <= d.hi or d.hi < Fraction(142, 100)
    assert d.lo * d.lo <= 2 <= d.hi * d.hi
