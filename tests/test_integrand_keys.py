"""Integrands, restrictions and the 3f ramp built from int keys, against oracles.

`restrict_integrand` works at one exponent: the cuts are the sorted union of
the integrand's keys and the region's endpoints clipped to [0, 2^e], a cell
is kept when the last region part starting at or before its left end
reaches its right end, and its piece is the one at its left end.  The
oracle is `tests/reference.py`'s restriction: the cuts are a Fraction union,
and a cell is kept when a part holds its midpoint, with the piece looked up
at that midpoint by linear scan.

`example_3f` writes its values and ramp as canonical columns; the oracle
builds them through the checked `VectorValue.step`.  `IntegrandFn` checks
its breaks as int keys and must refuse the same inputs with the same
messages as before.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaugelab import integrands
from gaugelab.exact import D0, D1, Dyadic, Interval, Region
from gaugelab.gallery import example_3f
from gaugelab.integrands import STEP, IntegrandFn, restrict_integrand
from gaugelab.spaces import ValueSpace, VectorValue
import reference as ref


SPACE = ValueSpace.findim(2, "l1")
STEP_SPACE = ValueSpace.step_linf(4)
small = st.fractions(-4, 4, max_denominator=6)


@st.composite
def integrand_fns(draw):
    """A step (coordinate or step-space values) or polynomial integrand with
    breaks at exponents up to 6."""
    e = draw(st.integers(0, 6))
    inner = sorted(draw(st.sets(st.integers(1, (1 << e) - 1), max_size=8))) if e else []
    breaks = [D0, *(Dyadic(k, e) for k in inner), D1]
    cells = len(breaks) - 1
    kind = draw(st.sampled_from(["coords", "steps", "poly"]))
    meta = {"tag": draw(st.integers(0, 3))}
    if kind == "coords":
        values = [VectorValue.coords(SPACE, draw(st.lists(small, min_size=2, max_size=2)))
                  for _ in range(cells)]
        return IntegrandFn.step(SPACE, breaks, values, label="coords", metadata=meta)
    if kind == "steps":
        values = []
        for _ in range(cells):
            keys = sorted(draw(st.sets(st.integers(1, 15), max_size=3)))
            vb = [D0, *(Dyadic(k, 4) for k in keys), D1]
            values.append(VectorValue.step(STEP_SPACE, vb, draw(
                st.lists(small, min_size=len(vb) - 1, max_size=len(vb) - 1))))
        return IntegrandFn.step(STEP_SPACE, breaks, values, label="steps", metadata=meta)
    polys = [[draw(st.lists(small, min_size=1, max_size=3)) for _ in range(2)]
             for _ in range(cells)]
    return IntegrandFn.poly(SPACE, breaks, polys, label="poly", metadata=meta)


@st.composite
def regions(draw):
    """Parts with endpoints in [-1/2, 3/2] at exponents 0-8 (finer and
    coarser than the integrand), some touching 0 or 1, some degenerate;
    possibly none."""
    parts = []
    for _ in range(draw(st.integers(0, 5))):
        e = draw(st.integers(0, 8))
        ends = st.one_of(st.integers(-(1 << e) // 2, (3 << e) // 2),
                         st.sampled_from([0, 1 << e]))
        a, b = sorted((draw(ends), draw(ends)))
        parts.append(Interval(Dyadic(a, e), Dyadic(b, e)))
    return Region(parts)


def assert_restricted(got, phi, region):
    """got is phi times the region's indicator: the reference's breaks, and
    its pieces with a zero where it keeps none."""
    breaks, pieces = ref.restrict(phi, region.parts)
    assert got.space == phi.space and got.klass == phi.klass
    assert (got.exp, list(got.keys)) == ref.grid(breaks)
    if phi.klass == STEP:
        zero = VectorValue.zero(phi.space)
        assert got.values == tuple(zero if p is None else p for p in pieces)
    else:
        zero = tuple((Fraction(0),) for _ in range(phi.space.dim))
        assert got.polys == tuple(zero if p is None else p for p in pieces)
    assert got.label == f"{phi.label}|restricted" and got.metadata == phi.metadata


def step_phi():
    breaks = [D0, Dyadic(1, 2), Dyadic(3, 3), D1]
    values = [VectorValue.coords(SPACE, [k, -k]) for k in (1, 2, 3)]
    return IntegrandFn.step(SPACE, breaks, values, label="s", metadata={"m": 1})


@settings(max_examples=300, deadline=None)
@given(integrand_fns(), regions())
@example(step_phi(), Region())
@example(step_phi(), Region.make((Fraction(-1, 2), Fraction(3, 2))))
@example(step_phi(), Region.make((0, Fraction(1, 4)), (Fraction(3, 8), Fraction(3, 8)),
                                 (Fraction(7, 8), 1)))
@example(step_phi(), Region.make((Fraction(1, 16), Fraction(5, 4))))
def test_restrict_integrand_is_the_midpoint_version(phi, region):
    assert_restricted(restrict_integrand(phi, region), phi, region)


def test_restrict_integrand_builds_no_fraction(monkeypatch):
    phi = example_3f(8)["integrand"]
    region = Region.make((Fraction(1, 4), Fraction(5, 8)), (Fraction(3, 4), 1))

    def refuse(*args, **kwargs):
        raise AssertionError("restrict_integrand went through a Fraction")

    monkeypatch.setattr(Dyadic, "from_fraction", classmethod(refuse))
    monkeypatch.setattr(Dyadic, "as_fraction", refuse)
    monkeypatch.setattr(Region, "contains", refuse)
    monkeypatch.setattr(integrands, "Fraction", refuse)
    cut = restrict_integrand(phi, region)
    monkeypatch.undo()
    assert_restricted(cut, phi, region)


@pytest.mark.parametrize("depth", range(1, 13))
def test_example_3f_columns_are_the_checked_ones(depth):
    built = example_3f(depth)
    phi, ramp = built["integrand"], built["exact_integral"]
    space, n = ValueSpace.step_linf(depth), 1 << depth
    breaks = tuple(Dyadic(j, depth) for j in range(n + 1))
    want = [VectorValue.step(space, (D0, D1), (Fraction(0),))]
    want += [VectorValue.step(space, (D0, Dyadic(j, depth), D1), (Fraction(1), Fraction(0)))
             for j in range(1, n)]
    assert phi.breaks == breaks
    assert [(v.keys, v.nums, v.den) for v in phi.values] == \
        [(v.keys, v.nums, v.den) for v in want]
    want_ramp = VectorValue.step(space, breaks, [Fraction(n - j - 1, n) for j in range(n)])
    assert (ramp.keys, ramp.nums, ramp.den) == (want_ramp.keys, want_ramp.nums, want_ramp.den)
    assert all(v.space == space for v in phi.values) and ramp.space == space


HALF, QUARTER = Dyadic(1, 1), Dyadic(1, 2)


@pytest.mark.parametrize("breaks, message", [
    ((D0, Dyadic(3, 2), HALF, D1), "breakpoints must increase"),
    ((D0, HALF, HALF, D1), "breakpoints must increase"),
    ((D0, D1, D1), "breakpoints must increase"),
    ((QUARTER, HALF, D1), "must span"),
    ((D0, QUARTER, HALF), "must span"),
    ((D0, HALF, Dyadic(2)), "must span"),
    ((Dyadic(-1), HALF, D1), "must span"),
    ((), "must span"),
])
def test_integrand_fn_refuses_bad_breaks(breaks, message):
    values = [VectorValue.coords(SPACE, [1, 0])] * max(len(breaks) - 1, 0)
    with pytest.raises(ValueError, match=message):
        IntegrandFn.step(SPACE, breaks, values)
