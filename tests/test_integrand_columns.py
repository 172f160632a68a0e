"""Integrands held as int columns (exp, keys), against the Dyadic-break code
they replaced.

An `IntegrandFn` holds its breakpoints as int keys k_0 = 0 < ... < k_m =
2^exp at the smallest exponent, and builds `breaks` (Dyadic objects) only
when read.  Its builders write keys, and `lower_norm_integral`,
`bochner_integrate` and `_sample_cuts` read them.  The keys and the cell
lookup are checked against `tests/reference.py` (the breaks as ints at their
smallest exponent, a linear scan, and its restriction's breaks).  The other
oracles below are the earlier Dyadic-break versions, copied in: the norm
lower bound on an `Interval`, the Fraction-set grid merges of
`lower_norm_integral` and `bochner_integrate`, and `example_3g` built from
its Dyadic breaks.  `_sample_cuts` is checked against ceil(b 2^53) per
break b, breaks at exponent 60 (where `float(b)` rounds) included.

Mutations these tests catch (each run once on a scratch copy):
- the constructor keeps the exponent it is given instead of reducing it to
  the smallest (restrictions to regions with endpoints outside [0, 1]);
- `bochner_integrate` counts off-grid keys with the mask 2^(exp - depth)
  instead of 2^(exp - depth) - 1 (a refusal with another piece count);
- `bochner_integrate` evaluates at (a + b) / 2^e instead of (a + b) /
  2^(e + 1) (other part values on polynomial integrands);
- `example_3g` writes its keys shifted by one (1, 2, ..., 2^(R+1)).
"""

from fractions import Fraction
from math import ceil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaugelab.errors import UnsupportedExactIntegration
from gaugelab.exact import D0, D1, Dyadic, Interval, Region
from gaugelab.gallery import example_3g
from gaugelab.integrands import STEP, IntegrandFn, exact_vector_integral, restrict_integrand
from gaugelab.integrate import (BochnerCertificate, _sample_cuts, bochner_integrate,
                                lower_norm_integral)
from gaugelab.spaces import ValueSpace, VectorValue, linear_combination
import reference as ref

SPACE = ValueSpace.findim(2, "l2")
small = st.fractions(-4, 4, max_denominator=6)


# -- the Dyadic-break oracles ----------------------------------------------------


def oracle_norm_lower_on(phi, iv):
    e = max(iv.lo.exp, iv.hi.exp)
    a, b = iv.lo.num << (e - iv.lo.exp), iv.hi.num << (e - iv.hi.exp)
    if phi.klass == STEP:
        return phi.values[phi.cell_at(a + b, e + 1)].norm().lo
    pts = [iv.lo, Dyadic(a + b, e + 1), iv.hi]
    vals = [phi.eval(p).norm().lo for p in pts]
    slack = phi.lipschitz_bound() * Fraction(b - a, 1 << e)
    return max(Fraction(0), min(vals) - slack)


def oracle_lower_norm_integral(phi, grid_depth):
    cuts = {Fraction(i, 1 << grid_depth) for i in range((1 << grid_depth) + 1)}
    points = sorted(cuts | {b.as_fraction() for b in phi.breaks})
    total = Fraction(0)
    for a, b in zip(points, points[1:]):
        iv = Interval(Dyadic.from_fraction(a), Dyadic.from_fraction(b))
        total += (b - a) * oracle_norm_lower_on(phi, iv)
    return total


def oracle_bochner(phi, eps, max_pieces):
    """bochner_integrate past the separation check (no drawn integrand
    carries separation metadata)."""
    if phi.klass == STEP:
        return BochnerCertificate([(Interval(lo, hi), val) for lo, hi, val in
                                   zip(phi.breaks, phi.breaks[1:], phi.values)],
                                  Fraction(0), exact_vector_integral(phi), eps)
    lip = phi.lipschitz_bound()
    depth = 1
    while lip * Fraction(1, 1 << (depth + 1)) > eps and depth < 30:
        depth += 1
    off_grid = {b for b in phi.breaks if b.exp > depth}
    pieces = (1 << depth) + len(off_grid)
    if pieces > max_pieces:
        raise UnsupportedExactIntegration(
            f"a dominated certificate within eps {eps} needs {pieces} pieces "
            f"(depth {depth}); the piece budget is {max_pieces}")
    cuts = sorted({Fraction(i, 1 << depth) for i in range((1 << depth) + 1)}
                  | {b.as_fraction() for b in phi.breaks})
    parts, terms, dom = [], [], Fraction(0)
    for a, b in zip(cuts, cuts[1:]):
        x = phi.eval((a + b) / 2)
        parts.append((Interval(Dyadic.from_fraction(a), Dyadic.from_fraction(b)), x))
        terms.append((b - a, x))
        dom += (b - a) * lip * (b - a) / 2
    if dom > eps:
        raise UnsupportedExactIntegration(f"refinement floor {dom} > eps; raise eps or depth cap")
    return BochnerCertificate(parts, dom, linear_combination(phi.space, terms), eps)


def outcome(fn, *args):
    """A certificate's fields, or the refusal's message."""
    try:
        cert = fn(*args)
    except UnsupportedExactIntegration as exc:
        return "refused", str(exc)
    return cert.parts, cert.value, cert.dominator_integral, cert.epsilon


# -- draws ----------------------------------------------------------------------


@st.composite
def dyadic_breaks(draw):
    """1-6 cells, each interior break at its own exponent 1-9, so breaks
    fall on and off every grid of depth 0-6."""
    inner = set()
    for _ in range(draw(st.integers(0, 5))):
        e = draw(st.integers(1, 9))
        inner.add(Dyadic(draw(st.integers(1, (1 << e) - 1)), e))
    return [D0, *sorted(inner, key=Dyadic.as_fraction), D1]


@st.composite
def integrand_fns(draw):
    breaks = draw(dyadic_breaks())
    cells = len(breaks) - 1
    if draw(st.booleans()):
        values = [VectorValue.coords(SPACE, draw(st.lists(small, min_size=2, max_size=2)))
                  for _ in range(cells)]
        return IntegrandFn.step(SPACE, breaks, values, label="s"), breaks
    polys = [[draw(st.lists(small, min_size=1, max_size=3)) for _ in range(2)]
             for _ in range(cells)]
    return IntegrandFn.poly(SPACE, breaks, polys, label="p"), breaks


@st.composite
def regions(draw):
    """0-4 parts with endpoints in [-1/2, 3/2] at exponents 0-10, so the
    restriction's working exponent is often finer than its cuts need."""
    parts = []
    for _ in range(draw(st.integers(0, 4))):
        e = draw(st.integers(0, 10))
        ends = st.one_of(st.integers(-(1 << e) // 2, (3 << e) // 2),
                         st.sampled_from([0, 1 << e]))
        a, b = sorted((draw(ends), draw(ends)))
        parts.append(Interval(Dyadic(a, e), Dyadic(b, e)))
    return Region(parts)


def assert_columns(phi, breaks):
    """phi's keys are the breaks as ints at their smallest exponent; the
    points of the grid one finer than exp at, just before and just after
    each key lie in the cells the reference's linear scan finds."""
    exp, keys = ref.grid(breaks)
    assert (phi.exp, list(phi.keys)) == (exp, keys)
    assert [b.as_fraction() for b in phi.breaks] == [Fraction(k, 1 << exp) for k in keys]
    probes = sorted({n for k in keys for n in (2 * k - 1, 2 * k, 2 * k + 1)
                     if 0 <= n <= 2 * keys[-1]})
    assert [phi.cell_at(n, exp + 1) for n in probes] == \
        [ref.cell(breaks, Fraction(n, 2 << exp)) for n in probes]


def assert_readers(phi):
    for depth in range(7):
        assert lower_norm_integral(phi, depth) == oracle_lower_norm_integral(phi, depth)
    # a sample k / 2^53 lies at or past a break b iff k >= ceil(b 2^53)
    assert _sample_cuts(phi).tolist() == [ceil(b.as_fraction() * (1 << 53))
                                          for b in phi.breaks[1:-1]]


# -- tests ----------------------------------------------------------------------


# breaks at exponent 60, finer than any sample k / 2^53: float(b) rounds
# (2^59 + 1) / 2^60 to 1/2, so a float cut would count the sample 1/2 past it
FINE_BREAKS = [D0, Dyadic(3, 60), Dyadic(1, 53), Dyadic((1 << 59) + 1, 60),
               Dyadic((1 << 60) - 1, 60), D1]


@settings(max_examples=200, deadline=None)
@given(integrand_fns(), regions())
@example((IntegrandFn.step(SPACE, FINE_BREAKS, [VectorValue.coords(SPACE, [i, 0])
                                                for i in range(5)]), FINE_BREAKS),
         Region([Interval(Dyadic(1, 2), Dyadic((1 << 60) - 3, 60))]))
def test_columns_and_readers_match_the_dyadic_breaks(drawn, region):
    phi, breaks = drawn
    assert_columns(phi, breaks)
    assert_readers(phi)
    cut = restrict_integrand(phi, region)
    assert_columns(cut, ref.restrict(phi, region.parts)[0])
    assert_readers(cut)


@settings(max_examples=200, deadline=None)
@given(integrand_fns(), regions(),
       st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 50), Fraction(1, 700),
                        Fraction(1, 1 << 12), Fraction(5)]),
       st.integers(1, 300))
def test_bochner_matches_the_fraction_grid(drawn, region, eps, max_pieces):
    phi, _ = drawn
    for psi in (phi, restrict_integrand(phi, region)):
        assert outcome(bochner_integrate, psi, eps, max_pieces) == \
            outcome(oracle_bochner, psi, eps, max_pieces)


def test_norm_lower_bound_evaluates_as_often(monkeypatch):
    # a polynomial cell is evaluated at its two ends and its midpoint
    phi = IntegrandFn.poly(SPACE, [D0, Dyadic(5, 7), Dyadic(3, 3), D1],
                           [[[1, 2], [0, -1, 1]]] * 3)
    calls = []
    original = IntegrandFn.eval

    def counted(self, t):
        calls.append(t)
        return original(self, t)

    monkeypatch.setattr(IntegrandFn, "eval", counted)
    lower_norm_integral(phi, 4)
    got = len(calls)
    calls.clear()
    oracle_lower_norm_integral(phi, 4)
    # the 16 grid cells, one of them split at 5/128
    assert got == len(calls) == 3 * 17


@pytest.mark.parametrize("R", [1, 2, 3, 8, 55])
def test_example_3g_keys_are_its_dyadic_breaks(R):
    phi = example_3g(R)["integrand"]
    breaks = [D0] + [Dyadic(1, n + 1) for n in range(R - 1, -1, -1)] + [D1]
    assert_columns(phi, breaks)
    want = IntegrandFn.step(phi.space, breaks, phi.values)
    assert lower_norm_integral(phi, 8) == oracle_lower_norm_integral(want, 8)
