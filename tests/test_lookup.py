"""The breakpoint cell lookups and Region.contains against linear scans.

Two objects find the cell of a point among dyadic breakpoints: piecewise
gauges and piecewise integrands; a step value's coordinate functional finds
the cell of a grid cell.  All use half-open cells [b_i, b_{i+1}) with the
last cell closed, so t = 1 falls in the last cell.  Region.contains looks a
point up among sorted parts.  Both are checked against the linear scans of
`tests/reference.py`.  The queries always include every breakpoint and
endpoint, 0 and 1, where an off-by-one in a search would show.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab.exact import Dyadic, Interval, Region
from gaugelab.gauges import Gauge
from gaugelab.integrands import IntegrandFn
from gaugelab.spaces import DualFunctional, ValueSpace, VectorValue
import reference as ref

DEPTH = 5


@st.composite
def lookup_cases(draw):
    n = 1 << DEPTH
    interior = sorted(draw(st.sets(st.integers(1, n - 1), max_size=8)))
    breaks = [Dyadic(k, DEPTH) for k in [0] + interior + [n]]
    ends = draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=5))
    parts = [Interval(Dyadic(min(a, b), DEPTH), Dyadic(max(a, b), DEPTH)) for a, b in ends]
    # queries on the grid one level finer, so midpoints of cells come up too
    extra = draw(st.lists(st.integers(0, 2 * n), max_size=12))
    points = ({Fraction(k, 2 * n) for k in extra} | {Fraction(0), Fraction(1)}
              | {b.as_fraction() for b in breaks}
              | {e.as_fraction() for p in parts for e in (p.lo, p.hi)})
    return breaks, parts, sorted(points)


@settings(max_examples=60, deadline=None)
@given(lookup_cases())
def test_cell_lookups_and_region_contains_match_linear_scan(case):
    breaks, parts, points = case
    cells = range(len(breaks) - 1)
    gauge = Gauge.piecewise(breaks, [Fraction(c + 1) for c in cells])
    line = ValueSpace.findim(1)
    phi = IntegrandFn.step(line, breaks, [VectorValue.coords(line, [c]) for c in cells])
    step_space = ValueSpace.step_linf(DEPTH)
    step = VectorValue.step(step_space, breaks, list(cells))
    region = Region(parts)
    for tq in points:
        expect = ref.cell(breaks, tq)
        # the gauge's width expect + 1 through the fit test, at tq's exponent
        tn, width = int(tq * (2 << DEPTH)), (expect + 1) << (DEPTH + 1)
        assert gauge.fits(tn, width, DEPTH + 1) and not gauge.fits(tn, width + 1, DEPTH + 1)
        for t in (tq, Dyadic.from_fraction(tq)):
            assert phi.eval(t).data == (expect,)
        grid_cell = min(int(tq * (1 << DEPTH)), (1 << DEPTH) - 1)
        assert DualFunctional.coordinate(step_space, grid_cell)(step) == expect
        inside = ref.contains(parts, tq)
        assert region.contains(tq) == inside
        assert region.contains(Dyadic.from_fraction(tq)) == inside
