"""The one hypothesis strategy for gauges that the test files share.

A gauge is drawn as a spec, (kind, params), that `make_gauge` builds, so a
test can also read the gauge's data, for instance to work out its width in
Fractions.  Each file passes its own ranges, so each keeps its coverage."""

from hypothesis import strategies as st

from gaugelab.exact import Dyadic
from gaugelab.gauges import Gauge
from gaugelab.integrands import adapted_gauge
from reference import step_integrand


@st.composite
def gauge_specs(draw, widths, depths, breaks, keys, key_count, exps, levels=None):
    """(kind, params) of a gauge, each range an inclusive (lo, hi) pair:
    - "const": a width from `widths`;
    - "piecewise": (breaks, widths) on the grid 2^-depth, depth in `depths`,
      with at most `breaks` interior breaks and one width per cell;
    - "proximity": (exp, keys, cap, floor), exp in `exps`, at most
      `key_count` int keys in `keys`, cap and floor from `widths`;
    - "adapted", only given `levels`: (cuts, level), the adapted gauge of
      `reference.step_integrand(cuts)` at a level in `levels`."""
    kind = draw(st.sampled_from(["const", "piecewise", "proximity"]
                                + (["adapted"] if levels else [])))
    width = st.sampled_from(widths)
    if kind == "const":
        return kind, draw(width)
    if kind == "piecewise":
        depth = draw(st.integers(*depths))
        n = 1 << depth
        inner = sorted(draw(st.sets(st.integers(1, n - 1), max_size=breaks))) if n > 1 else []
        cuts = [Dyadic(k, depth) for k in [0] + inner + [n]]
        return kind, (cuts, draw(st.lists(width, min_size=len(cuts) - 1,
                                          max_size=len(cuts) - 1)))
    if kind == "proximity":
        drawn = draw(st.lists(st.integers(*keys), max_size=key_count))
        return kind, (draw(st.integers(*exps)), drawn, draw(width), draw(width))
    return kind, (draw(st.sets(st.integers(1, 63), max_size=4)), draw(st.integers(*levels)))


def make_gauge(spec) -> Gauge:
    kind, params = spec
    if kind == "const":
        return Gauge.const(params)
    if kind == "piecewise":
        return Gauge.piecewise(*params)
    if kind == "proximity":
        return Gauge.proximity(*params)
    cuts, level = params
    return adapted_gauge(step_integrand(cuts), level)
