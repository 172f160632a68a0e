"""Riemann sums grouped by integrand cell against `tests/reference.py`.

`riemann_sum` adds up integer weights (step integrands) or integer power
moments (polynomial integrands) per integrand cell, and only then touches
rationals.  The reference sums one `length * phi(tag)` term per item in
Fractions, with phi(tag) looked up by a linear scan over the breakpoints
rather than through the integer cell lookup.  Results must hold the
reference's sum in its canonical columns.

Integrands: step values in `step_linf` and in every coordinate space kind,
polynomial cells with ragged coefficient tuples and all-zero (restricted)
cells.  Partitions: Cousin
bisection under all three tag strategies, with and without
the integrand's support (on which its sum must be the full partition's, a
check that catches a `support()` that drops a polynomial cell whose constant
term is 0), completions of
partial items by `extend_to_partition` (non-unit bases, degenerate items,
tags on the integrand's breakpoints), free-tag items and the empty partition.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab.errors import MaxDepthExceeded
from gaugelab.exact import D0, D1, Dyadic, Interval, Region
from gaugelab.gauges import (Gauge, TaggedInterval, TaggedPartition, cousin_partition,
                             extend_to_partition)
from gaugelab.integrands import IntegrandFn, adapted_gauge, restrict_integrand
from gaugelab.integrate import riemann_sum
from gaugelab.spaces import ValueSpace, VectorValue
import reference as ref

# -- integrands ------------------------------------------------------------------------

RATIONALS = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 3),
                             Fraction(-5, 7), Fraction(3, 2), Fraction(1, 1024), Fraction(2)])
COORD_SPACES = [ValueSpace.findim(1, "l2"), ValueSpace.findim(2, "l1"),
                ValueSpace.findim(3, "linf"), ValueSpace.seq_l2(2), ValueSpace.seq_sup(3)]


@st.composite
def breakpoints(draw):
    """0 = b_0 < ... < b_m = 1; the interior points are on the depth-6 grid,
    so their canonical exponents run from 1 to 6."""
    interior = draw(st.sets(st.integers(1, 63), max_size=6))
    return [D0] + [Dyadic(k, 6) for k in sorted(interior)] + [D1]


@st.composite
def step_values(draw, space):
    if not space.is_step:
        return VectorValue.coords(space, draw(st.lists(RATIONALS, min_size=space.dim,
                                                       max_size=space.dim)))
    n = 1 << space.grid_depth
    inner = sorted(draw(st.sets(st.integers(1, n - 1), max_size=4))) if n > 1 else []
    breaks = [Dyadic(k, space.grid_depth) for k in [0] + inner + [n]]
    levels = draw(st.lists(RATIONALS, min_size=len(breaks) - 1, max_size=len(breaks) - 1))
    return VectorValue.step(space, breaks, levels)


@st.composite
def step_integrands(draw):
    space = draw(st.sampled_from(COORD_SPACES + [ValueSpace.step_linf(d) for d in (0, 2, 4)]))
    breaks = draw(breakpoints())
    # some cells zero, so that a support drops them
    values = [VectorValue.zero(space) if draw(st.integers(0, 3)) == 0
              else draw(step_values(space)) for _ in breaks[1:]]
    return IntegrandFn.step(space, breaks, values, label="step")


@st.composite
def poly_integrands(draw):
    space = draw(st.sampled_from(COORD_SPACES))
    breaks = draw(breakpoints())
    cells = []
    for _ in breaks[1:]:
        kind = draw(st.integers(0, 4))
        if kind == 0:
            # an all-zero cell, as restrict_integrand makes them
            cells.append(tuple((Fraction(0),) for _ in range(space.dim)))
        else:
            # coefficient tuples of different lengths per coordinate, with
            # every constant term zero in some cells
            cells.append(tuple((Fraction(0),) * (kind == 1) + tuple(
                draw(st.lists(RATIONALS, min_size=1, max_size=4))) for _ in range(space.dim)))
    return IntegrandFn.poly(space, breaks, cells, label="poly")


@st.composite
def integrands(draw):
    kind = draw(st.sampled_from(["step", "poly", "restricted"]))
    if kind == "step":
        return draw(step_integrands())
    if kind == "poly":
        return draw(poly_integrands())
    phi = draw(st.one_of(step_integrands(), poly_integrands()))
    return restrict_integrand(phi, draw(regions()))


@st.composite
def regions(draw):
    parts = []
    for _ in range(draw(st.integers(0, 3))):
        a, b = sorted(draw(st.lists(st.integers(0, 16), min_size=2, max_size=2)))
        parts.append(Interval(Dyadic(a, 4), Dyadic(b, 4)))
    return Region(parts)


# -- partitions ------------------------------------------------------------------------


def gauges_for(phi, draw, adapted):
    options = [Gauge.const(Fraction(1, 1 << draw(st.integers(0, 5)))),
               Gauge.const(Fraction(1, 5)),
               Gauge.piecewise([D0, Dyadic(1, 2), Dyadic(3, 2), D1],
                               [Fraction(1, 8), Fraction(1, 3), Fraction(1, 16)])]
    if adapted:
        options.append(adapted_gauge(phi, draw(st.integers(1, 4))))
    return draw(st.sampled_from(options))


def tags_for(phi):
    """Tags on the integrand's breakpoints, the ends of [0,1] and elsewhere."""
    on_breaks = list(phi.breaks)
    return st.one_of(st.sampled_from(on_breaks + [D0, D1, Dyadic(1, 1)]),
                     st.builds(Dyadic, st.integers(0, 128), st.just(7)))


@st.composite
def partitions(draw, phi):
    """(p, full): a partition, and the full Cousin partition when p is one
    built on phi's support (None otherwise, or if the full one cannot be built)."""
    strategy = draw(st.sampled_from(["mid", "left", "sampled"]))
    seed = draw(st.integers(0, 5))
    kind = draw(st.sampled_from(["cousin", "extended", "free", "empty"]))
    if kind == "empty":
        return TaggedPartition([]), None
    if kind == "free":
        # free tags, overlapping and degenerate intervals: the sum does not care
        items = []
        for _ in range(draw(st.integers(1, 8))):
            a, b = sorted(draw(st.lists(st.integers(0, 32), min_size=2, max_size=2)))
            items.append(TaggedInterval(Interval(Dyadic(a, 5), Dyadic(b, 5)),
                                        draw(tags_for(phi))))
        return TaggedPartition(items), None
    if kind == "cousin":
        g = gauges_for(phi, draw, adapted=True)
        support = draw(st.sampled_from([None, phi.support()]))
        p = cousin_partition(g, tag_strategy=strategy, seed=seed, support=support)
        if support is None:
            return p, None
        try:
            return p, cousin_partition(g, tag_strategy=strategy, seed=seed)
        except MaxDepthExceeded:
            return p, None
    # the proximity (adapted) gauge needs bisection to land on each breakpoint,
    # which a gap whose width is not a power of two may never do, so it is
    # drawn only for the unit base
    g = gauges_for(phi, draw, adapted=False)
    # partial items on a coarse grid, some degenerate and some tagged on the
    # integrand's breakpoints; cousin_partition fills the gaps as non-unit bases
    cuts = sorted(draw(st.sets(st.integers(0, 16), min_size=2, max_size=8)))
    partial = []
    for a, b in zip(cuts[::2], cuts[1::2]):
        lo, hi = Dyadic(a, 4), Dyadic(b, 4)
        partial.append(TaggedInterval(Interval(lo, hi), draw(tags_for(phi))))
        partial.append(TaggedInterval(Interval(hi, hi), draw(tags_for(phi))))
    return extend_to_partition(partial, g, tag_strategy=strategy, seed=seed), None


# -- the tests ----------------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_riemann_sum_matches_per_item_sum(data):
    phi = data.draw(integrands())
    support = phi.support()
    assert ([(Fraction(a, 1 << support.exp), Fraction(b, 1 << support.exp))
             for a, b in zip(support.lo, support.hi)] == ref.region(ref.nonzero_cells(phi)))
    p, full = data.draw(partitions(phi))
    got = riemann_sum(phi, p)
    assert got.space == phi.space
    assert (got.keys, got.nums, got.den) == ref.columns(phi.space, ref.riemann_sum(phi, p.items))
    # the items of the full partition that miss the support add 0
    if full is not None:
        assert got == riemann_sum(phi, full)
