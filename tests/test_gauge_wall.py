"""Gauge walls: a walled node holds no tag that fits it.

`Gauge.wall(lo, hi, e)` lets sampled bisection split a node without drawing
a tag.  It is sound only if `fits` fails for every tag strictly inside
[lo, hi] / 2^e.  The hypothesis test walks every node of a base's bisection
tree down to a small depth and, at each walled node, tries every tag strictly
inside on a grid six bits finer than the node.  Gauges: constant, piecewise,
proximity (a floor above or below the cap, breakpoints off [0,1], repeated
ones) and adapted (`reference.step_integrand`); bases in, across and off [0,1].

Each of these broken walls fails it:
  - `>=` for `>` in the proximity cap rule or the const rule (a node whose
    half-width equals the width fits at its midpoint);
  - the interior-breakpoint rule without the floor (the floor can hold the
    node at its breakpoint);
  - a breakpoint on either endpoint counted as interior;
  - the piecewise maximum taken over lo's cell only.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab import gauges
from gaugelab.exact import D0, D1, Dyadic, Interval, UNIT
from gaugelab.gauges import Gauge, cousin_partition, partition_to_json
from gauge_draws import gauge_specs, make_gauge

# powers of two meet node half-widths exactly; the rest do not
WIDTHS = [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16), Fraction(1, 2), Fraction(1),
          Fraction(1, 5), Fraction(1, 12), Fraction(3, 16), Fraction(5, 2), Fraction(1, 1024)]
TREE_DEPTH = 5
TAG_BITS = 6

BASES = [UNIT, Interval(Dyadic(-1, 1), Dyadic(1, 1)), Interval(Dyadic(1, 2), Dyadic(3, 2)),
         Interval(D1, Dyadic(3, 1)), Interval(Dyadic(-3, 2), Dyadic(1, 2))]


walled_gauges = gauge_specs(WIDTHS, depths=(1, 6), breaks=6, keys=(-24, 40), key_count=5,
                            exps=(0, 5), levels=(0, 4)).map(make_gauge)


def tree(base, depth):
    """Every node (lo, hi, e) of the base's bisection tree down to depth."""
    e0 = max(base.lo.exp, base.hi.exp)
    lo, hi = base.lo.num << (e0 - base.lo.exp), base.hi.num << (e0 - base.hi.exp)
    level = [(lo, hi)]
    for k in range(depth + 1):
        yield from ((a, b, e0 + k) for a, b in level)
        level = [half for a, b in level for half in ((2 * a, a + b), (a + b, 2 * b))]


def fitting_tag(g, lo, hi, e):
    """A tag strictly inside [lo, hi] / 2^e on the grid TAG_BITS finer that
    fits the node, or None."""
    s = TAG_BITS
    for t in range((lo << s) + 1, hi << s):
        if g.fits(t, max(t - (lo << s), (hi << s) - t), e + s):
            return Dyadic(t, e + s)
    return None


@settings(max_examples=300, deadline=None)
@given(g=walled_gauges, base=st.sampled_from(BASES))
def test_no_tag_fits_a_walled_node(g, base):
    for lo, hi, e in tree(base, TREE_DEPTH):
        if g.wall(lo, hi, e):
            tag = fitting_tag(g, lo, hi, e)
            assert tag is None, (g.descriptor, Interval(Dyadic(lo, e), Dyadic(hi, e)), tag)


def test_walls_at_hand_checked_nodes():
    # const: half-width 1/4 against 1/4 fits at the midpoint, against 1/5 nowhere
    assert not Gauge.const(Fraction(1, 4)).wall(0, 1, 1)
    assert Gauge.const(Fraction(1, 5)).wall(0, 1, 1)
    # piecewise: [0, 1] meets the cell of 1 past the cut at 1/4
    pw = Gauge.piecewise([D0, Dyadic(1, 2), D1], [Fraction(1, 1024), Fraction(1)])
    assert not pw.wall(0, 1, 0) and pw.wall(0, 1, 2)
    # proximity, cap 1/4: [1/2, 1] has its breakpoint on an end, so its
    # midpoint fits; [0, 1] holds it inside, where only a floor of 1/2 fits
    small = Gauge.proximity(1, [1], Fraction(1, 4), Fraction(1, 1024))
    big = Gauge.proximity(1, [1], Fraction(1, 4), Fraction(1, 2))
    assert not small.wall(1, 2, 1) and small.wall(0, 1, 0) and not big.wall(0, 1, 0)
    assert big.fits(1, 1, 1) and not big.fits(2, 3, 2)  # at 1/2 the floor itself fits


def test_sampled_bisection_draws_only_at_unwalled_nodes(monkeypatch):
    # const 1/8 walls [0, 1] and both halves; each quarter draws and fails
    # (only its midpoint fits), and each eighth draws and fits
    g = Gauge.const(Fraction(1, 8))
    unwalled = Gauge.const(Fraction(1, 8))
    unwalled.wall = lambda lo, hi, e: False
    everywhere = partition_to_json(cousin_partition(unwalled, tag_strategy="sampled", seed=5))
    drawn = []
    draw = gauges._sampled_tag

    def counted(seed, lo, hi, e):
        drawn.append(Fraction(hi - lo, 1 << e))
        return draw(seed, lo, hi, e)

    monkeypatch.setattr(gauges, "_sampled_tag", counted)
    p = cousin_partition(g, tag_strategy="sampled", seed=5)
    assert partition_to_json(p) == everywhere and len(p) == 8
    assert sorted(drawn) == [Fraction(1, 8)] * 8 + [Fraction(1, 4)] * 4
