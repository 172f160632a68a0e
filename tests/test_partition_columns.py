"""Tagged partitions as int columns against the reference walk and item oracles.

`cousin_partition` fills a partition's `lo`, `hi` and `tag` columns straight
from its integer walk, and the partition and subordination tests and the
JSON form read those columns.  The walk's oracle is `cousin` in
`tests/reference.py` (bases split into power-of-two pieces, largest first,
each bisected in turn), given the gauge's own `fits` through the tag and
half-width below.  The predicates' oracles are the item-based
`is_subordinate`, `is_partition` and `partition_to_json`, copied in below as
they were when every kept item was a Dyadic, Interval and TaggedInterval.

Partitions must agree item for item (the same Dyadics in the same order),
byte for byte as JSON, and on every predicate; a walk that fails must raise
the same error about the same interval.  Gauges: constant, piecewise,
proximity and adapted; all three tag strategies and both flavors; unit,
non-unit, degenerate and out-of-range bases; no support, drawn regions and
the nonzero cells of step integrands as supports.  The support cases catch a
meets test with `<=` for `<` at either end, a node marked inside a part it
only overlaps, a part's right end read as closed (so a left tag there is
kept), and, through an explicit example, a node's right end read at its floor
on the support's grid.  Item lists given to the
constructor (overlapping, degenerate, tags anywhere in [0,1]) are checked
against the same item-based oracles.
"""

import json
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaugelab.errors import GaugeNotPositive, MaxDepthExceeded
from gaugelab.exact import D0, D1, Dyadic, Interval, Region, UNIT
from gaugelab.gauges import (HENSTOCK, MCSHANE, SCHEMA, Gauge, TaggedInterval,
                             TaggedPartition, cousin_partition, is_partition, is_subordinate,
                             partition_from_json, partition_to_json)
from gauge_draws import gauge_specs, make_gauge
from reference import cousin, nonzero_cells, step_integrand

# -- the item-based predicates, as they were ------------------------------------


def oracle_tag_and_half_width(tag, iv):
    e = max(tag.exp, iv.lo.exp, iv.hi.exp)
    t = tag.num << (e - tag.exp)
    d = max(t - (iv.lo.num << (e - iv.lo.exp)), (iv.hi.num << (e - iv.hi.exp)) - t)
    return t, d, e


def oracle_is_partition(items, base=UNIT):
    if not items:
        return False
    prev_hi = None
    for it in items:
        if prev_hi is None:
            if it.interval.lo != base.lo:
                return False
        elif it.interval.lo != prev_hi:
            return False
        prev_hi = it.interval.hi
    return prev_hi == base.hi


def oracle_is_subordinate(items, g):
    return all(g.fits(*oracle_tag_and_half_width(it.tag, it.interval)) for it in items)


def oracle_json(items, flavor):
    return json.dumps({
        "schema": SCHEMA,
        "flavor": flavor,
        "items": [{"lo": str(it.interval.lo), "hi": str(it.interval.hi), "tag": str(it.tag)}
                  for it in items],
    }, sort_keys=True)


def as_pairs(items):
    return [(it.interval.lo, it.interval.hi, it.tag) for it in items]


def columns_at(p, e):
    s = e - p.exp
    return tuple(tuple(x << s for x in col) for col in (p.lo, p.hi, p.tag))


def misread_bases(p):
    """Bases whose ends are the partition's own end columns read at a finer
    exponent: covered only if a column is compared at the wrong scale."""
    if not len(p):
        return []
    lo, hi = Dyadic(p.lo[0], p.exp), Dyadic(p.hi[-1], p.exp)
    out = []
    for k in (1, 2):
        finer_lo, finer_hi = Dyadic(p.lo[0], p.exp + k), Dyadic(p.hi[-1], p.exp + k)
        out += [Interval(a, b) for a, b in ((finer_lo, hi), (lo, finer_hi)) if a <= b]
    return out


def structural(items):
    """Each Dyadic as (num, exp): equal only if the same canonical Dyadic."""
    return [tuple((d.num, d.exp) for d in triple) for triple in as_pairs(items)]


# -- gauges and bases ----------------------------------------------------------------

WIDTHS = [Fraction(1, 5), Fraction(1, 12), Fraction(3, 16), Fraction(1, 3), Fraction(1),
          Fraction(1, 1024), Fraction(5, 2)]


gauges = gauge_specs(WIDTHS, depths=(1, 5), breaks=5, keys=(-8, 40), key_count=4, exps=(0, 5),
                     levels=(1, 4)).map(make_gauge)


# unit, power-of-two and other widths, degenerate, reaching past [0,1], and huge
BASES = [UNIT, Interval(Dyadic(1, 2), Dyadic(3, 2)), Interval(Dyadic(3, 3), D1),
         Interval(Dyadic(1, 4), D1), Interval(D0, Dyadic(11, 4)),
         Interval(Dyadic(5, 6), Dyadic(50, 6)), Interval(Dyadic(1, 1), Dyadic(1, 1)),
         Interval(Dyadic(-1, 1), Dyadic(1, 1)), Interval(Dyadic(-3, 3), Dyadic(7, 3)),
         Interval(D1, Dyadic(3, 1)), Interval(Dyadic(5, 4), Dyadic(13, 4)),
         Interval(D0, Dyadic(4096)), Interval(Dyadic(-1), Dyadic(2000))]


def outcome(build):
    try:
        return build(), None
    except (MaxDepthExceeded, GaugeNotPositive) as exc:
        return None, (type(exc).__name__, str(exc), getattr(exc, "interval", None))


@st.composite
def supports(draw):
    """(region, parts): None, or a Region and the Fraction parts it was made
    from.  Parts are drawn on grids from 2^0 to 2^-6, reaching past [0,1],
    and may be empty, overlapping, touching or degenerate; or they are the
    nonzero cells of a step integrand."""
    kind = draw(st.sampled_from(["none", "parts", "step"]))
    if kind == "none":
        return None, None
    if kind == "step":
        phi = step_integrand(draw(st.sets(st.integers(1, 63), max_size=6)))
        return phi.support(), nonzero_cells(phi)
    exp = draw(st.integers(0, 6))
    ends = st.integers(-(1 << exp), 3 << exp)
    pairs = [tuple(sorted(draw(st.lists(ends, min_size=2, max_size=2))))
             for _ in range(draw(st.integers(0, 4)))]
    if pairs and draw(st.booleans()):
        # one part starts where another ends
        a, b = pairs[0]
        pairs.append((b, b + draw(st.integers(0, 1 << exp))))
    region = Region([Interval(Dyadic(a, exp), Dyadic(b, exp)) for a, b in pairs])
    return region, [(Fraction(a, 1 << exp), Fraction(b, 1 << exp)) for a, b in pairs]


# -- the tests ---------------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(g=gauges, other=gauges, strategy=st.sampled_from(["mid", "left", "sampled"]),
       flavor=st.sampled_from([MCSHANE, HENSTOCK]), base=st.sampled_from(BASES),
       probe_base=st.sampled_from(BASES), seed=st.integers(0, 5),
       max_depth=st.sampled_from([0, 3, 9, 40]), support=supports())
# a base whose right end lies off the support's grid and past its part: read
# at the floor, that end would put the base inside [0, 1/2]
@example(g=Gauge.const(Fraction(1, 5)), other=Gauge.const(Fraction(1, 12)), strategy="mid",
         flavor=MCSHANE, base=Interval(Dyadic(1, 2), Dyadic(3, 2)), probe_base=UNIT, seed=0,
         max_depth=9, support=(Region([Interval(D0, Dyadic(1, 1))]), [(0, Fraction(1, 2))]))
def test_cousin_columns_match_item_walk(g, other, strategy, flavor, base, probe_base, seed,
                                        max_depth, support):
    region, parts = support
    p, err = outcome(lambda: cousin_partition(g, flavor=flavor, tag_strategy=strategy,
                                              max_depth=max_depth, seed=seed, base=base,
                                              support=region))
    items, want_err = outcome(lambda: cousin(
        lambda iv, tag: g.fits(*oracle_tag_and_half_width(tag, iv)), flavor=flavor,
        tag_strategy=strategy, max_depth=max_depth, seed=seed, base=base, support=parts))
    assert err == want_err
    if err is not None:
        return
    assert len(p) == len(items)
    assert structural(p.items) == structural(items)
    assert partition_to_json(p) == oracle_json(items, flavor)
    assert is_subordinate(p, g) == oracle_is_subordinate(items, g)
    # another gauge need not hold, and another base need not be covered
    assert outcome(lambda: is_subordinate(p, other)) == outcome(
        lambda: oracle_is_subordinate(items, other))
    for b in [base, probe_base, UNIT] + misread_bases(p):
        assert is_partition(p, b) == oracle_is_partition(items, b)
    # items made from the columns feed the constructor back to the same values,
    # at an exponent no larger than the walk's
    again = TaggedPartition(p.items, flavor)
    assert again.exp <= p.exp
    assert columns_at(again, p.exp) == (p.lo, p.hi, p.tag)
    assert structural(again.items) == structural(items)
    assert partition_to_json(partition_from_json(partition_to_json(p))) == partition_to_json(p)


@st.composite
def free_items(draw):
    """Items on a grid, in any order: overlapping, degenerate, gapped, and
    often tiling [0,1] exactly; tags anywhere in [0,1]."""
    exp = draw(st.integers(0, 6))
    n = 1 << exp
    tag = st.builds(Dyadic, st.integers(0, 4 * n), st.just(exp + 2))
    if draw(st.booleans()):
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=6))) if n > 1 else []
        ends = [0] + cuts + [n]
        pairs = list(zip(ends, ends[1:]))
    else:
        pairs = [tuple(sorted(draw(st.lists(st.integers(-2, n + 2), min_size=2, max_size=2))))
                 for _ in range(draw(st.integers(0, 6)))]
    items = [TaggedInterval(Interval(Dyadic(a, exp), Dyadic(b, exp)), draw(tag))
             for a, b in pairs]
    return draw(st.permutations(items))


@settings(max_examples=300, deadline=None)
@given(items=free_items(), g=gauges, flavor=st.sampled_from([MCSHANE, HENSTOCK]),
       base=st.sampled_from(BASES))
def test_constructor_columns_match_items(items, g, flavor, base):
    p = TaggedPartition(items, flavor)
    order = sorted(items, key=lambda it: (it.interval.lo.as_fraction(),
                                          it.interval.hi.as_fraction()))
    # the constructor keeps the given objects, sorted by (lo, hi), ties in input order
    assert [id(it) for it in p.items] == [id(it) for it in order]
    assert len(p) == len(items)
    den = 1 << p.exp
    assert [(Fraction(a, den), Fraction(b, den), Fraction(t, den))
            for a, b, t in zip(p.lo, p.hi, p.tag)] == [
        (lo.as_fraction(), hi.as_fraction(), t.as_fraction()) for lo, hi, t in as_pairs(order)]
    assert partition_to_json(p) == oracle_json(order, flavor)
    assert outcome(lambda: is_subordinate(p, g)) == outcome(
        lambda: oracle_is_subordinate(order, g))
    for b in [base, UNIT] + misread_bases(p):
        assert is_partition(p, b) == oracle_is_partition(order, b)
