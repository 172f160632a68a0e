"""Tagged partitions as int columns against the item-building code they replaced.

`cousin_partition` fills a partition's `lo`, `hi` and `tag` columns straight
from its integer walk, and the partition and subordination tests and the
JSON form read those columns.  The oracles are the code as it was when
every kept item was a Dyadic, Interval and TaggedInterval, copied in below:
the walk that built those items (here through the public, checked
constructors), and the item-based `is_subordinate`, `is_partition` and
`partition_to_json`.  A base whose width is not a power of
two is split by the oracle, in Fractions, into pieces of power-of-two width,
largest first, each walked in turn.

Partitions must agree item for item (the same Dyadics in the same order),
byte for byte as JSON, and on every predicate; a walk that fails must raise
the same error about the same interval.  Gauges: constant, piecewise,
proximity and adapted; all three tag strategies and both flavors; unit,
non-unit, degenerate and out-of-range bases.  Item lists given to the
constructor (overlapping, degenerate, tags anywhere in [0,1]) are checked
against the same item-based oracles.
"""

import json
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab.errors import GaugeNotPositive, MaxDepthExceeded
from gaugelab.exact import D0, D1, Dyadic, Interval, UNIT
from gaugelab.gauges import (HENSTOCK, MCSHANE, SCHEMA, Gauge, TaggedInterval,
                             TaggedPartition, cousin_partition, is_partition, is_subordinate,
                             partition_from_json, partition_to_json)
from gaugelab.integrands import IntegrandFn, adapted_gauge
from gaugelab.spaces import ValueSpace, VectorValue

# -- the item-building walk and the item-based predicates, as they were ------------


def oracle_sample_dyadic_in(iv, rng, extra_depth=10):
    depth = max(iv.lo.exp, iv.hi.exp, iv.length.exp) + extra_depth
    lo_n = iv.lo.num << (depth - iv.lo.exp)
    hi_n = iv.hi.num << (depth - iv.hi.exp)
    return Dyadic(rng.randint(lo_n + 1, hi_n - 1), depth)


def oracle_tag_and_half_width(tag, iv):
    e = max(tag.exp, iv.lo.exp, iv.hi.exp)
    t = tag.num << (e - tag.exp)
    d = max(t - (iv.lo.num << (e - iv.lo.exp)), (iv.hi.num << (e - iv.hi.exp)) - t)
    return t, d, e


def oracle_walk(g, tag_strategy, max_depth, seed, base):
    items = []
    e0 = max(base.lo.exp, base.hi.exp)
    stack = [(base.lo.num << (e0 - base.lo.exp), base.hi.num << (e0 - base.hi.exp), 0)]
    while stack:
        lo, hi, depth = stack.pop()
        e = e0 + depth
        iv = tag = None
        if tag_strategy == "sampled" and lo < hi:
            iv = Interval(Dyadic(lo, e), Dyadic(hi, e))
            tag = oracle_sample_dyadic_in(iv, random.Random(f"{seed}|{iv.lo}|{iv.hi}"))
            t, d, te = oracle_tag_and_half_width(tag, iv)
        elif tag_strategy == "left":
            t, d, te = lo, hi - lo, e
        else:
            t, d, te = lo + hi, hi - lo, e + 1
        if 0 <= t <= 1 << te and g.fits(t, d, te):
            if iv is None:
                iv = Interval(Dyadic(lo, e), Dyadic(hi, e))
            items.append(TaggedInterval(iv, tag if tag is not None else Dyadic(t, te)))
            continue
        if depth >= max_depth:
            iv = Interval(Dyadic(lo, e), Dyadic(hi, e))
            raise MaxDepthExceeded(
                f"no fitting tag for [{iv.lo}, {iv.hi}] within depth {max_depth}",
                interval=iv,
            )
        mid = lo + hi
        stack.append((mid, hi << 1, depth + 1))
        stack.append((lo << 1, mid, depth + 1))
    return items


def oracle_pieces(base):
    rest = base.length.as_fraction()
    if rest == 0:
        return [base]
    pieces, lo = [], base.lo
    while rest:
        p = Fraction(1)
        while p > rest:
            p /= 2
        while 2 * p <= rest:
            p *= 2
        hi = Dyadic.from_fraction(lo.as_fraction() + p)
        pieces.append(Interval(lo, hi))
        lo, rest = hi, rest - p
    return pieces


def oracle_cousin_items(g, tag_strategy, max_depth, seed, base):
    return [it for piece in oracle_pieces(base)
            for it in oracle_walk(g, tag_strategy, max_depth, seed, piece)]


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


def _step_integrand(cuts):
    space = ValueSpace.findim(1, "l2")
    breaks = [D0] + [Dyadic(k, 6) for k in sorted(cuts)] + [D1]
    values = [VectorValue.coords(space, [i % 3]) for i in range(len(breaks) - 1)]
    return IntegrandFn.step(space, breaks, values)


@st.composite
def gauges(draw):
    kind = draw(st.sampled_from(["const", "piecewise", "proximity", "adapted"]))
    if kind == "const":
        return Gauge.const(draw(st.sampled_from(WIDTHS)))
    if kind == "piecewise":
        depth = draw(st.integers(1, 5))
        inner = sorted(draw(st.sets(st.integers(1, (1 << depth) - 1), max_size=5)))
        breaks = [Dyadic(k, depth) for k in [0] + inner + [1 << depth]]
        values = draw(st.lists(st.sampled_from(WIDTHS), min_size=len(breaks) - 1,
                               max_size=len(breaks) - 1))
        return Gauge.piecewise(breaks, values)
    if kind == "proximity":
        bps = draw(st.lists(st.builds(Dyadic, st.integers(-8, 40), st.integers(0, 5)),
                            max_size=4))
        floors = draw(st.lists(st.sampled_from(WIDTHS), min_size=len(bps), max_size=len(bps)))
        return Gauge.proximity(bps, draw(st.sampled_from(WIDTHS)), floors)
    cuts = draw(st.sets(st.integers(1, 63), max_size=4))
    return adapted_gauge(_step_integrand(cuts), draw(st.integers(1, 4)))


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


# -- the tests ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(g=gauges(), other=gauges(), strategy=st.sampled_from(["mid", "left", "sampled"]),
       flavor=st.sampled_from([MCSHANE, HENSTOCK]), base=st.sampled_from(BASES),
       probe_base=st.sampled_from(BASES), seed=st.integers(0, 5),
       max_depth=st.sampled_from([0, 3, 9, 40]))
def test_cousin_columns_match_item_walk(g, other, strategy, flavor, base, probe_base, seed,
                                        max_depth):
    p, err = outcome(lambda: cousin_partition(g, flavor=flavor, tag_strategy=strategy,
                                              max_depth=max_depth, seed=seed, base=base))
    items, want_err = outcome(lambda: oracle_cousin_items(g, strategy, max_depth, seed, base))
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
@given(items=free_items(), g=gauges(), flavor=st.sampled_from([MCSHANE, HENSTOCK]),
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
