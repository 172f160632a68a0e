"""Gauge and tagged-partition behavior, pinned by hand-checked cases first."""

import random
from fractions import Fraction

import pytest

from gaugelab.errors import GaugeNotPositive, MaxDepthExceeded, OverlappingItems
from gaugelab.exact import D0, D1, Dyadic, Interval, Region
from gaugelab.gauges import (
    Gauge,
    TaggedInterval,
    TaggedPartition,
    cousin_partition,
    extend_to_partition,
    is_partition,
    is_subordinate,
    partition_from_json,
    partition_to_json,
)
from gaugelab.gallery import example_3f
from gaugelab.integrands import IntegrandFn, adapted_gauge
from gaugelab.spaces import ValueSpace, VectorValue


def ti(lo, hi, tag):
    return TaggedInterval(Interval(Dyadic.parse(lo), Dyadic.parse(hi)), Dyadic.parse(tag))


def tags_inside(p):
    """Every item's tag lies in the item, as each Cousin strategy's does."""
    return all(a <= t <= b for a, b, t in zip(p.lo, p.hi, p.tag))


def test_is_partition_cases():
    good = TaggedPartition([ti("0", "1/2^1", "0"), ti("1/2^1", "1/2^0", "1/2^0")])
    assert is_partition(good)
    gap = TaggedPartition([ti("0", "1/2^2", "0"), ti("1/2^1", "1/2^0", "1/2^0")])
    assert not is_partition(gap)
    overlap = TaggedPartition([ti("0", "3/2^2", "0"), ti("1/2^1", "1/2^0", "1/2^0")])
    assert not is_partition(overlap)
    assert not is_partition(TaggedPartition([]))


def test_is_subordinate_exact_boundary():
    # [1/4, 3/8] around tag 5/16 with delta = 1/16 touches both walls
    p = TaggedPartition([ti("1/2^2", "3/2^3", "5/2^4")])
    assert is_subordinate(p, Gauge.const(Fraction(1, 16)))
    shrunk = Gauge.const(Fraction(1, 17))
    assert not is_subordinate(p, shrunk)


def width_is(g: Gauge, t: Dyadic, w: Fraction, e: int = 30) -> bool:
    """Is delta(t) = w, up to 2^-e?  The fit test holds for the largest
    half-width d / 2^e <= w and fails one step above it."""
    tn, d = t.num << (e - t.exp), w.numerator * (1 << e) // w.denominator
    return g.fits(tn, d, e) and not g.fits(tn, d + 1, e)


def test_gauge_kinds_and_positivity():
    with pytest.raises(GaugeNotPositive):
        Gauge.const(0)
    g = Gauge.piecewise(
        [D0, Dyadic(1, 1), D1], [Fraction(1, 2), Fraction(1, 100)]
    )
    assert width_is(g, Dyadic(1, 2), Fraction(1, 2))
    assert width_is(g, Dyadic(1, 1), Fraction(1, 100))  # half-open cells, boundary -> right
    assert width_is(g, D1, Fraction(1, 100))


def test_proximity_gauge_values():
    g = Gauge.proximity(1, [1], Fraction(1, 4), Fraction(1, 1024))
    assert width_is(g, Dyadic(1, 1), Fraction(1, 1024))
    assert width_is(g, Dyadic(3, 3), Fraction(1, 8))  # distance to 1/2
    assert width_is(g, D0, Fraction(1, 4))  # capped


def test_proximity_level_set_drops_balls_outside_the_unit_interval():
    # the ball about 3/2 of radius 1/8 misses [0, 1] altogether
    g = Gauge.proximity(2, [1, 6], Fraction(1, 4), Fraction(1, 32))
    assert g.level_set(3) == Region.make((D0, Dyadic(1, 3)), (Dyadic(3, 3), D1))


def test_distinct_floors_print_distinct_descriptors():
    # one level, the same keys, sup-norm bounds 1 and 9: floors 1/288 and 1/1056
    space = ValueSpace.findim(1, "l2")
    gauges = [adapted_gauge(IntegrandFn.step(space, [D0, Dyadic(3, 3), D1], [
        VectorValue.coords(space, [m]), VectorValue.coords(space, [0])]), 3) for m in (1, 9)]
    assert gauges[0].descriptor != gauges[1].descriptor
    assert [g.descriptor["floor"] for g in gauges] == ["1/288", "1/1056"]
    for g in gauges:
        # at the breakpoint 3/8, half-widths d / 2^20 fit up to the printed floor
        d = int(Fraction(g.descriptor["floor"]) * (1 << 20))
        assert g.fits(3 << 17, d, 20) and not g.fits(3 << 17, d + 1, 20)


def test_descriptors_are_formatted_only_when_read(monkeypatch):
    calls = []
    fmt = Dyadic.__str__
    monkeypatch.setattr(Dyadic, "__str__", lambda d: calls.append(d) or fmt(d))
    g = adapted_gauge(example_3f(6)["integrand"], 4)
    assert len(cousin_partition(g, tag_strategy="sampled", seed=1)) and not calls
    assert g.kind == "proximity" and len(g.descriptor["breakpoints"]) == len(calls) == 65
    # each kind's descriptor, once read; the breakpoints keep the order given
    assert Gauge.const(Fraction(1, 3)).descriptor == {"kind": "const", "value": "1/3"}
    g = Gauge.piecewise([D0, Dyadic(1, 2), D1], [Fraction(1, 4), 2])
    assert (g.kind, g.descriptor) == ("piecewise", {
        "kind": "piecewise", "breaks": ["0/2^0", "1/2^2", "1/2^0"], "values": ["1/4", "2"]})
    g = Gauge.proximity(3, [6, 1, 4], Fraction(1, 4), Fraction(1, 32))
    assert g.descriptor == {"kind": "proximity", "breakpoints": ["3/2^2", "1/2^3", "1/2^1"],
                            "cap": "1/4", "floor": "1/32"}


def test_cousin_constant_quarter_gauge():
    p = cousin_partition(Gauge.const(Fraction(1, 4)))
    assert is_partition(p)
    assert is_subordinate(p, Gauge.const(Fraction(1, 4)))
    assert all(Fraction(b - a, 1 << p.exp) <= Fraction(1, 2) for a, b in zip(p.lo, p.hi))


def test_cousin_max_depth_exceeded():
    with pytest.raises(MaxDepthExceeded) as exc:
        cousin_partition(Gauge.const(Fraction(1, 100)), max_depth=1)
    assert exc.value.interval is not None
    iv = exc.value.interval
    assert iv.hi.as_fraction() - iv.lo.as_fraction() >= Fraction(1, 4)


def test_cousin_piecewise():
    g = Gauge.piecewise([D0, Dyadic(1, 1), D1], [Fraction(1, 2), Fraction(1, 100)])
    for strategy in ("mid", "left", "sampled"):
        p = cousin_partition(g, tag_strategy=strategy, seed=3)
        assert is_partition(p)
        assert is_subordinate(p, g)
        assert tags_inside(p)


def test_cousin_fuzz_random_piecewise_gauges():
    rng = random.Random(9)
    for trial in range(30):
        depth = rng.randint(1, 4)
        n = 1 << depth
        breaks = [Dyadic(i, depth) for i in range(n + 1)]
        values = [Fraction(1, rng.randint(2, 200)) for _ in range(n)]
        g = Gauge.piecewise(breaks, values)
        strategy = rng.choice(["mid", "left", "sampled"])
        p = cousin_partition(g, tag_strategy=strategy, seed=trial)
        assert is_partition(p)
        assert is_subordinate(p, g)


def test_cousin_deterministic_given_seed():
    # 3/16 leaves slack around each quarter-cell midpoint so sampled tags vary
    g = Gauge.const(Fraction(3, 16))
    p1 = cousin_partition(g, tag_strategy="sampled", seed=42)
    p2 = cousin_partition(g, tag_strategy="sampled", seed=42)
    assert partition_to_json(p1) == partition_to_json(p2)
    p3 = cousin_partition(g, tag_strategy="sampled", seed=43)
    assert partition_to_json(p1) != partition_to_json(p3)


def test_extend_to_partition():
    g = Gauge.const(Fraction(1, 8))
    partial = [ti("1/2^2", "3/2^3", "5/2^4")]
    full = extend_to_partition(partial, g)
    assert is_partition(full)
    assert partial[0] in list(full.items)
    assert is_subordinate(full, Gauge.const(Fraction(1, 4)))  # coarser gauge ok
    with pytest.raises(OverlappingItems):
        extend_to_partition([ti("0", "1/2^1", "0"), ti("1/2^2", "1/2^0", "1")], g)


def test_extend_to_partition_gap_of_odd_width_under_proximity_gauge():
    # the gap [1/16, 1] has width 15/16; bisected whole, its points never reach
    # the integrand's break at 5/64, where the adapted gauge needs a tag
    space = ValueSpace.findim(1, "l2")
    phi = IntegrandFn.step(space, [D0, Dyadic(5, 6), D1],
                           [VectorValue.coords(space, [1]), VectorValue.coords(space, [2])])
    g = adapted_gauge(phi, 2)
    full = extend_to_partition([ti("0", "1/2^4", "1/2^5")], g)
    assert is_partition(full) and is_subordinate(full, g) and tags_inside(full)
    # the gap splits into pieces of width 1/2, 1/4, 1/8 and 1/16
    ends = {it.interval.hi for it in full}
    assert {Dyadic(1, 3), Dyadic(9, 4), Dyadic(13, 4), Dyadic(15, 4)} <= ends
    # a gap of power-of-two width bisects whole, as the unit interval does
    whole = cousin_partition(g, base=Interval(Dyadic(1, 1), D1))
    assert partition_to_json(whole) == partition_to_json(
        TaggedPartition([it for it in cousin_partition(g) if it.interval.lo >= Dyadic(1, 1)]))


def test_partition_json_roundtrip_bit_exact():
    g = Gauge.piecewise([D0, Dyadic(1, 1), D1], [Fraction(1, 3), Fraction(1, 50)])
    p = cousin_partition(g, tag_strategy="sampled", seed=7)
    text = partition_to_json(p)
    back = partition_from_json(text)
    assert partition_to_json(back) == text
    assert back.items == p.items
    # "flavor" is a constant of schema gauge-lab/1: an old "henstock" file
    # loads, and writes back as "mcshane"
    old = text.replace('"flavor": "mcshane"', '"flavor": "henstock"')
    assert old != text
    assert partition_to_json(partition_from_json(old)) == text
