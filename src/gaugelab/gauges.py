"""Gauges, tagged partitions, and the bisection search for subordinate ones.

A gauge assigns every point of [0,1] a positive width; a tagged partition is a
finite list of non-overlapping closed dyadic intervals covering [0,1], each
carrying a tag.  The partition is subordinate to the gauge when every interval
sits inside [tag - delta(tag), tag + delta(tag)].  Free-tag flavor allows tags
anywhere in [0,1]; pinned-tag flavor ("henstock") requires the tag to lie in
its own interval.

Subordination is decided by one fit test per gauge, `Gauge.fits`, in integer
arithmetic: the tag and the interval's half-width about it are ints at a
common exponent, and the gauge's own data (breakpoints scaled to their largest
exponent, rational widths cross-multiplied) is compared against them without
building a Fraction.  Evaluator gauges are still compared exactly, as the
rationals their values are (a float value included).
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import GaugeNotPositive, MaxDepthExceeded, OverlappingItems
from .exact import (D0, D1, Dyadic, DyadicCuts, Interval, Region, UNIT, _common_exp,
                    region_subtract)

SCHEMA = "gauge-lab/1"

MCSHANE = "mcshane"
HENSTOCK = "henstock"


def _as_fraction(x) -> Fraction:
    if isinstance(x, Dyadic):
        return x.as_fraction()
    return Fraction(x)


class Gauge:
    """Positive width function on [0,1].

    kinds:
      const      delta(t) = value everywhere
      piecewise  constant on half-open dyadic cells [b_i, b_{i+1}), last closed
      proximity  min(cap, distance to a breakpoint set), with a positive floor
                 at each breakpoint; the classical witness gauge for step maps
      evaluator  arbitrary callable; positivity is checked at each probe

    The first three kinds build an integer fit test from their data at
    construction; it replaces the `fits` method on the instance.
    """

    def __init__(self, kind: str, eval_fn: Callable, descriptor: dict, floor=None,
                 fits: Callable[[int, int, int], bool] | None = None):
        self.kind = kind
        self._eval = eval_fn
        self.descriptor = descriptor
        self.floor = floor
        if fits is not None:
            self.fits = fits

    def fits(self, t: int, d: int, e: int) -> bool:
        """Is d/2^e <= delta(t/2^e)?  The one subordination test: an interval
        whose points all lie within d/2^e of the tag t/2^e fits the gauge ball
        at that tag.  This exact fallback evaluates the gauge, so a
        non-positive evaluator value still raises GaugeNotPositive."""
        return Fraction(d, 1 << e) <= self(Dyadic(t, e))

    @classmethod
    def const(cls, value) -> "Gauge":
        v = _as_fraction(value)
        if v <= 0:
            raise GaugeNotPositive(f"constant gauge {v} <= 0")
        p, q = v.numerator, v.denominator
        return cls("const", lambda t: v, {"kind": "const", "value": str(v)}, floor=v,
                   fits=lambda t, d, e: d * q <= p << e)

    @classmethod
    def piecewise(cls, breaks: Sequence[Dyadic], values: Sequence) -> "Gauge":
        """breaks = b_0 < ... < b_m with b_0 = 0, b_m = 1; values per cell."""
        breaks = list(breaks)
        vals = [_as_fraction(v) for v in values]
        if len(vals) != len(breaks) - 1:
            raise ValueError("need one value per cell")
        if breaks[0] != D0 or breaks[-1] != D1:
            raise ValueError("piecewise gauge must span [0,1]")
        if any(b >= c for b, c in zip(breaks, breaks[1:])):
            raise ValueError("breakpoints must increase")
        if any(v <= 0 for v in vals):
            raise GaugeNotPositive("piecewise gauge has a non-positive cell")
        cells = DyadicCuts(breaks[1:-1])

        def ev(t):
            return vals[cells.cell(t)]

        def fits(t, d, e):
            v = vals[cells.cell_at(t, e)]
            return d * v.denominator <= v.numerator << e

        desc = {
            "kind": "piecewise",
            "breaks": [str(b) for b in breaks],
            "values": [str(v) for v in vals],
        }
        return cls("piecewise", ev, desc, floor=min(vals), fits=fits)

    @classmethod
    def proximity(cls, breakpoints: Sequence[Dyadic], cap, floors: Sequence) -> "Gauge":
        """delta(t) = min(cap, min_j |t - b_j|) for t off the breakpoint set,
        and delta(b_j) = floors[j] > 0 on it."""
        bps = list(breakpoints)
        capq = _as_fraction(cap)
        floorq = [_as_fraction(f) for f in floors]
        if capq <= 0 or any(f <= 0 for f in floorq):
            raise GaugeNotPositive("proximity gauge needs positive cap and floors")
        if len(floorq) != len(bps):
            raise ValueError("need one floor per breakpoint")
        order = sorted(range(len(bps)), key=lambda j: bps[j])
        cuts = DyadicCuts(bps[j] for j in order)
        keys, e0, n = cuts.keys, cuts.exp, len(order)
        ordered_floors = [floorq[j] for j in order]
        cap_p, cap_q = capq.numerator, capq.denominator

        def ev(t):
            # t = a/b, so t * 2^e0 = x/b; the first key >= that is at ceil(x/b)
            tq = _as_fraction(t)
            a, b = tq.numerator, tq.denominator
            x = a << e0
            i = bisect_left(keys, -(-x // b))
            if i < n and keys[i] * b == x:
                return ordered_floors[i]
            best = capq
            if i < n:
                best = min(best, Fraction(keys[i] * b - x, b << e0))
            if i > 0:
                best = min(best, Fraction(x - keys[i - 1] * b, b << e0))
            return best

        def fits(t, d, e):
            if e < e0:
                t <<= e0 - e
                d <<= e0 - e
                e = e0
            # keys are at exponent e0 <= e: the first key >= t/2^(e-e0) is at
            # its ceiling, and a neighbour shifted by s is at exponent e
            s = e - e0
            i = bisect_left(keys, -(-t >> s))
            if i < n:
                right = keys[i] << s
                if right == t:
                    f = ordered_floors[i]
                    return d * f.denominator <= f.numerator << e
                if d > right - t:
                    return False
            if i > 0 and d > t - (keys[i - 1] << s):
                return False
            return d * cap_q <= cap_p << e

        desc = {
            "kind": "proximity",
            "breakpoints": [str(b) for b in bps],
            "cap": str(capq),
        }
        return cls("proximity", ev, desc, floor=None, fits=fits)

    @classmethod
    def evaluator(cls, fn: Callable, label: str = "evaluator", floor=None) -> "Gauge":
        return cls("evaluator", fn, {"kind": "evaluator", "label": label}, floor=floor)

    def __call__(self, t) -> Fraction:
        v = self._eval(t)
        vq = Fraction(v) if not isinstance(v, Fraction) else v
        if vq <= 0:
            raise GaugeNotPositive(f"gauge evaluated to {v} at t={t}")
        return vq


class TaggedInterval:
    __slots__ = ("interval", "tag")

    def __init__(self, interval: Interval, tag: Dyadic):
        if not (D0 <= tag <= D1):
            raise ValueError(f"tag {tag} outside [0,1]")
        self.interval = interval
        self.tag = tag

    @classmethod
    def _settled(cls, interval: Interval, tag: Dyadic) -> "TaggedInterval":
        """Wrap an item whose tag is already known to lie in [0,1]."""
        item = object.__new__(cls)
        item.interval = interval
        item.tag = tag
        return item

    def __eq__(self, other):
        return (
            isinstance(other, TaggedInterval)
            and self.interval == other.interval
            and self.tag == other.tag
        )

    def __repr__(self):
        return f"TaggedInterval([{self.interval.lo}, {self.interval.hi}], tag={self.tag})"


class TaggedPartition:
    """Finite list of tagged non-overlapping intervals, sorted by left endpoint."""

    def __init__(self, items: Iterable[TaggedInterval], flavor: str = MCSHANE):
        if flavor not in (MCSHANE, HENSTOCK):
            raise ValueError(f"unknown flavor {flavor!r}")
        items = list(items)
        # order by (lo, hi), both as ints at the items' largest endpoint exponent
        e = _common_exp(it.interval for it in items)
        self.items = tuple(sorted(items, key=lambda it: (
            it.interval.lo.num << (e - it.interval.lo.exp),
            it.interval.hi.num << (e - it.interval.hi.exp))))
        self.flavor = flavor

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)

    def intervals_region(self) -> Region:
        return Region(it.interval for it in self.items)


def is_partition(p: TaggedPartition, base: Interval = UNIT) -> bool:
    """True iff the intervals have disjoint interiors and cover base exactly."""
    if not p.items:
        return False
    prev_hi = None
    for it in p.items:
        if prev_hi is None:
            if it.interval.lo != base.lo:
                return False
        else:
            if it.interval.lo != prev_hi:
                return False  # gap or interior overlap
        prev_hi = it.interval.hi
    return prev_hi == base.hi


def has_flavor(p: TaggedPartition) -> bool:
    if p.flavor == HENSTOCK:
        return all(it.interval.contains(it.tag) for it in p.items)
    return True


def _tag_and_half_width(tag: Dyadic, iv: Interval) -> tuple[int, int, int]:
    """(t, d, e) for the fit test: the tag and max(tag - lo, hi - tag), the
    half-width of the smallest ball about the tag holding iv, as ints at one
    exponent e."""
    e = max(tag.exp, iv.lo.exp, iv.hi.exp)
    t = tag.num << (e - tag.exp)
    d = max(t - (iv.lo.num << (e - iv.lo.exp)), (iv.hi.num << (e - iv.hi.exp)) - t)
    return t, d, e


def is_subordinate(p: TaggedPartition, g: Gauge) -> bool:
    return all(g.fits(*_tag_and_half_width(it.tag, it.interval)) for it in p.items)


def _sample_dyadic_in(iv: Interval, rng: random.Random, extra_depth: int = 10) -> Dyadic:
    """A dyadic point strictly inside iv (iv must have positive length)."""
    depth = max(iv.lo.exp, iv.hi.exp, iv.length.exp) + extra_depth
    lo_n = iv.lo.num << (depth - iv.lo.exp)
    hi_n = iv.hi.num << (depth - iv.hi.exp)
    return Dyadic(rng.randint(lo_n + 1, hi_n - 1), depth)


def cousin_partition(
    g: Gauge,
    flavor: str = MCSHANE,
    tag_strategy: str = "mid",
    max_depth: int = 40,
    seed: int = 0,
    base: Interval = UNIT,
) -> TaggedPartition:
    """Build a partition of base subordinate to g by repeated bisection.

    Each dyadic subinterval gets the strategy's tag (midpoint, left endpoint,
    or a seeded dyadic sample strictly inside); the interval is kept when the
    gauge ball at that tag swallows it and bisected otherwise.  The strategy
    never falls back to a different tag, so distinct strategies genuinely
    produce distinct Riemann sums — that is what makes oscillation between
    strategies an honest convergence signal.  Raises MaxDepthExceeded with the
    offending subinterval once the depth cap is hit, which bounds the damage a
    pathological gauge can do.
    """
    if tag_strategy not in ("mid", "left", "sampled"):
        raise ValueError(f"unknown tag strategy {tag_strategy!r}")
    fits = g.fits
    items: list[TaggedInterval] = []
    # Depth-first, left child first, over (lo, hi, depth) with the endpoints as
    # ints at exponent e0 + depth.  Dyadics are built only for kept items, for
    # the sampled strategy's seed, and for the error.  Every strategy tags a
    # point of its own interval, so both flavors bisect alike.  The walk has
    # settled lo <= hi and 0 <= tag <= 1, so kept items skip those checks.
    e0 = max(base.lo.exp, base.hi.exp)
    stack = [(base.lo.num << (e0 - base.lo.exp), base.hi.num << (e0 - base.hi.exp), 0)]
    while stack:
        lo, hi, depth = stack.pop()
        e = e0 + depth
        iv = tag = None
        if tag_strategy == "sampled" and lo < hi:
            iv = Interval._ordered(Dyadic(lo, e), Dyadic(hi, e))
            tag = _sample_dyadic_in(iv, random.Random(f"{seed}|{iv.lo}|{iv.hi}"))
            t, d, te = _tag_and_half_width(tag, iv)
        elif tag_strategy == "left":
            t, d, te = lo, hi - lo, e
        else:
            t, d, te = lo + hi, hi - lo, e + 1
        if 0 <= t <= 1 << te and fits(t, d, te):
            if iv is None:
                iv = Interval._ordered(Dyadic(lo, e), Dyadic(hi, e))
            items.append(TaggedInterval._settled(iv, tag if tag is not None else Dyadic(t, te)))
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
    return TaggedPartition(items, flavor)


def restrict_partition(p: TaggedPartition, r: Region) -> TaggedPartition:
    """Clip every interval to r, keeping tags; subordination is preserved."""
    out = []
    for it in p.items:
        for part in r.parts:
            lo = it.interval.lo if it.interval.lo > part.lo else part.lo
            hi = it.interval.hi if it.interval.hi < part.hi else part.hi
            if lo < hi:
                out.append(TaggedInterval(Interval(lo, hi), it.tag))
    return TaggedPartition(out, p.flavor)


def extend_to_partition(
    partial: Sequence[TaggedInterval],
    g: Gauge,
    flavor: str = MCSHANE,
    tag_strategy: str = "mid",
    max_depth: int = 40,
    seed: int = 0,
) -> TaggedPartition:
    """Complete non-overlapping subordinate items to a full partition of [0,1]."""
    covered = Region(it.interval for it in partial)
    total = sum((it.interval.length for it in partial), D0)
    if covered.measure() != total:
        raise OverlappingItems("partial items overlap in positive measure")
    items = list(partial)
    for gap in region_subtract(Region((UNIT,)), covered).parts:
        filler = cousin_partition(
            g, flavor=flavor, tag_strategy=tag_strategy,
            max_depth=max_depth, seed=seed, base=gap,
        )
        items.extend(filler.items)
    return TaggedPartition(items, flavor)


# -- serialization ---------------------------------------------------------


def partition_to_json(p: TaggedPartition) -> str:
    payload = {
        "schema": SCHEMA,
        "flavor": p.flavor,
        "items": [
            {"lo": str(it.interval.lo), "hi": str(it.interval.hi), "tag": str(it.tag)}
            for it in p.items
        ],
    }
    return json.dumps(payload, sort_keys=True)


def partition_from_json(text: str) -> TaggedPartition:
    payload = json.loads(text)
    if payload.get("schema") != SCHEMA:
        raise ValueError(f"unexpected schema {payload.get('schema')!r}")
    items = [
        TaggedInterval(
            Interval(Dyadic.parse(item["lo"]), Dyadic.parse(item["hi"])),
            Dyadic.parse(item["tag"]),
        )
        for item in payload["items"]
    ]
    return TaggedPartition(items, payload["flavor"])
