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
building a Fraction.  Each gauge is only that data: the fit test, a wall for
sampled bisection and its level sets are all built from it at construction.

A partition holds its items as int columns at one exponent: bisection fills
them, the tests above and the JSON form read them, and TaggedInterval objects
are made only when a caller reads `items`.
"""

from __future__ import annotations

import json
from _random import Random as _CRandom
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from hashlib import sha512
from typing import Callable, Iterable, Sequence

from .errors import GaugeNotPositive, MaxDepthExceeded, OverlappingItems
from .exact import (D0, D1, Dyadic, DyadicCuts, Interval, Region, UNIT, UNIT_REGION,
                    canonical_exp, merged_region, over_one_den, region_subtract)

SCHEMA = "gauge-lab/1"

MCSHANE = "mcshane"
HENSTOCK = "henstock"


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Dyadic):
        return x.as_fraction()
    return Fraction(x)


class Gauge:
    """Positive width function on [0,1], held as the int data of its kind.

    kinds:
      const      delta(t) = value everywhere
      piecewise  constant on half-open dyadic cells [b_i, b_{i+1}), last closed
      proximity  min(cap, distance to a breakpoint set), with one positive
                 floor on the breakpoints; the classical witness gauge for step maps

    Each kind builds three tests in ints from its data.  `kind` names it,
    and `descriptor`, its data as strings, is built each time it is read.
    `fits(t, d, e)`: is d/2^e <= delta(t/2^e)?  The one subordination test: an
    interval whose points all lie within d/2^e of the tag t/2^e fits the
    gauge ball at that tag.
    `wall(lo, hi, e)`: true only if no tag strictly inside [lo, hi] / 2^e fits
    that interval, so sampled bisection splits a walled node without drawing
    a tag.  A wall may miss a node no tag fits, never the reverse.  Each
    interior tag's half-width is at least half the width w, so a wall is a
    bound of delta by w/2 over the node:
      const      w/2 > delta
      piecewise  w/2 > the largest value over the cells the node meets
      proximity  w/2 > cap if no breakpoint lies strictly inside; otherwise
                 w/2 > the floor, since a tag t off the interior
                 breakpoints has delta(t) <= |t - b| < max(t - lo, hi - t)
    `level_set(k)`: the region of [0,1] where delta >= 2^-k, modulo null
    sets: [0,1] or nothing (const), the cells of value >= 2^-k (piecewise),
    or nothing if cap < 2^-k and else [0,1] less the balls of radius 2^-k
    about the breakpoints (proximity; its floor sits on single points).
    """

    def __init__(self, kind: str, describe: Callable[[], dict],
                 fits: Callable[[int, int, int], bool],
                 wall: Callable[[int, int, int], bool], level_set: Callable[[int], Region]):
        self.kind = kind
        self._describe = describe
        self.fits = fits
        self.wall = wall
        self.level_set = level_set

    @property
    def descriptor(self) -> dict:
        return {"kind": self.kind, **self._describe()}

    @classmethod
    def const(cls, value) -> "Gauge":
        v = _as_fraction(value)
        if v <= 0:
            raise GaugeNotPositive(f"constant gauge {v} <= 0")
        p, q = v.numerator, v.denominator
        return cls("const", lambda: {"value": str(v)},
                   fits=lambda t, d, e: d * q <= p << e,
                   wall=lambda lo, hi, e: (hi - lo) * q > p << (e + 1),
                   level_set=lambda k: UNIT_REGION if p << k >= q else Region.empty())

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
        keys, ce = cells.keys, cells.exp
        nums, den = over_one_den(vals)
        edges = [0, *keys, 1 << ce]

        def fits(t, d, e):
            v = vals[cells.cell_at(t, e)]
            return d * v.denominator <= v.numerator << e

        def wall(lo, hi, e):
            # an interior tag's cell lies between lo's and the last cell
            # starting below hi: cuts <= lo, then cuts < hi (hi at its ceiling)
            s = ce - e
            i = cells.cell_at(lo, e)
            j = bisect_left(keys, hi << s if s >= 0 else -(-hi >> -s))
            return (hi - lo) * den > max(nums[i:j + 1]) << (e + 1)

        def level_set(k):
            return merged_region(ce, [(edges[i], edges[i + 1])
                                      for i, v in enumerate(nums) if v << k >= den])

        def describe():
            return {"breaks": [str(b) for b in breaks], "values": [str(v) for v in vals]}
        return cls("piecewise", describe, fits=fits, wall=wall, level_set=level_set)

    @classmethod
    def proximity(cls, exp: int, keys: Sequence[int], cap, floor) -> "Gauge":
        """delta(t) = min(cap, min_j |t - b_j|) for t off the breakpoints
        b_j = keys[j] / 2^exp, and delta(b_j) = floor > 0 on them."""
        capq, floorq = _as_fraction(cap), _as_fraction(floor)
        if capq <= 0 or floorq <= 0:
            raise GaugeNotPositive("proximity gauge needs positive cap and floor")
        given, keys, e0, n = tuple(keys), sorted(keys), exp, len(keys)
        cap_p, cap_q = capq.numerator, capq.denominator
        floor_p, floor_q = floorq.numerator, floorq.denominator

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
                    return d * floor_q <= floor_p << e
                if d > right - t:
                    return False
            if i > 0 and d > t - (keys[i - 1] << s):
                return False
            return d * cap_q <= cap_p << e

        def wall(lo, hi, e):
            if e < e0:
                lo <<= e0 - e
                hi <<= e0 - e
                e = e0
            # keys[i] is the first breakpoint past lo; if it lies strictly
            # inside, a tag fits only on a breakpoint, under the floor
            s = e - e0
            i = bisect_right(keys, lo >> s)
            if i < n and keys[i] << s < hi:
                return (hi - lo) * floor_q > floor_p << (e + 1)
            return (hi - lo) * cap_q > cap_p << (e + 1)

        def level_set(k):
            if cap_p << k < cap_q:
                return Region.empty()
            # the balls [b - r, b + r] that meet [0, 1], at exponent f
            f = max(e0, k)
            r, one = 1 << (f - k), 1 << f
            balls = merged_region(f, [(x - r, x + r) for x in (b << (f - e0) for b in keys)
                                      if -r <= x <= one + r])
            # what they leave of [0, 1]: the gaps between them, from 0 up to 1
            # (only the first ball can start below 0, only the last end past 1)
            g, top = balls.exp, 1 << balls.exp
            return merged_region(g, [(a, b) for a, b in zip((0, *balls.hi), (*balls.lo, top))
                                     if a < b])

        def describe():
            # the breakpoints in the order given
            return {"breakpoints": [str(Dyadic(k, e0)) for k in given],
                    "cap": str(capq), "floor": str(floorq)}
        return cls("proximity", describe, fits=fits, wall=wall, level_set=level_set)


class TaggedInterval:
    __slots__ = ("interval", "tag")

    def __init__(self, interval: Interval, tag: Dyadic):
        if not (D0 <= tag <= D1):
            raise ValueError(f"tag {tag} outside [0,1]")
        self.interval = interval
        self.tag = tag

    def __eq__(self, other):
        return (
            isinstance(other, TaggedInterval)
            and self.interval == other.interval
            and self.tag == other.tag
        )

    def __repr__(self):
        return f"TaggedInterval([{self.interval.lo}, {self.interval.hi}], tag={self.tag})"


class TaggedPartition:
    """Finite list of tagged non-overlapping intervals, sorted by left endpoint.

    Held as three int columns `lo`, `hi` and `tag` at one exponent `exp` (item
    i is [lo[i], hi[i]] / 2^exp, tagged tag[i] / 2^exp), sorted by (lo, hi)
    with ties in input order.  The constructor converts TaggedInterval items
    and keeps them as `items`; `cousin_partition` fills the columns directly,
    and its `items` are built, through the checked constructors, when first read.
    """

    __slots__ = ("flavor", "exp", "lo", "hi", "tag", "_items")

    def __init__(self, items: Iterable[TaggedInterval], flavor: str = MCSHANE):
        if flavor not in (MCSHANE, HENSTOCK):
            raise ValueError(f"unknown flavor {flavor!r}")
        items = list(items)
        e = max((max(it.interval.lo.exp, it.interval.hi.exp, it.tag.exp) for it in items),
                default=0)
        keyed = sorted(((it.interval.lo.num << (e - it.interval.lo.exp),
                         it.interval.hi.num << (e - it.interval.hi.exp),
                         it.tag.num << (e - it.tag.exp), it) for it in items),
                       key=lambda k: (k[0], k[1]))
        self.flavor, self.exp = flavor, e
        self.lo, self.hi, self.tag, self._items = tuple(zip(*keyed)) or ((),) * 4

    @classmethod
    def _columns(cls, exp: int, lo: tuple, hi: tuple, tag: tuple,
                 flavor: str) -> "TaggedPartition":
        """Wrap columns already sorted by (lo, hi), with lo <= hi and every
        tag in [0,1]; the items are built when first read."""
        p = object.__new__(cls)
        p.flavor, p.exp, p.lo, p.hi, p.tag, p._items = flavor, exp, lo, hi, tag, None
        return p

    @property
    def items(self) -> tuple[TaggedInterval, ...]:
        if self._items is None:
            e = self.exp
            self._items = tuple(
                TaggedInterval(Interval(Dyadic(a, e), Dyadic(b, e)), Dyadic(t, e))
                for a, b, t in zip(self.lo, self.hi, self.tag))
        return self._items

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.lo)


def is_partition(p: TaggedPartition, base: Interval = UNIT) -> bool:
    """True iff the intervals have disjoint interiors and cover base exactly."""
    if not len(p):
        return False
    e = max(p.exp, base.lo.exp, base.hi.exp)
    s = e - p.exp
    # each item starts where the one before it ends: no gap, no overlap
    return (p.lo[1:] == p.hi[:-1] and p.lo[0] << s == base.lo.num << (e - base.lo.exp)
            and p.hi[-1] << s == base.hi.num << (e - base.hi.exp))


def is_subordinate(p: TaggedPartition, g: Gauge) -> bool:
    """Every item fits the gauge ball at its tag: the half-width
    max(tag - lo, hi - tag) is at most delta(tag)."""
    fits, e = g.fits, p.exp
    return all(fits(t, max(t - a, b - t), e) for a, b, t in zip(p.lo, p.hi, p.tag))


@lru_cache(maxsize=4096)
def _sampled_tag(seed: int, lo: int, hi: int, e: int):
    """The sampled strategy's fit-test triple (t, d, te) for the node
    [lo, hi] / 2^e with lo < hi: a tag t / 2^te strictly inside, and the
    node's half-width d / 2^te about it.  The one statement of the draw:
    key: f"{seed}|{n_lo}/2^{k_lo}|{n_hi}/2^{k_hi}", the ends in canonical form
    (n odd or k = 0), so the draw depends on the node and not on e.
    te: ten bits finer than the finest of lo, hi and the length in canonical
    form.  The length is never finer than both ends (a difference keeps every
    factor of two its terms share), so te = max(k_lo, k_hi) + 10.
    draw: `random.Random(key).randint(lo + 1, hi - 1)` at te, as CPython
    makes it without its Python layers.  The int of key + sha512(key) seeds a
    fresh C generator (version-2 seeding); r = getrandbits(k), k the bit
    length of the width hi - lo - 1, is redrawn until r < width; t = lo + 1 + r.
    memo: bounded, keyed by the seed and the node as written, so the key is
    built only on a miss; a node written at two exponents takes two entries,
    which hold one draw."""
    el, eh = canonical_exp(lo, e), canonical_exp(hi, e)
    lo, hi = lo >> (e - el), hi >> (e - eh)
    key = f"{seed}|{lo}/2^{el}|{hi}/2^{eh}".encode()
    rng = _CRandom(int.from_bytes(key + sha512(key).digest(), "big"))
    te = max(el, eh) + 10
    lo, hi = lo << (te - el), hi << (te - eh)
    width = hi - lo - 1  # at least 2^10 - 1: te is ten bits finer
    k = width.bit_length()
    r = rng.getrandbits(k)
    while r >= width:
        r = rng.getrandbits(k)
    t = lo + 1 + r
    return t, max(t - lo, hi - t), te


def cousin_partition(
    g: Gauge,
    flavor: str = MCSHANE,
    tag_strategy: str = "mid",
    max_depth: int = 40,
    seed: int = 0,
    base: Interval = UNIT,
    support: Region | None = None,
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

    The sampled strategy first asks the gauge's wall (see `Gauge`) whether
    any tag inside could fit.  A walled node is split without a draw, exactly
    as a node whose drawn tag failed, at the same depth check; every draw is
    seeded by its node alone, so the partition is the same as with a draw at
    every node.  Every unwalled node calls `_sampled_tag` once.  Its memo is
    per (seed, node as written), so a node that recurs across partitions
    under one seed is seeded once, and no generator is shared between calls.

    A base whose width is not a power of two is split into pieces of
    power-of-two width, largest first, each bisected with its own depth count,
    so that bisection points reach every dyadic point (a proximity gauge's
    breakpoints among them).

    With a support, each part [a, b] read as [a, b), only the items that
    meet it are built: every tag candidate of a node [lo, hi] lies in
    [lo, hi), so a node whose [lo, hi) meets no part is dropped before its
    wall, draw or fit test, and its subtree is never built; a node inside one
    part skips the test for its whole subtree.  The result is the items of
    the full partition that meet the support, and max_depth counts only on
    the nodes that do.  Where an integrand vanishes off its support, every
    dropped item would add 0 to a Riemann sum, and by Cousin's lemma the
    dropped nodes have partitions subordinate to g of their own.
    """
    if tag_strategy not in ("mid", "left", "sampled"):
        raise ValueError(f"unknown tag strategy {tag_strategy!r}")
    if flavor not in (MCSHANE, HENSTOCK):
        raise ValueError(f"unknown flavor {flavor!r}")
    fits, wall = g.fits, g.wall
    sampled = tag_strategy == "sampled"
    if support is not None:
        # the parts of positive length at exponent es; the ends increase
        es = support.exp
        parts = [(a, b) for a, b in zip(support.lo, support.hi) if a < b]
        s_lo, s_hi = [a for a, _ in parts], [b for _, b in parts]
    # Depth-first, left child first, over (lo, hi, depth) with the endpoints as
    # ints at exponent e0 + depth, so kept items come out sorted.  Each kept
    # item is (lo, hi, e, t, te): its endpoints at e and its tag at te.  Every
    # strategy tags a point of its own interval, so both flavors bisect alike.
    e0 = max(base.lo.exp, base.hi.exp)
    lo0, hi0 = base.lo.num << (e0 - base.lo.exp), base.hi.num << (e0 - base.hi.exp)
    # peel power-of-two pieces off the right end, smallest first, until the
    # rest has power-of-two (or zero) width: the stack pops the largest first.
    # A node is (lo, hi, depth, inside): inside a support part, or no support
    whole = support is None
    stack, kept, width = [], [], hi0 - lo0
    while width & (width - 1):
        low = width & -width
        stack.append((hi0 - low, hi0, 0, whole))
        hi0, width = hi0 - low, width - low
    stack.append((lo0, hi0, 0, whole))
    while stack:
        lo, hi, depth, inside = stack.pop()
        e = e0 + depth
        if not inside:
            # [lo, hi) at es, rounded out: l = floor, h = ceil.  The parts
            # starting before h end increasing, so the last of them decides
            if lo >= hi:
                continue
            s = e - es
            l, h = (lo >> s, -(-hi >> s)) if s >= 0 else (lo << -s, hi << -s)
            i = bisect_left(s_lo, h)
            if not i or s_hi[i - 1] <= l:
                continue
            inside = s_lo[i - 1] <= l and h <= s_hi[i - 1]
        if sampled and lo < hi:
            # a walled node holds no tag that fits: it splits without a draw
            tagged = not wall(lo, hi, e)
            if tagged:
                t, d, te = _sampled_tag(seed, lo, hi, e)
        else:
            tagged = True
            if tag_strategy == "left":
                t, d, te = lo, hi - lo, e
            else:
                t, d, te = lo + hi, hi - lo, e + 1
        if tagged and 0 <= t <= 1 << te and fits(t, d, te):
            kept.append((lo, hi, e, t, te))
            continue
        if depth >= max_depth:
            iv = Interval(Dyadic(lo, e), Dyadic(hi, e))
            raise MaxDepthExceeded(
                f"no fitting tag for [{iv.lo}, {iv.hi}] within depth {max_depth}",
                interval=iv,
            )
        mid = lo + hi
        stack.append((mid, hi << 1, depth + 1, inside))
        stack.append((lo << 1, mid, depth + 1, inside))
    if not kept:
        return TaggedPartition._columns(0, (), (), (), flavor)
    top = max(max(e, te) for _, _, e, _, te in kept)
    lo, hi, tag = zip(*[(a << top - e, b << top - e, t << top - te) for a, b, e, t, te in kept])
    return TaggedPartition._columns(top, lo, hi, tag, flavor)


def extend_to_partition(
    partial: Sequence[TaggedInterval],
    g: Gauge,
    flavor: str = MCSHANE,
    tag_strategy: str = "mid",
    max_depth: int = 40,
    seed: int = 0,
) -> TaggedPartition:
    """Complete non-overlapping subordinate items to a full partition of [0,1]."""
    # the items' int columns: they overlap iff their union is shorter than
    # the sum of their lengths
    cols = TaggedPartition(partial, flavor)
    covered = merged_region(cols.exp, zip(cols.lo, cols.hi))
    if covered.measure() != Dyadic(sum(cols.hi) - sum(cols.lo), cols.exp):
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


def partition_payload(p: TaggedPartition) -> dict:
    """The partition as the JSON object that `partition_to_json` writes."""
    e = p.exp
    return {
        "schema": SCHEMA,
        "flavor": p.flavor,
        "items": [
            {"lo": str(Dyadic(a, e)), "hi": str(Dyadic(b, e)), "tag": str(Dyadic(t, e))}
            for a, b, t in zip(p.lo, p.hi, p.tag)
        ],
    }


def partition_to_json(p: TaggedPartition) -> str:
    return json.dumps(partition_payload(p), sort_keys=True)


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
