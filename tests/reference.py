"""Reference definitions the tests check gaugelab against, each stated once
from its definition in Fractions and plain lists: gaugelab's objects are only
the data read and returned.

A region is a sorted list of (lo, hi) Fraction pairs.  A value is a tuple of
Fractions: a coordinate value's coordinates, or a step value's level on each
cell of its space's grid.  An integrand is read through its keys, and its
cells are found by linear scan."""

import random
from collections import Counter
from fractions import Fraction
from math import isqrt, lcm

from gaugelab.errors import MaxDepthExceeded
from gaugelab.exact import D0, D1, Dyadic, Interval, UNIT
from gaugelab.gauges import TaggedInterval
from gaugelab.integrands import IntegrandFn
from gaugelab.spaces import ValueSpace, VectorValue


def _exp(x: Fraction) -> int:
    """k for the dyadic x = n / 2^k in lowest terms."""
    return x.denominator.bit_length() - 1


def _dyadic(x: Fraction) -> Dyadic:
    return Dyadic(x.numerator, _exp(x))


def sampled_tag(seed: int, iv: Interval) -> tuple[int, int, int]:
    """(t, d, te) for iv of positive length: the sampled tag t / 2^te, which
    `random.Random(f"{seed}|{lo}|{hi}").randint` draws strictly between the
    ends at te, ten bits past the finest of lo, hi and the length (each end
    written n/2^k in lowest terms), and d / 2^te, iv's half-width about it."""
    lo, hi = iv.lo.as_fraction(), iv.hi.as_fraction()
    (nl, kl), (nh, kh) = (lo.numerator, _exp(lo)), (hi.numerator, _exp(hi))
    te = max(kl, kh, _exp(hi - lo)) + 10
    a, b = nl << (te - kl), nh << (te - kh)
    t = random.Random(f"{seed}|{nl}/2^{kl}|{nh}/2^{kh}").randint(a + 1, b - 1)
    return t, max(t - a, b - t), te


def pieces(base: Interval) -> list[Interval]:
    """base split into consecutive pieces, one per term of its width's binary
    expansion, largest first; a base of zero width is one piece."""
    lo, w = base.lo.as_fraction(), base.hi.as_fraction() - base.lo.as_fraction()
    out = [] if w else [base]
    for k in reversed(range(w.numerator.bit_length())):
        if w.numerator >> k & 1:
            p = Fraction(1 << k, w.denominator)
            out.append(Interval(_dyadic(lo), _dyadic(lo + p)))
            lo += p
    return out


def cousin(fits, tag_strategy="mid", max_depth=40, seed=0, base=UNIT, support=None):
    """The items, in order, of Cousin's lemma by bisection: each of the base's
    `pieces` is bisected with its own depth count, left child first.  A node's
    tag is its left end ("left"), its `sampled_tag` ("sampled", if it is not a
    point) or its midpoint.  It is kept if the tag lies in [0,1] and
    fits(node, tag); else it is bisected, or at max_depth
    named by MaxDepthExceeded.  With a support, a list of (a, b) Fraction
    parts, a node [lo, hi] is first dropped, with its subtree, unless some
    point of [lo, hi) lies in a part read as [a, b)."""
    def visit(iv, lo, hi, depth):
        if support is not None and not any(max(lo, a) < min(hi, b) for a, b in support):
            return []
        if tag_strategy == "sampled" and lo < hi:
            t, _, te = sampled_tag(seed, iv)
            t = Fraction(t, 1 << te)
        else:
            t = lo if tag_strategy == "left" else (lo + hi) / 2
        tag = _dyadic(t)
        if 0 <= t <= 1 and fits(iv, tag):
            return [TaggedInterval(iv, tag)]
        if depth >= max_depth:
            raise MaxDepthExceeded(f"no fitting tag for [{iv.lo}, {iv.hi}] within depth "
                                   f"{max_depth}", interval=iv)
        mid = (lo + hi) / 2
        m = _dyadic(mid)
        return (visit(Interval(iv.lo, m), lo, mid, depth + 1)
                + visit(Interval(m, iv.hi), mid, hi, depth + 1))

    return [item for piece in pieces(base)
            for item in visit(piece, piece.lo.as_fraction(), piece.hi.as_fraction(), 0)]


def step_integrand(cuts):
    """A step integrand on [0,1] broken at k / 64, k in cuts, of levels 0, 1, 2, 0, ..."""
    space = ValueSpace.findim(1, "l2")
    breaks = [D0] + [Dyadic(k, 6) for k in sorted(cuts)] + [D1]
    values = [VectorValue.coords(space, [i % 3]) for i in range(len(breaks) - 1)]
    return IntegrandFn.step(space, breaks, values)


def nonzero_cells(phi) -> list[tuple[Fraction, Fraction]]:
    """The cells (b_i, b_{i+1}) of phi whose piece is not zero: a value with
    a nonzero coordinate or grid level, or polynomials with a nonzero
    coefficient."""
    bs = breaks(phi)
    if phi.values is not None:
        nonzero = [any(cells(v)) for v in phi.values]
    else:
        nonzero = [any(c for coeffs in cell for c in coeffs) for cell in phi.polys]
    return [(x, y) for x, y, keep in zip(bs, bs[1:], nonzero) if keep]


def _q(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return x.as_fraction() if isinstance(x, Dyadic) else Fraction(x)


def grid(xs) -> tuple[int, list[int]]:
    """(e, ns): the dyadic rationals xs as ints ns over 2^e, e the smallest
    exponent >= 0 at which each is an int."""
    xs = [_q(x) for x in xs]
    e = max((_exp(x) for x in xs), default=0)
    return e, [x.numerator << (e - _exp(x)) for x in xs]


# -- regions: sorted lists of (lo, hi) Fraction pairs -----------------------------


def _ends(part) -> tuple[Fraction, Fraction]:
    lo, hi = (part.lo, part.hi) if isinstance(part, Interval) else part
    return _q(lo), _q(hi)


def region(parts) -> list[tuple[Fraction, Fraction]]:
    """The normalised union of closed parts (Intervals or (lo, hi) pairs): the
    pairs sorted, then merged where they overlap or touch."""
    out = []
    for lo, hi in sorted(map(_ends, parts)):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def contains(parts, x) -> bool:
    x = _q(x)
    return any(lo <= x <= hi for lo, hi in map(_ends, parts))


def point_distance(parts, x) -> Fraction:
    """The distance from x to the nearest part, 0 inside one."""
    x = _q(x)
    return min(max(lo - x, x - hi, Fraction(0)) for lo, hi in map(_ends, parts))


_OPS = {"union": lambda a, b: a or b, "intersect": lambda a, b: a and b,
        "subtract": lambda a, b: a and not b, "symmdiff": lambda a, b: a != b}


def combine(a, b, op: str) -> list[tuple[Fraction, Fraction]]:
    """a op b modulo null sets: each gap between consecutive distinct ends of
    a's and b's parts is kept iff op keeps its midpoint's membership in a and
    in b.  No midpoint is an end, so parts of zero length decide nothing."""
    a, b = [_ends(p) for p in a], [_ends(p) for p in b]
    cuts = sorted({x for part in a + b for x in part})
    return region((x, y) for x, y in zip(cuts, cuts[1:])
                  if _OPS[op](contains(a, (x + y) / 2), contains(b, (x + y) / 2)))


# -- values: tuples of Fractions, one per coordinate or grid cell ------------------


def step(g: int, breaks, levels) -> tuple[Fraction, ...]:
    """The step function with breaks 0 = b_0 < ... < b_m = 1 on the grid
    2^-g and one level per cell [b_i, b_{i+1}), as its level on each grid cell."""
    ends = [int(_q(b) * (1 << g)) for b in breaks]
    return tuple(Fraction(x) for a, b, x in zip(ends, ends[1:], levels) for _ in range(b - a))


def cells(v) -> tuple[Fraction, ...]:
    """A VectorValue's coordinates, or its level on each grid cell: each run
    [k_i, k_{i+1}) of its columns repeats its level once per cell."""
    return tuple(Fraction(n, v.den) for lo, hi, n in zip(v.keys, v.keys[1:], v.nums)
                 for _ in range(hi - lo))


def _over_lcm(xs) -> tuple[list[int], int]:
    """(ns, den): the rationals xs as ints ns over the lcm den of their
    reduced denominators."""
    den = lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


def columns(space, xs) -> tuple:
    """The canonical columns (keys, nums, den) of the value xs, one entry per
    coordinate or grid cell: xs over their lcm den, a key at 0, at each cell
    whose value differs from the one before, and at the number of cells, and
    one numerator per key but the last."""
    nums, den = _over_lcm(xs)
    keys = [0] + [j for j in range(1, len(nums)) if nums[j] != nums[j - 1]] + [len(nums)]
    return tuple(keys), tuple(nums[k] for k in keys[:-1]), den


def combination(space, terms) -> tuple[Fraction, ...]:
    """The sum of c * xs over (c, xs) pairs, coordinate by coordinate or cell
    by cell; the zero value of the space if there are none."""
    out = [Fraction(0)] * ((1 << space.grid_depth) if space.is_step else space.dim)
    for c, xs in terms:
        out = [o + Fraction(c) * x for o, x in zip(out, xs)]
    return tuple(out)


def root(q: Fraction) -> tuple[Fraction, Fraction]:
    """`sqrt_enclosure`'s bounds about sqrt(q), q >= 0: the root itself if
    q's numerator and denominator are both squares, else s / 2^64 and
    (s + 1) / 2^64 with s the integer root of floor(q 2^128)."""
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd), Fraction(rn, rd)
    s = isqrt((q.numerator << 128) // q.denominator)
    return Fraction(s, 1 << 64), Fraction(s + 1, 1 << 64)


def norm(space, xs) -> tuple[Fraction, Fraction]:
    """(lo, hi) about the norm of xs: l1 is the sum of |x| and sup (every
    step space's) the max of |x|, both exact; l2 is the `root` of the sum of
    the squares."""
    return _norm(space, *_over_lcm(xs))


def _norm(space, ns, den) -> tuple[Fraction, Fraction]:
    """`norm` of the value ns / den, for int ns."""
    if space.norm == "l2":
        return root(Fraction(sum(n * n for n in ns), den * den))
    top = Fraction(sum(map(abs, ns)) if space.norm == "l1" else max(map(abs, ns)), den)
    return top, top


def distance(space, u, v) -> tuple[Fraction, Fraction]:
    return norm(space, [a - b for a, b in zip(u, v)])


def squared_distance(space, u, v) -> Fraction:
    """||u - v||^2, exactly: the sum of the squared coordinate gaps in l2,
    else the square of the upper end of `distance`."""
    if space.norm == "l2":
        return sum(((x - y) ** 2 for x, y in zip(u, v)), Fraction(0))
    return distance(space, u, v)[1] ** 2


def spread(space, values) -> Fraction:
    """The largest upper end of a pairwise `distance`; 0 below two values.
    Each pair's difference is taken in ints over the values' common
    denominator."""
    den = lcm(*(x.denominator for xs in values for x in xs))
    rows = [[x.numerator * (den // x.denominator) for x in xs] for xs in values]
    return max((_norm(space, [a - b for a, b in zip(u, v)], den)[1]
                for i, u in enumerate(rows) for v in rows[i + 1:]), default=Fraction(0))


def pair(f, xs) -> Fraction:
    """A DualFunctional f at the value xs: a coordinate functional reads xs[n]
    (a step space's grid cell n), a combination sums c * x, and a step
    pairing sums the density times xs over the grid cells, each 2^-g long."""
    if f.kind == "coordinate":
        return xs[f.params]
    if f.kind == "combination":
        return sum((c * x for c, x in zip(f.params, xs)), Fraction(0))
    return sum((d * x for d, x in zip(cells(f.params), xs)), Fraction(0)) / len(xs)


# -- integrand cells: breaks b_0 = 0 < ... < b_m = 1 read from the keys ---------------


def breaks(phi) -> list[Fraction]:
    return [Fraction(k, 1 << phi.exp) for k in phi.keys]


def cell(bs, t) -> int:
    """The cell of the breaks bs holding t, by linear scan: the cells are
    half-open [b_i, b_{i+1}), the last closed."""
    t = _q(t)
    return sum(1 for b in bs[1:-1] if _q(b) <= t)


def at(phi, t) -> tuple[Fraction, ...]:
    """phi(t): the value of t's step cell, or its cell's polynomials at t."""
    t = _q(t)
    i = cell(breaks(phi), t)
    if phi.values is not None:
        return cells(phi.values[i])
    return tuple(sum((c * t ** k for k, c in enumerate(coeffs)), Fraction(0))
                 for coeffs in phi.polys[i])


def empirical(phi, samples) -> tuple[tuple[Fraction, ...], Fraction]:
    """(mean, variance) of phi over the samples, Fractions in [0, 1]: the
    mean of phi(x), and the sum of ||phi(x) - mean||^2 over n - 1 (0 for one
    sample), the square taken in the space's norm (in l2 the sum of the
    squared coordinates).  A step integrand's equal terms are added up per
    cell, each sample's cell found by the linear scan."""
    n = len(samples)
    if phi.values is not None:
        bs = breaks(phi)
        terms = [(m, cells(phi.values[i]))
                 for i, m in Counter(cell(bs, t) for t in samples).items()]
    else:
        terms = [(1, at(phi, t)) for t in samples]
    mean = tuple(x / n for x in combination(phi.space, terms))
    scatter = sum((m * squared_distance(phi.space, xs, mean) for m, xs in terms), Fraction(0))
    return mean, scatter / (n - 1) if n > 1 else Fraction(0)


def restrict(phi, parts) -> tuple[list[Fraction], list]:
    """phi times the indicator of the parts' union, as (breaks, pieces): phi's
    breaks with the parts' ends in [0, 1], and per cell phi's piece (a value
    or a polynomial tuple) at its midpoint if a part holds that, else None."""
    own = breaks(phi)
    bs = sorted({*own, *(x for part in parts for x in _ends(part) if 0 <= x <= 1)})
    pieces = phi.values if phi.values is not None else phi.polys
    mids = [(x + y) / 2 for x, y in zip(bs, bs[1:])]
    return bs, [pieces[cell(own, m)] if contains(parts, m) else None for m in mids]


def overlaps(phi, parts) -> list[tuple[int, Fraction, Fraction]]:
    """(i, a, b) for each overlap [a, b] of positive length of phi's cell i with
    one of the normalised parts, in the parts' order, then the cells'."""
    bs = breaks(phi)
    return [(i, max(lo, x), min(hi, y)) for lo, hi in region(parts)
            for i, (x, y) in enumerate(zip(bs, bs[1:])) if max(lo, x) < min(hi, y)]


def integral(phi, parts) -> tuple[Fraction, ...]:
    """The integral of phi over the parts' union: per overlap [a, b] of a cell,
    b - a times a step cell's value, or each coordinate polynomial's
    antiderivative from a to b."""
    if phi.values is not None:
        return combination(phi.space, ((b - a, cells(phi.values[i]))
                                       for i, a, b in overlaps(phi, parts)))
    out = [Fraction(0)] * phi.space.dim
    for i, a, b in overlaps(phi, parts):
        for j, coeffs in enumerate(phi.polys[i]):
            out[j] += sum((c * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
                           for k, c in enumerate(coeffs)), Fraction(0))
    return tuple(out)


def riemann_sum(phi, items) -> tuple[Fraction, ...]:
    """The sum over TaggedIntervals of length times phi(tag)."""
    terms = []
    for it in items:
        lo, hi = _ends(it.interval)
        terms.append((hi - lo, at(phi, it.tag)))
    return combination(phi.space, terms)


# -- the gauge limit, each level's trials run until they spread past tol -------------

STRATEGIES = ("mid", "left", "sampled")


def gauge_limit(phi, gauges, fits, tol, trials, seed, max_depth=60):
    """The gauge-limit run over the gauges in level order: level k under
    gauge g runs its trials i = 0, ..., trials - 1 in turn, each the
    `riemann_sum` over the `cousin` partition of fits(g, iv, tag) on phi's
    `nonzero_cells`, with tag strategy STRATEGIES[i % 3] and seed
    seed * 100003 + 97 k + i, and stops after the first trial at which the
    `spread` of the sums so far exceeds tol.  The level's oscillation is the
    spread of the sums it ran.  The first level within tol ends the run,
    "converged", with its last sum.  A run past its last level is
    "oscillation-floor" if at least three levels ran and each of the last
    two kept at least 3/4 of the oscillation before it, else "max-level",
    with the last level's last sum and oscillation, or the zero value and 0
    if no level ran.

    Returns (value, oscillation, status, trace), the trace one row
    {"level": k, "gauge": g.kind, "oscillation": the oscillation as "p/q"}
    per level run."""
    support = nonzero_cells(phi)
    value, osc, oscs, trace = combination(phi.space, ()), Fraction(0), [], []
    for k, g in enumerate(gauges):
        sums = []
        for i in range(trials):
            sums.append(riemann_sum(phi, cousin(lambda iv, tag: fits(g, iv, tag),
                                                STRATEGIES[i % 3], max_depth,
                                                seed * 100003 + 97 * k + i, support=support)))
            if spread(phi.space, sums) > tol:
                break
        value, osc = sums[-1], spread(phi.space, sums)
        trace.append({"level": k, "gauge": g.kind, "oscillation": str(osc)})
        if osc <= tol:
            return value, osc, "converged", trace
        oscs.append(osc)
    floored = len(oscs) >= 3 and all(4 * b >= 3 * a for a, b in zip(oscs[-3:], oscs[-2:]))
    return value, osc, "oscillation-floor" if floored else "max-level", trace
