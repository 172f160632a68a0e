"""Reference definitions the tests check gaugelab against, each stated once
from its definition in Fractions: gaugelab's `Dyadic`, `Interval` and
`TaggedInterval` are only the data read and returned."""

import random
from fractions import Fraction

from gaugelab.errors import MaxDepthExceeded
from gaugelab.exact import D0, D1, Dyadic, Interval, UNIT
from gaugelab.gauges import HENSTOCK, MCSHANE, TaggedInterval
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


def cousin(fits, flavor=MCSHANE, tag_strategy="mid", max_depth=40, seed=0, base=UNIT):
    """The items, in order, of Cousin's lemma by bisection: each of the base's
    `pieces` is bisected with its own depth count, left child first.  A node's
    tag is its left end ("left"), its `sampled_tag` ("sampled", if it is not a
    point) or its midpoint.  It is kept if the tag lies in [0,1] (for henstock,
    in the node) and fits(node, tag); else it is bisected, or at max_depth
    named by MaxDepthExceeded."""
    def visit(iv, lo, hi, depth):
        if tag_strategy == "sampled" and lo < hi:
            t, _, te = sampled_tag(seed, iv)
            t = Fraction(t, 1 << te)
        else:
            t = lo if tag_strategy == "left" else (lo + hi) / 2
        tag = _dyadic(t)
        if 0 <= t <= 1 and (flavor != HENSTOCK or lo <= t <= hi) and fits(iv, tag):
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
