"""Regions as int columns against the Interval-based code they replaced.

`Region` holds its parts as sorted int columns `lo` and `hi` at one reduced
exponent `exp`, and `region_combine`, the point lookups, `translate`,
`scale_half`, `integrands._region_pieces` and `stability._region_arrays` read
the columns.  The oracles are the code as it was, copied in below: a region
that keeps Interval parts and bisects on Fraction keys, the sweep over
endpoints rescaled from those parts, the cell sweep that rescaled every part,
and float arrays made with `float(Dyadic)`.

Regions have mixed exponents, negative endpoints, degenerate and touching
parts, and none.  The same point set built at different exponents must give
equal columns, `==` and `hash`.  Lookups are probed at endpoints, interior
points, points just beside the endpoints and non-dyadic Fractions.
"""

from bisect import bisect_right
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab.exact import Dyadic, Interval, Region, format_region, region_combine
from gaugelab.integrands import IntegrandFn, _region_pieces
from gaugelab.spaces import ValueSpace, VectorValue
from gaugelab.stability import _region_arrays

OPS = ("union", "intersect", "subtract", "symmdiff")

# -- the Interval code, as it was ---------------------------------------------------


def _common_exp(parts) -> int:
    e = 0
    for iv in parts:
        e = max(e, iv.lo.exp, iv.hi.exp)
    return e


def _lo_fraction(part):
    return part.lo.as_fraction()


def shifted(iv, t):
    """iv + t, worked out in Fractions."""
    tq = t.as_fraction()
    return Interval.make(iv.lo.as_fraction() + tq, iv.hi.as_fraction() + tq)


class OracleRegion:
    def __init__(self, parts=(), normalized=False):
        parts = list(parts)
        if normalized:
            self.parts = tuple(parts)
            return
        e = _common_exp(parts)
        keyed = sorted(((iv.lo.num << (e - iv.lo.exp), iv.hi.num << (e - iv.hi.exp), iv)
                        for iv in parts), key=lambda k: (k[0], k[1]))
        merged, top = [], None
        for lo, hi, iv in keyed:
            if merged and lo <= top:
                if hi > top:
                    merged[-1] = Interval(merged[-1].lo, iv.hi)
                    top = hi
            else:
                merged.append(iv)
                top = hi
        self.parts = tuple(merged)

    def measure(self):
        total = Fraction(0)
        for iv in self.parts:
            total += iv.length.as_fraction()
        return Dyadic.from_fraction(total)

    def contains(self, x):
        xq = x.as_fraction() if isinstance(x, Dyadic) else Fraction(x)
        i = bisect_right(self.parts, xq, key=_lo_fraction)
        return i > 0 and self.parts[i - 1].hi >= xq

    def translate(self, t):
        return OracleRegion((shifted(iv, t) for iv in self.parts), normalized=True)

    def scale_half(self):
        return OracleRegion((Interval.make(iv.lo.as_fraction() / 2, iv.hi.as_fraction() / 2)
                             for iv in self.parts), normalized=True)

    def bounding(self):
        if not self.parts:
            return None
        return Interval(self.parts[0].lo, self.parts[-1].hi)

    def distance_to_point(self, x):
        xq = x.as_fraction() if isinstance(x, Dyadic) else Fraction(x)
        i = bisect_right(self.parts, xq, key=_lo_fraction)
        best = None
        if i > 0:
            before = xq - self.parts[i - 1].hi.as_fraction()
            if before <= 0:
                return Fraction(0)
            best = before
        if i < len(self.parts):
            after = self.parts[i].lo.as_fraction() - xq
            if best is None or after < best:
                best = after
        return best


_KEEP = {
    "union": (False, True, True, True),
    "intersect": (False, False, False, True),
    "subtract": (False, False, True, False),
    "symmdiff": (False, True, True, False),
}


def _scaled_positive_parts(region, e):
    out = []
    for iv in region.parts:
        lo = iv.lo.num << (e - iv.lo.exp)
        hi = iv.hi.num << (e - iv.hi.exp)
        if lo < hi:
            out.append((lo, hi))
    return out


def oracle_combine(a, b, op):
    keep = _KEEP[op]
    e = _common_exp(a.parts + b.parts)
    pa = _scaled_positive_parts(a, e)
    pb = _scaled_positive_parts(b, e)
    cuts = sorted({x for part in pa + pb for x in part})
    if not cuts:
        return OracleRegion((), normalized=True)
    sentinel = (cuts[-1] + 1, cuts[-1] + 1)
    pa.append(sentinel)
    pb.append(sentinel)
    out = []
    ia = ib = 0
    run_lo = None
    for lo, hi in zip(cuts, cuts[1:]):
        while pa[ia][1] <= lo:
            ia += 1
        while pb[ib][1] <= lo:
            ib += 1
        if keep[2 * (pa[ia][0] <= lo) + (pb[ib][0] <= lo)]:
            if run_lo is None:
                run_lo = lo
            run_hi = hi
        elif run_lo is not None:
            out.append(Interval(Dyadic(run_lo, e), Dyadic(run_hi, e)))
            run_lo = None
    if run_lo is not None:
        out.append(Interval(Dyadic(run_lo, e), Dyadic(run_hi, e)))
    return OracleRegion(out, normalized=True)


def oracle_region_pieces(phi, region):
    keys = phi.keys[1:-1]
    n = len(keys)
    e = max([phi.exp] + [max(part.lo.exp, part.hi.exp) for part in region.parts])
    s, one = e - phi.exp, 1 << e
    pieces = []
    for part in region.parts:
        a = max(part.lo.num << (e - part.lo.exp), 0)
        b = min(part.hi.num << (e - part.hi.exp), one)
        c = bisect_right(keys, a >> s)
        while a < b:
            top = keys[c] << s if c < n else one
            hi = top if top < b else b
            pieces.append((c, a, hi))
            a, c = hi, c + 1
    return one, pieces


def oracle_region_arrays(region):
    lengths = np.array([float(p.length) for p in region.parts])
    cum = np.cumsum(lengths)
    los = np.array([float(p.lo) for p in region.parts])
    return cum, los


# -- regions and probes ---------------------------------------------------------------

# small numerators over exponents 0..4 land often on shared and touching endpoints
dyadics = st.builds(Dyadic, st.integers(-20, 20), st.integers(0, 4))


@st.composite
def intervals(draw):
    a = draw(dyadics)
    b = draw(st.one_of(st.just(a), dyadics))
    return Interval(a, b) if a <= b else Interval(b, a)


part_lists = st.lists(intervals(), max_size=7)


def shape(parts) -> list:
    return [(str(iv.lo), str(iv.hi)) for iv in parts]


def split(parts, k: int) -> list:
    """The same point set as the parts, each positive part cut into touching
    pieces at its points j/2^k of the way along, so finer endpoints appear."""
    out = []
    for iv in parts:
        if iv.lo == iv.hi:
            out.append(iv)
            continue
        lo, step = iv.lo.as_fraction(), iv.length.as_fraction() / (1 << k)
        cuts = [Dyadic.from_fraction(lo + step * j) for j in range(1 << k)] + [iv.hi]
        out.extend(Interval(a, b) for a, b in zip(cuts, cuts[1:]))
    return out


def probes(region) -> list:
    """Endpoints, part and gap middles, points just beside every endpoint at
    a finer dyadic exponent and at a non-dyadic offset, and a few Fractions."""
    fine = Fraction(1, 1 << (region.exp + 3))
    third = Fraction(1, 3 << region.exp)
    ends = sorted({e.as_fraction() for iv in region.parts for e in (iv.lo, iv.hi)})
    out = set(ends)
    out |= {(a + b) / 2 for a, b in zip(ends, ends[1:])}
    out |= {x + s for x in ends for s in (fine, -fine, third, -third)}
    out |= {Fraction(-7, 3), Fraction(0), Fraction(1, 5), Fraction(2, 3), Fraction(41, 7)}
    return sorted(out)


def assert_matches(got: Region, want: OracleRegion):
    assert got.parts == want.parts
    assert shape(got.parts) == shape(want.parts)
    # the columns are the parts at the smallest exponent they allow
    assert got.exp == _common_exp(want.parts)
    assert [Dyadic(a, got.exp) for a in got.lo] == [iv.lo for iv in want.parts]
    assert [Dyadic(b, got.exp) for b in got.hi] == [iv.hi for iv in want.parts]
    assert got.measure() == want.measure()
    assert got.is_empty() == (not want.parts)
    assert got.bounding() == want.bounding()
    assert format_region(got) == [[str(iv.lo), str(iv.hi)] for iv in want.parts]
    assert got == Region(want.parts) and hash(got) == hash(Region(want.parts))


@settings(max_examples=300, deadline=None)
@given(part_lists, st.integers(1, 3), dyadics)
def test_columns_match_interval_oracle(parts, k, t):
    r, o = Region(parts), OracleRegion(parts)
    assert_matches(r, o)
    # one point set, built at several exponents, is one region
    for same in (Region(split(parts, k)), Region(reversed(parts)),
                 Region(parts + [Interval(iv.lo, iv.lo) for iv in parts]),
                 r.translate(t).translate(Dyadic(-t.num, t.exp)),
                 Region(shifted(iv, t) for iv in parts).translate(Dyadic(-t.num, t.exp))):
        assert same == r and hash(same) == hash(r)
        assert (same.exp, same.lo, same.hi) == (r.exp, r.lo, r.hi)
    assert_matches(r.translate(t), o.translate(t))
    assert_matches(r.scale_half(), o.scale_half())
    for x in probes(r):
        assert r.contains(x) == o.contains(x), x
        if x.denominator & (x.denominator - 1) == 0:
            assert r.contains(Dyadic.from_fraction(x)) == o.contains(x), x
        if o.parts:
            want = o.distance_to_point(x)
            got = r.distance_to_point(x)
            assert got == want and type(got) is Fraction, x
            if x.denominator & (x.denominator - 1) == 0:
                assert r.distance_to_point(Dyadic.from_fraction(x)) == want, x


@settings(max_examples=300, deadline=None)
@given(part_lists, part_lists)
def test_combine_matches_interval_oracle(a_parts, b_parts):
    a, b = Region(a_parts), Region(b_parts)
    oa, ob = OracleRegion(a_parts), OracleRegion(b_parts)
    for op in OPS:
        assert_matches(region_combine(a, b, op), oracle_combine(oa, ob, op))


@st.composite
def step_integrands(draw):
    breaks = sorted(draw(st.sets(dyadics.filter(lambda d: 0 < d.as_fraction() < 1),
                                 max_size=6)), key=lambda d: d.as_fraction())
    breaks = [Dyadic(0)] + breaks + [Dyadic(1)]
    space = ValueSpace.findim(1)
    values = [VectorValue.coords(space, [Fraction(i)]) for i in range(len(breaks) - 1)]
    return IntegrandFn.step(space, breaks, values)


@settings(max_examples=300, deadline=None)
@given(step_integrands(), part_lists)
def test_cell_pieces_and_float_arrays_match_oracle(phi, parts):
    region, oracle = Region(parts), OracleRegion(parts)
    assert _region_pieces(phi, region) == oracle_region_pieces(phi, oracle)
    for got, want in zip(_region_arrays(region), oracle_region_arrays(oracle)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
