"""Regions as int columns against `tests/reference.py`.

`Region` holds its parts as sorted int columns `lo` and `hi` at one reduced
exponent `exp`, and `region_combine`, the point lookups, `translate`,
`scale_half`, `integrands._region_pieces` and `stability._region_arrays` read
the columns.  They are checked against the reference's regions (sorted,
merged Fraction pairs, combined by gap midpoints, looked up by linear scan),
its cell overlaps, and float arrays made from those Fraction pairs.

Regions have mixed exponents, negative endpoints, degenerate and touching
parts, and none.  The same point set built at different exponents must give
equal columns, `==` and `hash`.  Lookups are probed at endpoints, interior
points, points just beside the endpoints and non-dyadic Fractions.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab.exact import Dyadic, Interval, Region, format_region, region_combine
from gaugelab.integrands import IntegrandFn, _region_pieces
from gaugelab.spaces import ValueSpace, VectorValue
from gaugelab.stability import _region_arrays
import reference as ref

OPS = ("union", "intersect", "subtract", "symmdiff")


def shifted(iv, t):
    """iv + t, worked out in Fractions."""
    tq = t.as_fraction()
    return Interval.make(iv.lo.as_fraction() + tq, iv.hi.as_fraction() + tq)


def oracle_region_arrays(parts):
    pairs = ref.region(parts)
    cum = np.cumsum(np.array([float(hi - lo) for lo, hi in pairs]))
    return cum, np.array([float(lo) for lo, _ in pairs])


# -- regions and probes ---------------------------------------------------------------

# small numerators over exponents 0..4 land often on shared and touching endpoints
dyadics = st.builds(Dyadic, st.integers(-20, 20), st.integers(0, 4))


@st.composite
def intervals(draw, ends=dyadics):
    a = draw(ends)
    b = draw(st.one_of(st.just(a), ends))
    return Interval(a, b) if a <= b else Interval(b, a)


part_lists = st.lists(intervals(), max_size=7)


def split(parts, k: int) -> list:
    """The same point set as the parts, each positive part cut into touching
    pieces at its points j/2^k of the way along, so finer endpoints appear."""
    out = []
    for iv in parts:
        if iv.lo == iv.hi:
            out.append(iv)
            continue
        lo = iv.lo.as_fraction()
        step = (iv.hi.as_fraction() - lo) / (1 << k)
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


def assert_matches(got: Region, want: list):
    """got is the region of the reference's Fraction pairs, in columns at the
    smallest exponent they allow."""
    ends = [x for part in want for x in part]
    e, keys = ref.grid(ends)
    assert (got.exp, got.lo, got.hi) == (e, tuple(keys[::2]), tuple(keys[1::2]))
    intervals = [Interval.make(lo, hi) for lo, hi in want]
    assert got.parts == tuple(intervals)
    assert format_region(got) == [[str(iv.lo), str(iv.hi)] for iv in intervals]
    assert got.measure().as_fraction() == sum(hi - lo for lo, hi in want)
    assert got.is_empty() == (not want)
    assert got.bounding() == (Interval.make(want[0][0], want[-1][1]) if want else None)
    assert got == Region(intervals) and hash(got) == hash(Region(intervals))


@settings(max_examples=300, deadline=None)
@given(part_lists, st.integers(1, 3), dyadics)
def test_columns_match_interval_oracle(parts, k, t):
    r, want = Region(parts), ref.region(parts)
    assert_matches(r, want)
    # one point set, built at several exponents, is one region
    for same in (Region(split(parts, k)), Region(reversed(parts)),
                 Region(parts + [Interval(iv.lo, iv.lo) for iv in parts]),
                 r.translate(t).translate(Dyadic(-t.num, t.exp)),
                 Region(shifted(iv, t) for iv in parts).translate(Dyadic(-t.num, t.exp))):
        assert same == r and hash(same) == hash(r)
        assert (same.exp, same.lo, same.hi) == (r.exp, r.lo, r.hi)
    tq = t.as_fraction()
    assert_matches(r.translate(t), ref.region((lo + tq, hi + tq) for lo, hi in want))
    assert_matches(r.scale_half(), ref.region((lo / 2, hi / 2) for lo, hi in want))
    for x in probes(r):
        inside = ref.contains(want, x)
        assert r.contains(x) == inside, x
        if x.denominator & (x.denominator - 1) == 0:
            assert r.contains(Dyadic.from_fraction(x)) == inside, x
        if want:
            away = ref.point_distance(want, x)
            got = r.distance_to_point(x)
            assert got == away and type(got) is Fraction, x
            if x.denominator & (x.denominator - 1) == 0:
                assert r.distance_to_point(Dyadic.from_fraction(x)) == away, x


@settings(max_examples=300, deadline=None)
@given(part_lists, part_lists)
def test_combine_matches_interval_oracle(a_parts, b_parts):
    a, b = Region(a_parts), Region(b_parts)
    for op in OPS:
        assert_matches(region_combine(a, b, op), ref.combine(a_parts, b_parts, op))


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
    den, pieces = _region_pieces(phi, Region(parts))
    assert [(c, Fraction(a, den), Fraction(b, den)) for c, a, b in pieces] == \
        ref.overlaps(phi, parts)
    for got, want in zip(_region_arrays(Region(parts)), oracle_region_arrays(parts)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
