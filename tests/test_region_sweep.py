"""The integer sweep of the exact layer against Fraction-keyed references.

`region_combine` sweeps integer-scaled endpoints, `Region` sorts and merges on
integer keys, `translate`/`scale_half` skip normalisation and
`distance_to_point` bisects.  Each is checked here against the plain route it
replaced: midpoint membership over Fraction cuts, a Fraction-keyed merge, a
renormalised image and a linear scan.  Regions are drawn with mixed
exponents, negative endpoints, degenerate and touching parts, and empty.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab.exact import Dyadic, Interval, Region, region_combine

OPS = ("union", "intersect", "subtract", "symmdiff")

# small numerators over exponents 0..3 land often on shared endpoints
dyadics = st.builds(Dyadic, st.integers(-12, 12), st.integers(0, 3))


@st.composite
def intervals(draw):
    a = draw(dyadics)
    b = draw(st.one_of(st.just(a), dyadics))
    return Interval(a, b) if a <= b else Interval(b, a)


part_lists = st.lists(intervals(), max_size=7)


def reference_parts(parts) -> tuple:
    """Region normalisation keyed on Fractions: sort, then merge what touches."""
    merged = []
    for iv in sorted(parts, key=lambda p: (p.lo.as_fraction(), p.hi.as_fraction())):
        if merged and iv.lo.as_fraction() <= merged[-1].hi.as_fraction():
            if iv.hi.as_fraction() > merged[-1].hi.as_fraction():
                merged[-1] = Interval(merged[-1].lo, iv.hi)
        else:
            merged.append(iv)
    return tuple(merged)


def scan_contains(parts, xq: Fraction) -> bool:
    return any(p.lo.as_fraction() <= xq <= p.hi.as_fraction() for p in parts)


def midpoint_combine(a: Region, b: Region, op: str) -> tuple:
    """Set algebra by membership of each gap's midpoint, as Fractions."""
    pa = reference_parts(iv for iv in a.parts if iv.lo < iv.hi)
    pb = reference_parts(iv for iv in b.parts if iv.lo < iv.hi)
    cuts = sorted({e.as_fraction() for iv in pa + pb for e in (iv.lo, iv.hi)})
    out = []
    for lo_q, hi_q in zip(cuts, cuts[1:]):
        mid = (lo_q + hi_q) / 2
        in_a = scan_contains(pa, mid)
        in_b = scan_contains(pb, mid)
        keep = {
            "union": in_a or in_b,
            "intersect": in_a and in_b,
            "subtract": in_a and not in_b,
            "symmdiff": in_a != in_b,
        }[op]
        if keep:
            out.append(Interval(Dyadic.from_fraction(lo_q), Dyadic.from_fraction(hi_q)))
    return reference_parts(out)


def shape(parts) -> list:
    return [(str(iv.lo), str(iv.hi)) for iv in parts]


@settings(max_examples=300, deadline=None)
@given(part_lists, part_lists)
def test_combine_matches_midpoint_oracle(a_parts, b_parts):
    a, b = Region(a_parts), Region(b_parts)
    for op in OPS:
        got = region_combine(a, b, op)
        assert shape(got.parts) == shape(midpoint_combine(a, b, op)), op
        # the result is already normalised
        assert shape(Region(got.parts).parts) == shape(got.parts)
        assert all(iv.lo < iv.hi for iv in got.parts)


@settings(max_examples=300, deadline=None)
@given(part_lists)
def test_normalisation_matches_fraction_keyed_merge(parts):
    assert shape(Region(parts).parts) == shape(reference_parts(parts))
    assert shape(Region(reversed(parts)).parts) == shape(reference_parts(parts))


@settings(max_examples=200, deadline=None)
@given(part_lists, dyadics)
def test_monotone_images_equal_renormalised_images(parts, t):
    r = Region(parts)
    moved = r.translate(t)
    tq = t.as_fraction()
    expect = Region(Interval.make(iv.lo.as_fraction() + tq, iv.hi.as_fraction() + tq)
                    for iv in r.parts)
    assert moved == expect
    assert shape(moved.parts) == shape(expect.parts)
    halved = r.scale_half()
    expect = Region(Interval.make(iv.lo.as_fraction() / 2, iv.hi.as_fraction() / 2)
                    for iv in r.parts)
    assert shape(halved.parts) == shape(expect.parts)


@settings(max_examples=200, deadline=None)
@given(part_lists.filter(bool), st.lists(dyadics, max_size=6))
def test_distance_to_point_matches_linear_scan(parts, extra):
    r = Region(parts)
    points = {d.as_fraction() for d in extra}
    points |= {e.as_fraction() + s for iv in r.parts for e in (iv.lo, iv.hi)
               for s in (Fraction(-1, 32), Fraction(0), Fraction(1, 32))}
    for xq in sorted(points):
        want = min(
            Fraction(0) if iv.lo.as_fraction() <= xq <= iv.hi.as_fraction()
            else min(abs(iv.lo.as_fraction() - xq), abs(xq - iv.hi.as_fraction()))
            for iv in r.parts
        )
        got = r.distance_to_point(xq)
        assert got == want and type(got) is Fraction
        assert r.distance_to_point(Dyadic.from_fraction(xq)) == want
