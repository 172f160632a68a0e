"""The integer region code against Fraction-keyed references.

`region_combine` sweeps integer-scaled endpoints, `Region` sorts and merges on
integer keys, `translate`/`scale_half` skip normalisation and
`distance_to_point` bisects.  Each is checked here against
`tests/reference.py`'s midpoint combine, Fraction-keyed merge and linear scan,
and against a renormalised image.  Regions are drawn with mixed exponents,
negative endpoints, degenerate and touching parts, and empty.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab.exact import Dyadic, Interval, Region, region_combine
from test_region_columns import OPS, intervals
import reference as ref

# small numerators over exponents 0..3 land often on shared endpoints
dyadics = st.builds(Dyadic, st.integers(-12, 12), st.integers(0, 3))
part_lists = st.lists(intervals(dyadics), max_size=7)


def shape(parts) -> list:
    return [(str(iv.lo), str(iv.hi)) for iv in parts]


def pair_shape(pairs) -> list:
    return [(str(Dyadic.from_fraction(lo)), str(Dyadic.from_fraction(hi))) for lo, hi in pairs]


@settings(max_examples=300, deadline=None)
@given(part_lists, part_lists)
def test_combine_matches_midpoint_oracle(a_parts, b_parts):
    a, b = Region(a_parts), Region(b_parts)
    for op in OPS:
        got = region_combine(a, b, op)
        assert shape(got.parts) == pair_shape(ref.combine(a_parts, b_parts, op)), op
        # the result is already normalised, with no degenerate part
        assert Region(got.parts) == got and all(iv.lo < iv.hi for iv in got.parts)


@settings(max_examples=300, deadline=None)
@given(part_lists)
def test_normalisation_matches_fraction_keyed_merge(parts):
    assert shape(Region(parts).parts) == pair_shape(ref.region(parts))
    assert shape(Region(reversed(parts)).parts) == pair_shape(ref.region(parts))


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
        want = ref.point_distance(parts, xq)
        got = r.distance_to_point(xq)
        assert got == want and type(got) is Fraction
        assert r.distance_to_point(Dyadic.from_fraction(xq)) == want
