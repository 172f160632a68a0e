"""The integer fit test and the integer bisection against Fraction references.

Every gauge answers `fits(t, d, e)`: is d/2^e <= delta(t/2^e)?  It is checked
here against delta worked out in Fractions straight from each kind's
definition, with non-dyadic widths (1/5, 1/12), tags on and next to
breakpoints, tag exponents below and above the breakpoints' own, and tags
outside [0,1]; so is each gauge's `level_set(k)`, the region where delta >= 2^-k.
`cousin_partition` and the sampled strategy's draw are checked against
`tests/reference.py`, the bisection given the Fraction-width fit test below,
and the lazy adapted schedule against the eager list of `adapted_gauge` calls.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab import integrate
from gaugelab.errors import MaxDepthExceeded
from gaugelab.exact import D0, D1, Dyadic, Interval, Region, UNIT
from gaugelab.gallery import example_3f
from gaugelab.gauges import (Gauge, TaggedInterval, TaggedPartition,
                             _sampled_tag, cousin_partition, is_subordinate, partition_to_json)
from gaugelab.integrands import adapted_gauge, poly_integrand, restrict_integrand
from gauge_draws import gauge_specs, make_gauge
from reference import cousin, sampled_tag

WIDTHS = [Fraction(1, 5), Fraction(1, 12), Fraction(1, 4), Fraction(3, 16), Fraction(1, 3),
          Fraction(1), Fraction(1, 1024), Fraction(5, 2)]
# exponents 0..6 with numerators reaching past both ends of [0,1]
dyadics = st.builds(Dyadic, st.integers(-40, 100), st.integers(0, 6))


# -- gauges and their widths in Fractions ----------------------------------------


# piecewise depths 0-6 with up to six interior breaks; proximity exponents
# 0-6 with up to six keys reaching past both ends of [0,1]
specs = gauge_specs(WIDTHS, depths=(0, 6), breaks=6, keys=(-40, 100), key_count=6,
                    exps=(0, 6))


def delta_of(spec, tq: Fraction) -> Fraction:
    """The gauge's width at tq, by its definition, in Fractions."""
    kind, params = spec
    if kind == "const":
        return params
    if kind == "piecewise":
        breaks, values = params
        return values[sum(1 for b in breaks[1:-1] if b.as_fraction() <= tq)]
    e, keys, cap, floor = params
    bps = [Fraction(k, 1 << e) for k in keys]
    if tq in bps:
        return floor
    return min([cap] + [abs(tq - b) for b in bps])


def breakpoints_of(spec) -> list:
    kind, params = spec
    if kind == "piecewise":
        return [D0, D1] + list(params[0])
    if kind == "proximity":
        return [D0, D1] + [Dyadic(k, params[0]) for k in params[1]]
    return [D0, D1]


@st.composite
def probes(draw, spec):
    """(t, d, e) with t/2^e often on or next to a breakpoint and d/2^e often
    within one step of the width there."""
    e = draw(st.integers(0, 12))
    if draw(st.booleans()):
        b = draw(st.sampled_from(breakpoints_of(spec)))
        s = e - b.exp
        t = (b.num << s if s >= 0 else b.num >> -s) + draw(st.integers(-2, 2))
    else:
        t = draw(st.integers(-(1 << e), 2 << e))
    if draw(st.booleans()):
        scaled = delta_of(spec, Fraction(t, 1 << e)) * (1 << e)
        d = max(0, scaled.numerator // scaled.denominator + draw(st.integers(-1, 1)))
    else:
        d = draw(st.integers(0, 1 << e))
    return t, d, e


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fit_test_matches_fraction_widths(data):
    spec = data.draw(specs)
    g = make_gauge(spec)
    for _ in range(12):
        t, d, e = data.draw(probes(spec))
        delta = delta_of(spec, Fraction(t, 1 << e))
        assert g.fits(t, d, e) == (Fraction(d, 1 << e) <= delta), (spec, t, d, e)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_is_subordinate_matches_fraction_walls(data):
    spec = data.draw(specs)
    g = make_gauge(spec)
    for _ in range(8):
        t, d, e = data.draw(probes(spec))
        tag = Dyadic(min(max(t, 0), 1 << e), e)  # tags of partitions lie in [0,1]
        tq = tag.as_fraction()
        delta = delta_of(spec, tq)
        # the interval may hold the tag or lie to either side of it
        lo = tq + Fraction(data.draw(st.integers(-d - 1, d + 1)), 1 << e)
        hi = lo + Fraction(data.draw(st.integers(0, 2 * d + 2)),
                           1 << (e + data.draw(st.integers(0, 2))))
        expect = tq - delta <= lo and hi <= tq + delta
        p = TaggedPartition([TaggedInterval(Interval.make(lo, hi), tag)])
        assert is_subordinate(p, g) == expect


@settings(max_examples=300, deadline=None)
@given(spec=specs, k=st.integers(0, 12))
def test_level_set_matches_fraction_widths(spec, k):
    """level_set(k) holds a point iff delta there is at least 2^-k.  Every
    edge of the set lies on the 2^-E grid, E the finest exponent among the
    gauge's data and k, so each cell of the 2^-(E+1) grid is inside or
    outside as a whole, and its midpoint decides which."""
    region = make_gauge(spec).level_set(k)
    n = 2 << max([k] + [b.exp for b in breakpoints_of(spec)])
    mids = [Fraction(2 * i + 1, 2 * n) for i in range(n)]
    inside = [region.contains(x) for x in mids]
    assert inside == [delta_of(spec, x) >= Fraction(1, 1 << k) for x in mids], (spec, k)
    # no part of the set lies outside [0,1]: its measure counts the cells
    assert region.measure().as_fraction() == Fraction(sum(inside), n)


# -- the bisection against the reference walk ------------------------------------


def oracle_fits(iv: Interval, tag: Dyadic, spec) -> bool:
    tq = tag.as_fraction()
    delta = delta_of(spec, tq)
    return tq - delta <= iv.lo.as_fraction() and iv.hi.as_fraction() <= tq + delta


def outcome(build):
    """The partition as JSON plus its subordination, or the error it raised."""
    try:
        p = build()
    except MaxDepthExceeded as exc:
        return type(exc).__name__, str(exc), getattr(exc, "interval", None)
    return partition_to_json(p), p


BASES = [UNIT, Interval(Dyadic(1, 2), Dyadic(3, 2)), Interval(Dyadic(3, 3), D1),
         Interval(Dyadic(1, 1), Dyadic(1, 1)), Interval(D1, D1),
         Interval(Dyadic(-1, 1), Dyadic(1, 1)), Interval(D1, Dyadic(3, 1)),
         Interval(Dyadic(3, 1), Dyadic(3, 1)), Interval(Dyadic(5, 4), Dyadic(13, 4))]


@settings(max_examples=250, deadline=None)
@given(spec=specs, strategy=st.sampled_from(["mid", "left", "sampled"]),
       base=st.sampled_from(BASES), seed=st.integers(0, 5), max_depth=st.integers(0, 9))
def test_cousin_partition_matches_fraction_bisection(spec, strategy, base, seed, max_depth):
    g = make_gauge(spec)
    kw = dict(tag_strategy=strategy, max_depth=max_depth, seed=seed, base=base)
    got = outcome(lambda: cousin_partition(g, **kw))
    want = outcome(lambda: TaggedPartition(
        cousin(lambda iv, tag: oracle_fits(iv, tag, spec), **kw)))
    assert got[0] == want[0]
    if isinstance(got[1], TaggedPartition):
        p, ref = got[1], want[1]
        assert [(it.interval, it.tag) for it in p] == [(it.interval, it.tag) for it in ref]
        assert is_subordinate(p, g) == all(oracle_fits(it.interval, it.tag, spec) for it in p)
    else:
        assert got[1:] == want[1:]


def test_cousin_partition_reports_the_first_failing_interval():
    # left tags on the base [-1/2, 1/2] lie outside [0,1] until depth 1 reaches 0
    with pytest.raises(MaxDepthExceeded) as exc:
        cousin_partition(Gauge.const(Fraction(1, 5)), tag_strategy="left", max_depth=0,
                         base=Interval(Dyadic(-1, 1), Dyadic(1, 1)))
    assert exc.value.interval == Interval(Dyadic(-1, 1), Dyadic(1, 1))
    assert str(exc.value) == "no fitting tag for [-1/2^1, 1/2^1] within depth 0"


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(dyadics, dyadics, st.integers(0, 1)), max_size=12))
def test_partition_order_matches_fraction_keys(triples):
    items = []
    for a, b, on_hi in triples:
        lo, hi = (a, b) if a <= b else (b, a)
        lo, hi = (lo, hi) if D0 <= lo and hi <= D1 else (D0, D1)
        items.append(TaggedInterval(Interval(lo, hi), hi if on_hi else lo))
    # equal lo with different hi, and exact duplicates, keep a stable order
    expect = sorted(items, key=lambda it: (it.interval.lo.as_fraction(),
                                           it.interval.hi.as_fraction()))
    assert [id(it) for it in TaggedPartition(items).items] == [id(it) for it in expect]


# -- the lazy adapted schedule ------------------------------------------------------


def adapted_cases():
    ramp = example_3f(4)["integrand"]
    poly = poly_integrand([[1, -2, 1], [0, 1]])
    region = Region.make((Fraction(1, 8), Fraction(5, 8)))
    return [ramp, poly, restrict_integrand(ramp, region), restrict_integrand(poly, region)]


@pytest.mark.parametrize("case", [0, 1, 2, 3, "auto"])
def test_lazy_adapted_schedule_matches_eager_list(case, monkeypatch):
    # "auto", the constant gauges 2^-k on the first integrand, is as lazy
    schedule = "auto" if case == "auto" else "adapted"
    phi = adapted_cases()[0 if case == "auto" else case]
    built = []
    if case == "auto":
        levels, const = range(6), Gauge.const
        eager = [const(Fraction(1, 1 << k)) for k in levels]

        def counted(value):
            built.append(value.denominator.bit_length() - 1)
            return const(value)
        monkeypatch.setattr(Gauge, "const", counted)
    else:
        levels = range(2, 8)
        eager = [adapted_gauge(phi, k) for k in levels]

        def counted(phi, level):
            built.append(level)
            return adapted_gauge(phi, level)
        monkeypatch.setattr(integrate, "adapted_gauge", counted)
    lazy = integrate._schedule_gauges(phi, schedule, 6)
    assert built == []
    gauges = list(lazy)
    assert built == list(levels)
    # the widths compared through the fit test: each probe tag, as an int at
    # exponent e, against every power-of-two half-width 2^(j-e)
    e = 40
    probes = [k << (e - 6) for k in range(65)] + [b.num << (e - b.exp) for b in phi.breaks]
    for got, want in zip(gauges, eager, strict=True):
        assert got.descriptor == want.descriptor
        assert ([got.fits(t, 1 << j, e) for t in probes for j in range(e + 1)]
                == [want.fits(t, 1 << j, e) for t in probes for j in range(e + 1)])
    # a run builds only the levels it reaches
    built.clear()
    est = integrate.mcshane_integrate(phi, schedule=schedule, tol=Fraction(1, 16), max_levels=6)
    assert built == list(levels)[:len(est.trace)]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10**9), e=st.integers(0, 80), data=st.data())
def test_sampled_tag_is_the_random_module_draw(seed, e, data):
    """Each sampled tag, at any exponent its node is written at, is the reference draw."""
    lo = data.draw(st.integers(-(1 << (e + 1)), 1 << (e + 1)))
    hi = lo + data.draw(st.one_of(st.integers(1, 8), st.integers(1, 1 << (e + 1))))
    want = sampled_tag(seed, Interval(Dyadic(lo, e), Dyadic(hi, e)))
    for _ in range(2):  # memoized: a second call returns the same triple
        assert _sampled_tag(seed, lo, hi, e) == want
