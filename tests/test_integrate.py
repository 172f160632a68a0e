"""Gauge-limit, pairing, empirical-mean and simple-function integrators."""

import subprocess
import sys
from fractions import Fraction

import pytest

from gaugelab import integrate
from gaugelab.errors import MaxDepthExceeded, UnsupportedExactIntegration
from gaugelab.exact import D0, D1, Dyadic, Interval, Region, UNIT_REGION
from gaugelab.gallery import example_3f
from gaugelab.gauges import (Gauge, TaggedInterval, TaggedPartition, cousin_partition,
                             is_partition, is_subordinate)
from gaugelab.integrands import (IntegrandFn, exact_vector_integral, identity_integrand,
                                 poly_integrand, restrict_integrand)
from gaugelab.integrate import (DEFAULT_TOL, BochnerCertificate,
                                NotApproximable, absolute_continuity,
                                bochner_integrate, default_functionals,
                                indefinite_integral,
                                interval_series_check, lower_norm_integral,
                                mcshane_integrate, pettis_check, riemann_sum,
                                sample_regions, talagrand_integrate, vitali_limit)
from gaugelab.rng import stream
from gaugelab.spaces import DualFunctional, ValueSpace, VectorValue, distance
import reference as ref

HALF = Dyadic(1, 1)


def two_cell_step():
    space = ValueSpace.findim(2, "l2")
    values = (VectorValue.coords(space, [1, 0]), VectorValue.coords(space, [0, 3]))
    return IntegrandFn.step(space, (D0, HALF, D1), values, label="two-cell")


def spike(n: int) -> IntegrandFn:
    """2^n on [0, 2^-n): unit mass escaping to a null set."""
    space = ValueSpace.findim(1, "l2")
    if n == 0:
        return IntegrandFn.step(space, (D0, D1), (VectorValue.coords(space, [1]),))
    values = (VectorValue.coords(space, [1 << n]), VectorValue.coords(space, [0]))
    return IntegrandFn.step(space, (D0, Dyadic(1, n), D1), values, label=f"spike-{n}")


def zero_integrand() -> IntegrandFn:
    space = ValueSpace.findim(1, "l2")
    return IntegrandFn.step(space, (D0, D1), (VectorValue.coords(space, [0]),), label="zero")


def test_riemann_sum_free_tags():
    phi = two_cell_step()
    # both tags deliberately outside their intervals (McShane tags)
    p = TaggedPartition((
        TaggedInterval(Interval(D0, HALF), Dyadic(3, 2)),
        TaggedInterval(Interval(HALF, D1), Dyadic(1, 2)),
    ))
    s = riemann_sum(phi, p)
    # both tags read the second cell's value (3/4 and 1/4 are >= 1/2... 1/4 is not)
    assert s.data == (Fraction(1, 2) * 0 + Fraction(1, 2) * 1, Fraction(1, 2) * 3)


def test_mcshane_converges_honestly_on_square():
    phi = poly_integrand([[Fraction(0), Fraction(0), Fraction(1)]], label="t^2")
    est = mcshane_integrate(phi, schedule="auto", tol=Fraction(1, 1 << 8), seed=2)
    assert est.status == "converged"
    assert abs(est.value.data[0] - Fraction(1, 3)) <= Fraction(1, 1 << 8)
    oscs = [Fraction(row["oscillation"]) for row in est.trace]
    assert oscs[-1] < oscs[0]
    # the level-0 sum must genuinely disagree across tag strategies
    assert oscs[0] > Fraction(1, 16)


def test_mcshane_step_exact_on_adapted_schedule():
    phi = two_cell_step()
    est = mcshane_integrate(phi, schedule="adapted", seed=5)
    assert est.converged
    assert est.value.data == (Fraction(1, 2), Fraction(3, 2))
    assert est.oscillation == 0


def test_mcshane_validates_trials():
    with pytest.raises(ValueError):
        mcshane_integrate(two_cell_step(), trials_per_level=1)


def test_mcshane_explicit_gauge_schedule():
    phi = identity_integrand()
    sched = [Gauge.const(Fraction(1, 1 << k)) for k in (2, 4, 6)]
    est = mcshane_integrate(phi, schedule=sched, tol=Fraction(1, 8), seed=1)
    assert abs(est.value.data[0] - Fraction(1, 2)) < Fraction(1, 8)


def test_mcshane_floor_needs_two_flat_ratios():
    # a jump at 1/4 under the same constant gauge at every level: the
    # oscillation stays 1/4, no level improves, a genuine floor
    space = ValueSpace.findim(1, "l2")
    jump = IntegrandFn.step(space, (D0, Dyadic(1, 2), D1),
                            (VectorValue.coords(space, [0]), VectorValue.coords(space, [1])))
    flat = mcshane_integrate(jump, schedule=[Gauge.const(Fraction(1, 4))] * 4, tol=DEFAULT_TOL)
    assert [row["oscillation"] for row in flat.trace] == ["1/4"] * 4
    assert flat.status == "oscillation-floor"
    # about halving at every level is steady convergence that ran out of
    # levels, even where one level keeps just over half (the last one here)
    steady = mcshane_integrate(identity_integrand(), schedule="adapted",
                               tol=Fraction(1, 1 << 20), max_levels=8, seed=1)
    oscs = [Fraction(row["oscillation"]) for row in steady.trace]
    assert all(4 * b < 3 * a for a, b in zip(oscs, oscs[1:]))
    assert 2 * oscs[-1] >= oscs[-2]
    assert steady.status == "max-level"


def test_depth_cap_counts_only_where_the_integrand_can_be_nonzero():
    # the gauge is 2^-80 on [0, 1/2), where phi vanishes: a full partition
    # needs depth 79 there, but only [1/2, 1] is bisected
    phi = restrict_integrand(example_3f(4)["integrand"], Region.make((HALF, D1)))
    g = Gauge.piecewise([D0, HALF, D1], [Fraction(1, 1 << 80), Fraction(1, 4)])
    with pytest.raises(MaxDepthExceeded) as exc:
        cousin_partition(g, max_depth=60)
    assert exc.value.interval == Interval(D0, Dyadic(1, 60))
    est = mcshane_integrate(phi, schedule=[g], seed=3)
    assert len(est.trace) == 1
    # the level stops at trial 1, left, once it spreads past tol
    p = cousin_partition(g, tag_strategy="left", max_depth=60, seed=3 * 100003 + 1,
                         support=phi.support())
    assert is_partition(p, Interval(HALF, D1)) and is_subordinate(p, g)
    assert est.value == riemann_sum(phi, p)


@pytest.mark.parametrize("phi", [two_cell_step(), example_3f(3)["integrand"],
                                 identity_integrand()], ids=["coords", "step", "poly"])
def test_integrand_vanishing_everywhere_builds_no_partition(phi, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("cousin_partition called")
    monkeypatch.setattr(integrate, "cousin_partition", refuse)
    nothing = restrict_integrand(phi, Region.empty())
    assert nothing.support().is_empty()
    est = mcshane_integrate(nothing)
    assert est.converged
    assert [row["oscillation"] for row in est.trace] == ["0"]
    assert est.value == VectorValue.zero(phi.space)


def test_indefinite_integral_additive():
    phi = identity_integrand()
    left = Region((Interval(D0, HALF),))
    right = Region((Interval(HALF, D1),))
    a = indefinite_integral(phi, left, tol=Fraction(1, 1 << 12), seed=3)
    b = indefinite_integral(phi, right, tol=Fraction(1, 1 << 12), seed=4)
    total = a.value + b.value
    assert abs(total.data[0] - Fraction(1, 2)) <= Fraction(1, 1 << 10)


def test_pettis_check_passes_and_guards_norm():
    phi = two_cell_step()
    fs = [DualFunctional.coordinate(phi.space, 0), DualFunctional.coordinate(phi.space, 1)]
    regions = [UNIT_REGION, Region((Interval(D0, HALF),)), Region((Interval(Dyadic(1, 2), Dyadic(3, 2)),))]
    out = pettis_check(phi, fs, regions)
    assert out["pass"]
    assert out["max_residual"] <= out["tol"]
    assert out["n_functionals"] == 2 and out["n_regions"] == 3
    big = DualFunctional.combination(phi.space, [Fraction(5), Fraction(0)])
    with pytest.raises(ValueError):
        pettis_check(phi, [big], regions)


def test_pairing_checks_integrate_each_integrand_and_region_once(monkeypatch):
    """pettis_check and vitali_limit work out one closed-form vector
    integral per (integrand, region) and apply every functional to it, never
    one integral per functional."""
    calls = []

    def counted(phi, region=UNIT_REGION):
        calls.append((phi, region))
        return exact_vector_integral(phi, region)

    monkeypatch.setattr(integrate, "exact_vector_integral", counted)

    def pairs():
        # the integrands and regions stay alive in `calls`, so ids are unique
        return {(id(phi), id(region)) for phi, region in calls}

    phi = two_cell_step()
    fs = [DualFunctional.coordinate(phi.space, 0), DualFunctional.coordinate(phi.space, 1),
          DualFunctional.combination(phi.space, [Fraction(1, 2), Fraction(-1, 2)])]
    regions = [UNIT_REGION, Region((Interval(D0, HALF),)), Region((Interval(Dyadic(1, 2), D1),))]
    pettis_check(phi, fs, regions)
    assert len(calls) == len(regions)

    calls.clear()
    line = ValueSpace.findim(1, "l2")
    gs = [DualFunctional.coordinate(line, 0), DualFunctional.combination(line, [Fraction(-1, 2)])]
    vitali_limit(spike, zero_integrand(), gs, regions, n_max=8)
    # H2 over n = 4..8 for each region, then C's one integral of phi_8
    assert len(calls) == len(pairs()) == len(regions) * 5 + 1


def test_interval_series_check_geometric_blocks():
    phi = identity_integrand()
    blocks = [
        Region((Interval(Dyadic(1, i + 1), Dyadic(1, i)),)) for i in range(10)
    ]
    out = interval_series_check(phi, blocks)
    assert out["pass"], out["tail_max"]
    # partial sums approach 1/2 from below
    last = out["partials"][-1]
    assert abs(last.data[0] - Fraction(1, 2)) < Fraction(1, 100)


@pytest.mark.parametrize("window_start", [-1, 3, 99])
def test_interval_series_check_rejects_empty_window(window_start):
    blocks = [Region((Interval(Dyadic(1, i + 1), Dyadic(1, i)),)) for i in range(3)]
    with pytest.raises(ValueError, match="window start"):
        interval_series_check(identity_integrand(), blocks, window_start=window_start)
    with pytest.raises(ValueError, match="window start"):
        interval_series_check(identity_integrand(), [])


def test_absolute_continuity_monotone_and_linear():
    phi = identity_integrand()
    etas = [Fraction(1, 16), Fraction(1, 4), Fraction(1)]
    out = absolute_continuity(phi, etas, regions_per_eta=6, seed=2)
    rows = out["rows"]
    assert [r["eta"] for r in rows] == etas
    assert rows[0]["modulus"] <= rows[1]["modulus"] <= rows[2]["modulus"]
    for r in rows:
        assert r["modulus"] <= 1 * r["eta"] + 2 * DEFAULT_TOL


def test_lower_norm_integral_identity_closed_form():
    phi = identity_integrand()
    # per cell [i/256,(i+1)/256]: certified bound max(0, i/256 - 1/256)
    # (endpoint minimum minus the Lipschitz slack), summed over 256 cells
    expect = sum(Fraction(max(0, i - 1), 256) * Fraction(1, 256) for i in range(256))
    assert lower_norm_integral(phi, grid_depth=8) == expect
    assert abs(expect - Fraction(1, 2)) < Fraction(1, 100)
    phi2 = two_cell_step()
    assert lower_norm_integral(phi2, grid_depth=4) == Fraction(1, 2) * 1 + Fraction(1, 2) * 3


@pytest.mark.parametrize("depth", [-1, 17, 40])
def test_lower_norm_integral_rejects_depth_outside_grid_range(depth):
    with pytest.raises(ValueError, match="0..16"):
        lower_norm_integral(identity_integrand(), grid_depth=depth)


def test_talagrand_exact_counting_path():
    phi = two_cell_step()
    rep = talagrand_integrate(phi, seed=11, n=4000, batches=10)
    assert len(rep.means) == 10
    exact = exact_vector_integral(phi)
    assert distance(rep.pooled, exact).hi < Fraction(1, 10)
    rep2 = talagrand_integrate(phi, seed=11, n=4000, batches=10)
    assert rep2.pooled.data == rep.pooled.data
    assert rep2.spread == rep.spread


def test_talagrand_identity_pooled_mean_is_exact():
    # the pooled mean is the mean of the samples themselves, each k / 2^53
    phi = identity_integrand()
    rep = talagrand_integrate(phi, seed=7, n=1000, batches=5)
    samples = [Fraction(u) for b in range(5) for u in stream(7, b + 1).random(1000).tolist()]
    assert rep.pooled.data == ref.empirical(phi, samples)[0]
    assert abs(rep.pooled.data[0] - Fraction(1, 2)) < Fraction(1, 50)
    # a polynomial's variance is taken in l2 only
    with pytest.raises(ValueError, match="l2"):
        talagrand_integrate(poly_integrand([[0, 1]], norm="l1"), n=10, batches=1)


def test_bochner_step_certificate_is_exact():
    phi = two_cell_step()
    cert = bochner_integrate(phi, Fraction(1, 100))
    assert isinstance(cert, BochnerCertificate)
    assert cert.dominator_integral == 0
    assert cert.value.data == (Fraction(1, 2), Fraction(3, 2))
    assert cert.n_parts == 2


def test_bochner_poly_certificate_dominated():
    phi = identity_integrand()
    eps = Fraction(1, 1 << 6)
    cert = bochner_integrate(phi, eps)
    assert cert.dominator_integral <= eps
    assert abs(cert.value.data[0] - Fraction(1, 2)) <= cert.dominator_integral


def test_bochner_poly_refuses_over_budget_before_allocating():
    # eps = 0 needs depth 30, i.e. 2^30 pieces; the refusal must come before
    # any cut is built, so the child runs under an address-space cap
    code = (
        "import resource, tracemalloc\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from gaugelab.errors import UnsupportedExactIntegration\n"
        "from gaugelab.integrands import identity_integrand\n"
        "from gaugelab.integrate import bochner_integrate\n"
        "tracemalloc.start()\n"
        "try:\n"
        "    bochner_integrate(identity_integrand(), 0, max_pieces=64)\n"
        "except UnsupportedExactIntegration as exc:\n"
        "    print(exc)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    message, peak = proc.stdout.strip().splitlines()
    assert f"needs {1 << 30} pieces" in message and "budget is 64" in message
    assert int(peak) < 1 << 20


def test_bochner_refuses_separated_values():
    space = ValueSpace.findim(1, "l2")
    phi = IntegrandFn.step(
        space, (D0, D1), (VectorValue.coords(space, [1]),),
        metadata={"separation": Fraction(1), "separation_cell_measure": Fraction(1, 256)},
    )
    out = bochner_integrate(phi, Fraction(1, 100), max_pieces=64)
    assert isinstance(out, NotApproximable)
    assert out.lower_bound == Fraction(1, 2) * (1 - Fraction(64, 256))
    assert out.piece_budget == 64


def test_vitali_constant_sequence_passes():
    phi = identity_integrand()
    fs = [DualFunctional.coordinate(phi.space, 0)]
    out = vitali_limit(lambda n: phi, phi, fs, [UNIT_REGION], n_max=6)
    assert out["h1"]["pass"] and out["h2"]["pass"]
    assert out["pass"], out["c"]


@pytest.mark.parametrize("n_max", [-1, 0, 1])
def test_vitali_refuses_a_window_of_one_term(n_max):
    # one term has no pair to compare, so H2 would pass on nothing
    phi = identity_integrand()
    fs = [DualFunctional.coordinate(phi.space, 0)]
    with pytest.raises(ValueError, match="no pair of terms"):
        vitali_limit(lambda n: phi, phi, fs, [UNIT_REGION], n_max=n_max)


def test_vitali_flags_escaping_spike():
    fs = [DualFunctional.coordinate(ValueSpace.findim(1, "l2"), 0)]
    regions = [UNIT_REGION, Region((Interval(Dyadic(1, 2), D1),))]
    out = vitali_limit(spike, zero_integrand(), fs, regions, n_max=16)
    # mass parks on [0, 2^-n]: the sampled hypotheses look fine but the
    # integrals refuse to follow the pointwise limit
    assert out["h1"]["pass"]
    assert not out["pass"]
    assert out["c"]["pass"] is False


def test_default_functionals_unit_ball():
    space = ValueSpace.findim(4, "l2")
    fs = default_functionals(space, 7, seed=3)
    assert len(fs) == 7
    assert all(f.norm_bound <= 1 for f in fs)
    step_space = ValueSpace.step_linf(4)
    gs = default_functionals(step_space, 6, seed=3)
    assert len(gs) == 6
    assert all(g.norm_bound <= 1 for g in gs)


def test_sample_regions_respects_cap():
    cap = Fraction(3, 16)
    regions = sample_regions(12, seed=9, max_measure=cap)
    assert len(regions) == 12
    for r in regions:
        mu = r.measure().as_fraction()
        assert 0 < mu <= cap
        assert r.bounding().lo >= D0 and r.bounding().hi <= D1


def test_sample_regions_meets_the_smallest_bound():
    # 2^-52 is one cell of the grid a drawn part is trimmed on
    cap = Fraction(1, 1 << 52)
    regions = sample_regions(6, seed=9, max_measure=cap)
    assert [r.measure().as_fraction() for r in regions] == [cap] * 6


@pytest.mark.parametrize("cap", [Fraction(0), Fraction(-1, 4), Fraction(1, 1 << 53)])
def test_sample_regions_rejects_bound_no_region_meets(cap):
    with pytest.raises(ValueError, match="positive measure bound"):
        sample_regions(4, seed=0, max_measure=cap)

