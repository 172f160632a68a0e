"""Acceptance suite: one test per shipped guarantee, each printing a single
PASS/FAIL line.  These are the checks the package promises to hold at the
stated tolerances and runtime caps; nothing here may be weakened without a
ledger entry."""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from gaugelab import (
    Dyadic,
    FunctionFamily,
    Gauge,
    IntegrandFn,
    Interval,
    Region,
    SearchExhausted,
    UNIT,
    UNIT_REGION,
    VectorValue,
    ValueSpace,
    absolute_continuity,
    build_A_family,
    build_fat_set,
    cousin_partition,
    default_functionals,
    example_3f,
    example_3g,
    exact_vector_integral,
    harmonic_half,
    identity_integrand,
    interval_series_check,
    is_partition,
    is_subordinate,
    lower_norm_integral,
    mcshane_integrate,
    oscillation_witness_3e,
    pairsum_z_bound,
    parse_region,
    partition_from_json,
    partition_to_json,
    pettis_check,
    poly_integrand,
    region_intersect,
    region_subtract,
    region_union,
    sample_regions,
    sqrt_enclosure,
    talagrand_integrate,
    truncation_cover,
    truncation_sequence,
    vitali_limit,
    z_measure_mc,
)
from gaugelab.integrate import riemann_sum
from gaugelab.spaces import distance
from gaugelab.stability import ZQuery, family_from_integrand

TOL10 = Fraction(1, 1 << 10)
TOL12 = Fraction(1, 1 << 12)


def _verdict(num: int, name: str, problems: list):
    status = "FAIL" if problems else "PASS"
    print(f"acceptance {num:02d} [{name}]: {status}")
    assert not problems, f"criterion {num}: {problems}"


def _check(problems: list, ok: bool, msg: str):
    if not ok:
        problems.append(msg)


def test_criterion_01_cli_integrates_harmonic_blocks():
    """CLI integration of the 16-block harmonic integrand hits every
    coordinate within 2^-12, in under 10 seconds end to end."""
    problems = []
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "gaugelab.cli", "integrate", "--fn", "3g",
         "--R", "16", "--tol", "2^-12", "--seed", "7"],
        capture_output=True, text=True, timeout=60,
    )
    elapsed = time.monotonic() - t0
    _check(problems, proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr}")
    if proc.returncode == 0:
        doc = json.loads(proc.stdout)
        coords = [Fraction(c) for c in doc["result"]["value"]["coords"]]
        _check(problems, len(coords) == 16, f"{len(coords)} coords")
        for n, c in enumerate(coords):
            err = abs(c - Fraction(1, 2 * (n + 1)))
            _check(problems, err <= TOL12, f"coord {n} err {float(err):.2e}")
    _check(problems, elapsed < 10, f"{elapsed:.1f}s >= 10s")
    _verdict(1, "cli harmonic coordinates within 2^-12", problems)


def test_criterion_02_lower_darboux_grows_past_two():
    """The certified lower Darboux norm sum is monotone in the block count
    and exceeds 2 at 55 blocks (while the vector integral stays bounded)."""
    problems = []
    vals = []
    for N in (5, 10, 20, 31, 40, 55):
        low = lower_norm_integral(example_3g(N)["integrand"], grid_depth=8)
        _check(problems, low == harmonic_half(N), f"N={N} not the closed form")
        vals.append(low)
    _check(problems, all(a < b for a, b in zip(vals, vals[1:])), "not monotone")
    _check(problems, vals[-1] > 2, f"55-block value {float(vals[-1])} <= 2")
    _verdict(2, "lower norm sums monotone, exceed 2 at 55 blocks", problems)


def test_criterion_03_dual_pairing_consistency():
    """Gauge-route region integrals agree with exact scalar antiderivatives
    under 20 functionals x 20 regions for all three integrand classes,
    max residual <= 2^-10, under 30 seconds total."""
    problems = []
    t0 = time.monotonic()
    regions = sample_regions(20, seed=1)
    cases = [
        ("indicator-ramp", example_3f(6)["integrand"]),
        ("harmonic-truncation",
         truncation_sequence(example_3g(8)["integrand"], truncation_cover(8))(5)),
        ("poly", poly_integrand([[Fraction(1), Fraction(-2), Fraction(1)],
                                 [Fraction(0), Fraction(1)]], label="poly2")),
    ]
    for name, phi in cases:
        fs = default_functionals(phi.space, 20, seed=0)
        out = pettis_check(phi, fs, regions, tol=TOL10, seed=0, inner_tol=TOL10)
        _check(problems, out["pass"], f"{name} failed")
        _check(problems, out["max_residual"] <= TOL10,
               f"{name} residual {float(out['max_residual']):.2e}")
    elapsed = time.monotonic() - t0
    _check(problems, elapsed < 30, f"{elapsed:.1f}s >= 30s")
    _verdict(3, "pettis pairing residuals within 2^-10", problems)


def test_criterion_04_series_tails_and_modulus():
    """Late-window series fluctuation matches the closed-form coordinate
    tail within 2^-10; absolute-continuity moduli are nondecreasing and
    linearly bounded for sup-bounded integrands."""
    problems = []
    g = example_3g(12)
    blocks = truncation_cover(13)[:12]
    out = interval_series_check(g["integrand"], blocks, tol=TOL10, seed=0)
    w = out["window_start"]
    tail_sq = sum((c * c for c in g["coordinates"][w:12]), Fraction(0))
    formula = sqrt_enclosure(tail_sq)
    _check(problems, abs(out["tail_max"] - formula.hi) <= TOL10,
           f"tail {float(out['tail_max'])} vs formula {float(formula.hi)}")

    etas = [Fraction(1, 4), Fraction(1, 16), Fraction(1, 64)]
    for name, phi in (("indicator-ramp", example_3f(6)["integrand"]),
                      ("identity", identity_integrand())):
        ac = absolute_continuity(phi, etas, regions_per_eta=6, seed=2, tol=TOL10)
        rows = sorted(ac["rows"], key=lambda r: r["eta"])
        _check(problems, all(a["modulus"] <= b["modulus"]
                             for a, b in zip(rows, rows[1:])),
               f"{name} modulus not monotone")
        M = phi.sup_norm_bound()
        _check(problems, M is not None, f"{name} has no sup bound")
        for r in rows:
            _check(problems, r["modulus"] <= M * r["eta"] + 2 * TOL10,
                   f"{name} eta={r['eta']} modulus {float(r['modulus'])}")
    _verdict(4, "series tail formula and modulus bounds", problems)


def test_criterion_05_oscillation_witness_three_seeds():
    """On the stage-4 fat-set family with the constant 1/5 gauge, three
    seeds each produce two certified subordinate partitions whose sums
    differ by at least (m-1)/k with level-set mass m/k >= 4/5 - 1/k, each
    run under 60 seconds; at least two must succeed outright."""
    problems = []
    fat = build_fat_set(4, 3)
    fam = build_A_family(fat, 4, cap=64)
    gauge = Gauge.const(Fraction(1, 5))
    successes = 0
    for seed in (11, 12, 13):
        t0 = time.monotonic()
        try:
            w = oscillation_witness_3e(fat, fam, 64, gauge, seed=seed)
        except SearchExhausted as exc:
            _check(problems, bool(exc.trace), f"seed {seed}: exhausted, empty trace")
            continue
        finally:
            elapsed = time.monotonic() - t0
            _check(problems, elapsed < 60, f"seed {seed}: {elapsed:.1f}s >= 60s")
        p1, p2 = w["partitions"]
        for p in (p1, p2):
            _check(problems, is_partition(p), f"seed {seed}: not a partition")
            _check(problems, is_subordinate(p, gauge), f"seed {seed}: not subordinate")
        mk = Fraction(w["m"], w["k"])
        _check(problems, mk >= Fraction(4, 5) - Fraction(1, w["k"]),
               f"seed {seed}: level-set mass {mk}")
        _check(problems, w["bound"] == Fraction(w["m"] - 1, w["k"]),
               f"seed {seed}: bound mismatch")
        if w["gap"] >= w["bound"]:
            successes += 1
        else:
            _check(problems, False, f"seed {seed}: gap {w['gap']} < bound {w['bound']}")
    _check(problems, successes >= 2, f"only {successes} of 3 seeds succeeded")
    _verdict(5, "two-partition gap witness across seeds", problems)


def test_criterion_06_separated_integrand_triple():
    """The separated indicator ramp admits (a) constant-gauge Riemann sums
    within 2*delta + grid of the exact integral, (b) a simple-function
    refusal with lower bound >= 0.49, and (c) oscillation <= 2^-6 at the
    2^-8 constant schedule."""
    problems = []
    built = example_3f(12)
    phi, exact, grid = built["integrand"], built["exact_integral"], built["grid"]
    for k in (4, 6, 8):
        delta = Fraction(1, 1 << k)
        worst = Fraction(0)
        for s in range(3):
            p = cousin_partition(Gauge.const(delta), seed=s)
            err = distance(riemann_sum(phi, p), exact).hi
            worst = max(worst, err)
        _check(problems, worst <= 2 * delta + grid,
               f"delta=2^-{k}: sup error {float(worst):.5f}")

    from gaugelab import NotApproximable, bochner_integrate
    refusal = bochner_integrate(phi, Fraction(1, 100), max_pieces=64)
    _check(problems, isinstance(refusal, NotApproximable), "no refusal")
    if isinstance(refusal, NotApproximable):
        _check(problems, refusal.lower_bound >= Fraction(49, 100),
               f"lower bound {float(refusal.lower_bound)}")

    est = mcshane_integrate(phi, schedule=[Gauge.const(Fraction(1, 256))], seed=3)
    _check(problems, est.oscillation <= Fraction(1, 64),
           f"oscillation {float(est.oscillation):.5f} > 2^-6")
    _verdict(6, "ramp riemann error, refusal bound, oscillation", problems)


def test_criterion_07_empirical_means_match_closed_form():
    """100 batches of 10^4 samples: at least 90 batch means land within
    3*sigma/sqrt(n) of the exact integral, and the pooled mean lands
    within 10^-2, for both the scalar identity and the harmonic blocks."""
    problems = []
    for name, phi in (("identity", identity_integrand()),
                      ("harmonic-blocks", example_3g(8)["integrand"])):
        rep = talagrand_integrate(phi, seed=7, n=10_000, batches=100)
        exact = exact_vector_integral(phi)
        within = 0
        for mean, var in zip(rep.means, rep.variances):
            err = distance(mean, exact).hi
            # sqrt(10^4) = 100 exactly
            if err <= 3 * sqrt_enclosure(var).hi / 100:
                within += 1
        _check(problems, within >= 90, f"{name}: only {within}/100 batches in band")
        pooled_err = distance(rep.pooled, exact).hi
        _check(problems, pooled_err <= Fraction(1, 100),
               f"{name}: pooled error {float(pooled_err):.2e}")
    _verdict(7, "batch means within band, pooled within 1e-2", problems)


def test_criterion_08_separation_measure_and_three_point_bound():
    """Monte Carlo separation-set measure for the identity family matches
    the exact product 0.09 within 0.01; the pair-sum family estimate stays
    below the exact three-point bound (plus confidence width) on five seeds."""
    problems = []
    ident = identity_integrand()
    fam = family_from_integrand(ident, default_functionals(ident.space, 1, seed=0))
    q = ZQuery(UNIT_REGION, 1, 1, Fraction(3, 10), Fraction(7, 10))
    out = z_measure_mc(fam, q, samples=100_000, seed=2)
    _check(problems, abs(out["estimate"] - Fraction(9, 100)) <= Fraction(1, 100),
           f"estimate {float(out['estimate'])} off 0.09")

    H = parse_region("1/4:1/2")
    E = UNIT_REGION
    gamma = pairsum_z_bound(H, E)
    muE = E.measure().as_fraction()
    bound = muE * (muE ** 2 - gamma)
    B = FunctionFamily.pairsum(H)
    for seed in range(5):
        o = z_measure_mc(B, ZQuery(E, 1, 2, Fraction(3, 10), Fraction(7, 10)),
                         samples=50_000, seed=seed)
        _check(problems, o["estimate"] <= bound + o["half_width"],
               f"seed {seed}: {float(o['estimate'])} > {float(bound)} + CI")
    _verdict(8, "z-measure matches product, pair-sum bound holds", problems)


def test_criterion_09_convergence_theorem_gate():
    """Harmonic-block truncations pass the pointwise, Cauchy, and
    conclusion checks at 2^-10; the escaping spike sequence is flagged by
    the conclusion check; both complete in under 30 seconds."""
    problems = []
    t0 = time.monotonic()
    phi = example_3g(8)["integrand"]
    seq = truncation_sequence(phi, truncation_cover(8))
    fs = default_functionals(phi.space, 8, seed=0)
    regions = sample_regions(8, seed=3)
    v = vitali_limit(seq, phi, fs, regions, tol=TOL10, n_max=16, seed=0)
    for key in ("h1", "h2", "c"):
        _check(problems, v[key]["pass"], f"truncations: {key} failed")
    _check(problems, v["pass"], "truncations: overall verdict")

    space = ValueSpace.findim(1, "l2")
    zero = VectorValue.coords(space, [Fraction(0)])

    def spike(n):
        # mass 1 escaping to the origin: 2^j on [0, 2^-j)
        j = min(n + 1, 30)
        return IntegrandFn.step(
            space, (Dyadic(0, 0), Dyadic(1, j), Dyadic(1, 0)),
            (VectorValue.coords(space, [Fraction(1 << j)]), zero),
            label=f"spike-{n}")

    limit = IntegrandFn.step(space, (Dyadic(0, 0), Dyadic(1, 0)), (zero,),
                             label="zero")
    v2 = vitali_limit(spike, limit, default_functionals(space, 4, seed=0),
                      regions, tol=TOL10, n_max=12, seed=0)
    _check(problems, not v2["pass"], "spike not flagged")
    flagged = (not v2["h2"]["pass"]) or (not v2["c"]["pass"])
    _check(problems, flagged, "spike flagged by neither cauchy nor conclusion")
    elapsed = time.monotonic() - t0
    _check(problems, elapsed < 30, f"{elapsed:.1f}s >= 30s")
    _verdict(9, "truncations pass, spike flagged", problems)


def test_criterion_10_value_norm_below_darboux_budget():
    """Wherever the gauge integrator converges on a constructed integrand,
    the value norm stays below the depth-12 lower Darboux sum plus the
    reported oscillation plus 2^-10."""
    problems = []
    cases = [("indicator-ramp", example_3f(8)["integrand"]),
             ("harmonic-blocks", example_3g(8)["integrand"])]
    converged = 0
    for name, phi in cases:
        est = mcshane_integrate(phi, schedule="adapted", seed=5)
        if est.status != "converged":
            continue
        converged += 1
        cap = lower_norm_integral(phi, grid_depth=12) + est.oscillation + TOL10
        nrm = est.value.norm().hi
        _check(problems, nrm <= cap,
               f"{name}: norm {float(nrm):.5f} > budget {float(cap):.5f}")
    _check(problems, converged == len(cases), f"only {converged} cases converged")
    _verdict(10, "value norm within darboux budget", problems)


def _random_region(rng: random.Random) -> Region:
    parts = []
    for _ in range(rng.randint(1, 3)):
        depth = rng.randint(1, 8)
        a = rng.randint(0, (1 << depth) - 1)
        b = rng.randint(a + 1, 1 << depth)
        parts.append(Interval(Dyadic(a, depth), Dyadic(b, depth)))
    return Region(parts)


def test_criterion_11_region_algebra_partitions_serialization():
    """1000 random region pairs satisfy inclusion-exclusion exactly;
    sampled gauges always yield subordinate partitions; partition JSON
    round-trips bit for bit."""
    problems = []
    rng = random.Random(1234)
    for case in range(1000):
        A, B = _random_region(rng), _random_region(rng)
        mA = A.measure().as_fraction()
        mB = B.measure().as_fraction()
        m_union = region_union(A, B).measure().as_fraction()
        m_inter = region_intersect(A, B).measure().as_fraction()
        m_diff = region_subtract(A, B).measure().as_fraction()
        if m_union + m_inter != mA + mB:
            _check(problems, False, f"case {case}: inclusion-exclusion broken")
            break
        if m_diff != mA - m_inter:
            _check(problems, False, f"case {case}: difference measure broken")
            break

    gauges = [Gauge.const(Fraction(1, 5)), Gauge.const(Fraction(3, 64))]
    for depth in (2, 3):
        breaks = [Dyadic(i, depth) for i in range((1 << depth) + 1)]
        values = [Fraction(rng.randint(1, 8), 64) for _ in range(1 << depth)]
        gauges.append(Gauge.piecewise(breaks, values))
    gauges.append(Gauge.proximity(2, [1, 3], Fraction(1, 8), Fraction(1, 32)))
    for gi, g in enumerate(gauges):
        for seed in range(5):
            for flavor in ("mcshane", "henstock"):
                p = cousin_partition(g, flavor=flavor, seed=seed)
                _check(problems, is_partition(p), f"gauge {gi} seed {seed}: not a partition")
                _check(problems, is_subordinate(p, g),
                       f"gauge {gi} seed {seed} {flavor}: not subordinate")
                blob = partition_to_json(p)
                p2 = partition_from_json(blob)
                _check(problems, p2.items == p.items,
                       f"gauge {gi} seed {seed}: round-trip items differ")
                _check(problems, partition_to_json(p2) == blob,
                       f"gauge {gi} seed {seed}: round-trip bytes differ")
    _verdict(11, "region algebra, subordination, serialization", problems)
