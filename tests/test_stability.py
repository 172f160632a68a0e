"""Separation-set estimation: exact oracles and seeded Monte Carlo agreement."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab import _kernels
from gaugelab.exact import (D0, D1, Dyadic, Interval, Region, UNIT_REGION,
                            parse_region, region_intersect)
from gaugelab.integrands import IntegrandFn, identity_integrand, paired_polys, poly_eval
from gaugelab.integrate import default_functionals
from gaugelab.spaces import ValueSpace, VectorValue
from gaugelab.rng import stream
from gaugelab.stability import (FunctionFamily, ZQuery, _hit_counter, family_from_integrand,
                                pairsum_z_bound, stability_scan, z_measure_mc)

HALF = Dyadic(1, 1)


def exact_z_measure(A, E, m, n, alpha, beta):
    """Exact mu(Z) for a piecewise-step family, by inclusion-exclusion over
    members: the oracle for the Monte Carlo estimate.

    Z is the union over members f of A_f^m x B_f^n with A_f = {t in E: f(t) <=
    alpha} and B_f = {u in E: f(u) >= beta}; intersections of such products
    factor coordinate-wise, so the alternating sum is exact.  A term whose
    partial intersection is already null is pruned with all its supersets.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    assert A.klass == "piecewise-step"
    caps = []
    for member in A.members:
        a_parts, b_parts = [], []
        for lo, hi, level in zip(member.breaks, member.breaks[1:], member.levels):
            if level <= alpha:
                a_parts.append(Interval(lo, hi))
            if level >= beta:
                b_parts.append(Interval(lo, hi))
        caps.append((region_intersect(Region(a_parts), E),
                     region_intersect(Region(b_parts), E)))

    total = Fraction(0)

    def rec(i, cur_a, cur_b, size):
        nonlocal total
        if i == len(caps):
            if size:
                mu_a = cur_a.measure().as_fraction()
                mu_b = cur_b.measure().as_fraction()
                sign = 1 if size % 2 else -1
                total += sign * mu_a**m * mu_b**n
            return
        rec(i + 1, cur_a, cur_b, size)  # skip member i
        a, b = caps[i]
        na = a if cur_a is None else region_intersect(cur_a, a)
        nb = b if cur_b is None else region_intersect(cur_b, b)
        # a null factor zeroes this term and every deeper superset term
        if na.measure().as_fraction() == 0 or nb.measure().as_fraction() == 0:
            return
        rec(i + 1, na, nb, size + 1)

    rec(0, None, None, 0)
    return total


def indicator_family():
    """Two step members: 1 on [1/2,1], and 1 on [0,1/4]."""
    return FunctionFamily.from_steps([
        ((D0, HALF, D1), (Fraction(0), Fraction(1))),
        ((D0, Dyadic(1, 2), D1), (Fraction(1), Fraction(0))),
    ], label="two-indicators")


def identity_family():
    """One member, t on [0,1]: the single cell's coefficients (0, 1)."""
    return FunctionFamily.from_polys((D0, D1), [[(0, 1)]], label="identity")


def test_zquery_validation():
    with pytest.raises(ValueError):
        ZQuery(UNIT_REGION, 1, 1, Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        ZQuery(UNIT_REGION, 0, 1, Fraction(1, 4), Fraction(1, 2))
    with pytest.raises(ValueError):
        ZQuery(Region(()), 1, 1, Fraction(1, 4), Fraction(1, 2))
    q = ZQuery(Region((Interval(D0, HALF),)), 2, 1, Fraction(1, 4), Fraction(1, 2))
    assert q.threshold == Fraction(1, 8)


def test_exact_inclusion_exclusion_two_members():
    fam = indicator_family()
    # member 1 contributes 1/2 * 1/2, member 2 contributes 3/4 * 1/4,
    # their intersection has an empty high-side factor
    got = exact_z_measure(fam, UNIT_REGION, 1, 1, Fraction(1, 4), Fraction(3, 4))
    assert got == Fraction(1, 4) + Fraction(3, 16)


def test_exact_measure_respects_region_and_powers():
    fam = indicator_family()
    left = Region((Interval(D0, HALF),))
    # inside [0,1/2]: member 1 has A=[0,1/2], B empty; member 2 A=[1/4,1/2], B=[0,1/4]
    got = exact_z_measure(fam, left, 2, 1, Fraction(1, 4), Fraction(3, 4))
    assert got == Fraction(1, 4) ** 2 * Fraction(1, 4)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31))
def test_mc_matches_exact_measure(seed):
    fam = indicator_family()
    q = ZQuery(UNIT_REGION, 1, 1, Fraction(1, 4), Fraction(3, 4))
    exact = exact_z_measure(fam, UNIT_REGION, 1, 1, Fraction(1, 4), Fraction(3, 4))
    res = z_measure_mc(fam, q, samples=20_000, seed=seed)
    assert abs(res["estimate"] - exact) <= res["half_width"] + Fraction(1, 100)


def test_identity_family_point_estimate():
    q = ZQuery(UNIT_REGION, 1, 1, Fraction(3, 10), Fraction(7, 10))
    res = z_measure_mc(identity_family(), q, samples=100_000, seed=5)
    assert abs(res["estimate"] - Fraction(9, 100)) < Fraction(1, 100)
    assert res["comparison"] == "strictly-below"


def test_half_width_shrinks_with_samples():
    q = ZQuery(UNIT_REGION, 1, 1, Fraction(3, 10), Fraction(7, 10))
    small = z_measure_mc(identity_family(), q, samples=1_000, seed=1)
    large = z_measure_mc(identity_family(), q, samples=64_000, seed=1)
    assert large["half_width"] < small["half_width"]


def test_pairsum_corner_formula_oracles():
    E = UNIT_REGION
    assert pairsum_z_bound(Region(()), E) == 0
    assert pairsum_z_bound(parse_region("0:2"), E) == 1
    assert pairsum_z_bound(parse_region("1/2:3/4"), E) == Fraction(5, 32)
    # additivity over disjoint H parts
    a = pairsum_z_bound(parse_region("1/2:3/4"), E)
    b = pairsum_z_bound(parse_region("3/4:1"), E)
    assert pairsum_z_bound(parse_region("1/2:1"), E) == a + b
    # smaller E: H=[0,2] saturates mu(E)^2
    small = Region((Interval(D0, HALF),))
    assert pairsum_z_bound(parse_region("0:2"), small) == Fraction(1, 4)


def test_pairsum_mc_tracks_closed_form():
    H = parse_region("1/2:3/4")
    fam = FunctionFamily.pairsum(H)
    q = ZQuery(UNIT_REGION, 1, 2, Fraction(0), Fraction(1))
    res = z_measure_mc(fam, q, samples=60_000, seed=3)
    # at (m, n) = (1, 2): mu E (mu E^2 - gamma), with mu E = 1
    closed = 1 - pairsum_z_bound(H, UNIT_REGION)
    assert abs(res["estimate"] - closed) <= res["half_width"] + Fraction(1, 150)
    # the constraint actually bites: strictly below the full cube
    assert res["comparison"] == "strictly-below"


def test_scan_finds_identity_witness():
    scan = stability_scan(identity_family(), [UNIT_REGION],
                          [(Fraction(3, 10), Fraction(7, 10))],
                          mn_max=2, samples=20_000, seed=1)
    row = scan["rows"][0]
    assert row["witness"] == {"m": 1, "n": 1}
    assert all(cell["comparison"] != "above-threshold" for cell in row["cells"])


def test_scan_stays_inconclusive_for_saturating_family():
    # indicators of [0,1/2] and [1/2,1] separate every pair at these
    # thresholds, so Z fills the whole cube and no witness may be certified
    fam = FunctionFamily.from_steps([
        ((D0, HALF, D1), (Fraction(1), Fraction(0))),
        ((D0, HALF, D1), (Fraction(0), Fraction(1))),
    ], label="saturating")
    exact = exact_z_measure(fam, UNIT_REGION, 1, 1, Fraction(0), Fraction(1))
    assert exact == Fraction(1, 2)  # t,u on matching sides only
    scan = stability_scan(fam, [UNIT_REGION], [(Fraction(0), Fraction(1))],
                          mn_max=1, samples=5_000, seed=2)
    # Z has measure 1/2 < 1: a witness here is legitimate; check the cell
    # estimate honestly tracks the exact value instead
    cell = scan["rows"][0]["cells"][0]
    assert abs(cell["estimate"] - exact) <= cell["half_width"] + Fraction(1, 50)


def test_family_from_integrand_step_trace():
    space = ValueSpace.findim(1, "l2")
    phi = IntegrandFn.step(space, (D0, HALF, D1),
                           (VectorValue.coords(space, [0]), VectorValue.coords(space, [1])))
    fam = family_from_integrand(phi, default_functionals(phi.space, 3, seed=2))
    assert fam.klass == "piecewise-step"
    ident = identity_integrand()
    fam2 = family_from_integrand(ident, default_functionals(ident.space, 2, seed=0))
    assert fam2.klass == "evaluator"
    # each member's one cell holds the exact coefficients of the composed trace
    t = Fraction(1, 3)
    for member, f in zip(fam2.members, default_functionals(ident.space, 2, seed=0)):
        assert member.breaks == ident.breaks
        (cell,) = member.levels
        assert poly_eval(cell, t) == f(ident.eval(t))


def closure_hits(phi, functionals, t_pts, u_pts, alpha, beta):
    """Hit count of a polynomial trace family the way evaluator members with
    a vectorized float callable per member counted it, column by column: the
    oracle for from_polys members."""
    cuts = np.array([float(b) for b in phi.breaks[1:-1]])
    hit = np.zeros(t_pts.shape[0], dtype=bool)
    for f in functionals:
        cells = [[[float(c) for c in coeffs]] for coeffs in paired_polys(f, phi)]

        def fn_np(xs, _cells=cells):
            return _kernels.piecewise_poly(xs, cuts, _cells)[:, 0]

        tv = np.column_stack([fn_np(t_pts[:, i]) for i in range(t_pts.shape[1])])
        uv = np.column_stack([fn_np(u_pts[:, j]) for j in range(u_pts.shape[1])])
        hit |= np.all(tv <= float(alpha), axis=1) & np.all(uv >= float(beta), axis=1)
    return int(np.count_nonzero(hit))


@st.composite
def poly_trace_cases(draw):
    depth = 4
    interior = sorted(draw(st.sets(st.integers(1, (1 << depth) - 1), max_size=4)))
    breaks = [Dyadic(k, depth) for k in [0, *interior, 1 << depth]]
    dim = draw(st.integers(1, 3))
    coeff = st.fractions(-2, 2, max_denominator=8)
    polys = [[draw(st.lists(coeff, min_size=1, max_size=4)) for _ in range(dim)]
             for _ in range(len(breaks) - 1)]
    phi = IntegrandFn.poly(ValueSpace.findim(dim, "l2"), breaks, polys)
    fs = default_functionals(phi.space, draw(st.integers(1, 4)), seed=draw(st.integers(0, 99)))
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    alpha = draw(st.fractions(-1, 1, max_denominator=4))
    beta = alpha + draw(st.fractions(0, 1, max_denominator=4).filter(bool))
    return phi, fs, m, n, alpha, beta, draw(st.integers(0, 2**31))


@settings(max_examples=40, deadline=None)
@given(poly_trace_cases())
def test_from_polys_hits_match_closure_path(case):
    phi, fs, m, n, alpha, beta, seed = case
    pts = stream(seed, 0).random((500, m + n))
    t_pts, u_pts = np.ascontiguousarray(pts[:, :m]), np.ascontiguousarray(pts[:, m:])
    fam = family_from_integrand(phi, fs)
    assert fam.klass == "evaluator"
    assert (_hit_counter(fam, alpha, beta)(t_pts, u_pts)
            == closure_hits(phi, fs, t_pts, u_pts, alpha, beta))
