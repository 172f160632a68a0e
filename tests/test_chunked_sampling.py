"""Chunked sampling against the one-shot draws it replaced.

`z_measure_mc` and the exact step path of `talagrand_integrate` read their
uniforms block by block from one stream (`rng.uniform_blocks`) and add up
integer counts.  The oracles are the versions that drew every sample in one
array, copied in below; hit counts and whole reports must be equal.  Sample
counts are drawn below one block, at exactly k blocks and at k blocks plus
one, for every family kind and m + n from 2 to 6.
"""

from fractions import Fraction
from math import lcm

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab import _kernels
from gaugelab.exact import UNIT_REGION, parse_region
from gaugelab.gallery import example_3f, example_3g
from gaugelab.integrands import STEP, poly_integrand
from gaugelab.integrate import (_float_breaks, _max_distance, default_functionals,
                                talagrand_integrate)
from gaugelab.rng import BLOCK_ELEMENTS, stream, uniform_blocks
from gaugelab.spaces import distance, linear_combination
from gaugelab.stability import (FunctionFamily, ZQuery, _floats, _region_arrays,
                                family_from_integrand, z_measure_mc)


def oracle_draw_points(region, samples, cols, seed):
    raw = stream(seed, 11).random((samples, cols))
    cum, los = _region_arrays(region)
    return _kernels.map_unit_to_region(raw.ravel(), cum, los).reshape(samples, cols)


def oracle_count_hits(A, t_pts, u_pts, alpha, beta):
    if A.klass == "pairsum":
        h = A.h
        return _kernels.pairsum_family_hits(t_pts, u_pts, _floats(h.lo, h.exp),
                                            _floats(h.hi, h.exp))
    if not A.members:
        return 0
    if A.klass == "piecewise-step":
        cuts_chunks, vals_chunks = [], []
        for member in A.members:
            cuts_chunks.append(np.array([float(b) for b in member.breaks[1:-1]]))
            vals_chunks.append(np.array([float(v) for v in member.levels]))
        cuts_off = np.cumsum([0] + [len(c) for c in cuts_chunks]).astype(np.int64)
        vals_off = np.cumsum([0] + [len(v) for v in vals_chunks]).astype(np.int64)
        cuts_flat = np.concatenate(cuts_chunks) if cuts_chunks else np.zeros(0)
        vals_flat = np.concatenate(vals_chunks)
        return _kernels.step_family_hits(
            t_pts, u_pts, cuts_flat, cuts_off, vals_flat, vals_off,
            float(alpha), float(beta),
        )
    hit = np.zeros(t_pts.shape[0], dtype=bool)
    af, bf = float(alpha), float(beta)
    for member in A.members:
        cuts = np.array([float(b) for b in member.breaks[1:-1]])
        cells = [[[float(c) for c in coeffs]] for coeffs in member.levels]
        tv = _kernels.piecewise_poly(t_pts.ravel(), cuts, cells)[:, 0].reshape(t_pts.shape)
        uv = _kernels.piecewise_poly(u_pts.ravel(), cuts, cells)[:, 0].reshape(u_pts.shape)
        hit |= np.all(tv <= af, axis=1) & np.all(uv >= bf, axis=1)
    return int(np.count_nonzero(hit))


def oracle_hits(A, q, samples, seed):
    pts = oracle_draw_points(q.region, samples, q.m + q.n, seed)
    t_pts = np.ascontiguousarray(pts[:, :q.m])
    u_pts = np.ascontiguousarray(pts[:, q.m:])
    return oracle_count_hits(A, t_pts, u_pts, q.alpha, q.beta)


def oracle_step_talagrand(phi, seed, n, batches):
    """(means, variances, pooled, spread) of the exact path, one draw per batch."""
    cuts = _float_breaks(phi)
    means, variances = [], []
    pooled_counts = np.zeros(len(phi.values), dtype=np.int64)
    for b in range(batches):
        u = stream(seed, b + 1).random(n)
        counts = _kernels.piece_counts(u, cuts)
        pooled_counts += counts
        mean = linear_combination(phi.space, (
            (Fraction(c, n), val) for c, val in zip(counts.tolist(), phi.values) if c))
        means.append(mean)
        dists = [(c, distance(val, mean).hi)
                 for c, val in zip(counts.tolist(), phi.values) if c]
        den = lcm(*(d.denominator for _, d in dists))
        var = Fraction(sum(c * (d.numerator * (den // d.denominator)) ** 2
                           for c, d in dists), den * den)
        variances.append(var / (n - 1) if n > 1 else Fraction(0))
    total = n * batches
    pooled = linear_combination(phi.space, (
        (Fraction(int(c), total), val)
        for c, val in zip(pooled_counts.tolist(), phi.values) if c))
    return means, variances, pooled, _max_distance(means)


def block_rows(cols):
    return max(1, BLOCK_ELEMENTS // cols)


@st.composite
def sample_counts(draw, cols, floor=1):
    """Below one block, exactly k blocks, or k blocks plus one row."""
    step = block_rows(cols)
    k = draw(st.integers(1, 3))
    return draw(st.sampled_from([draw(st.integers(floor, step - 1)), k * step, k * step + 1]))


def trace(phi, count):
    return lambda seed: family_from_integrand(phi, default_functionals(phi.space, count,
                                                                       seed=seed))


FAMILIES = {
    "pairsum": lambda seed: FunctionFamily.pairsum(
        parse_region(["1/4:1/2", "0:2", "1/2:3/2+7/4:2"][seed % 3])),
    "step-3f": trace(example_3f(4)["integrand"], 3),
    "step-3g": trace(example_3g(6)["integrand"], 2),
    "poly-trace": trace(poly_integrand([[0, 1], [Fraction(1, 2), -1, 1]]), 3),
}


@st.composite
def z_cases(draw):
    kind = draw(st.sampled_from(sorted(FAMILIES)))
    total = draw(st.integers(2, 6))
    m = draw(st.integers(1, total - 1))
    region = draw(st.sampled_from(["0:1", "0:1/2", "1/4:1/2+3/4:1"]))
    alpha, beta = draw(st.sampled_from([(Fraction(3, 10), Fraction(7, 10)),
                                        (Fraction(0), Fraction(1)),
                                        (Fraction(-1, 4), Fraction(1, 8))]))
    samples = draw(sample_counts(total, floor=100))
    return kind, ZQuery(parse_region(region), m, total - m, alpha, beta), samples, \
        draw(st.integers(0, 2**31))


@settings(max_examples=60, deadline=None)
@given(z_cases())
def test_chunked_z_measure_matches_one_draw(case):
    kind, q, samples, seed = case
    fam = FAMILIES[kind](seed)
    res = z_measure_mc(fam, q, samples=samples, seed=seed)
    assert res["samples"] == samples
    assert res["hits"] == oracle_hits(fam, q, samples, seed), (kind, q, samples)


@st.composite
def talagrand_cases(draw):
    phi = draw(st.sampled_from([example_3f(4)["integrand"], example_3g(6)["integrand"]]))
    return phi, draw(sample_counts(1, floor=1)), draw(st.integers(1, 3)), \
        draw(st.integers(0, 2**31))


@settings(max_examples=30, deadline=None)
@given(talagrand_cases())
def test_chunked_step_talagrand_matches_one_draw(case):
    phi, n, batches, seed = case
    assert phi.klass == STEP
    rep = talagrand_integrate(phi, seed=seed, n=n, batches=batches)
    assert rep.exact
    means, variances, pooled, spread = oracle_step_talagrand(phi, seed, n, batches)
    assert rep.means == means
    assert rep.variances == variances
    assert rep.pooled == pooled
    assert rep.spread == spread


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 9), st.integers(1, 3 * BLOCK_ELEMENTS), st.integers(0, 2**31))
def test_blocks_stack_to_one_draw(cols, rows, seed):
    blocks = list(uniform_blocks(seed, 3, rows, cols))
    assert all(b.size <= max(BLOCK_ELEMENTS, cols) for b in blocks)
    assert np.array_equal(np.concatenate(blocks), stream(seed, 3).random((rows, cols)))
