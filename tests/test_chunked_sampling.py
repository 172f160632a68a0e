"""Chunked sampling against the one-shot draws it replaced.

`z_measure_mc` and `talagrand_integrate` read their uniforms block by block
from one stream (`rng.uniform_blocks`).  `z_measure_mc` adds up integer hit
counts; its oracle is the version that drew every sample in one array,
copied in below, and hit counts must be equal.  `talagrand_integrate` adds
up per-cell counts or int power sums; its oracle is `reference.empirical`
over each batch's one draw, each sample read as a Fraction, and the means,
variances, pooled mean and spread must be equal.  Sample counts are drawn
below one block, at exactly k blocks and at k blocks plus one: for
`z_measure_mc` at the real block size, for every family kind and m + n from
2 to 6; for `talagrand_integrate` at block sizes of 1 to 64 uniforms, with
examples at the real block size.  Its integrands are step and polynomial
ones (degrees 0-3, one to three coordinates) broken at samples themselves
and 2^-60 either side of one, so a cut compared the wrong way shows.

Mutations `test_talagrand_matches_fraction_means` catches (each run once on
a scratch copy): the power-sum shift or the split of k off by one bit; the
cross products not doubled; earlier blocks' sums or counts dropped;
`side="left"` at a cut; n for n - 1 in the variance; floor for ceil in the
int cut; a block of several cells left unsorted; a square's top coefficient
dropped; the Python-int power sums one short; runs of 256 widened to a whole
block, so that int64 wraps (caught by an example at the real block size).
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaugelab import _kernels, rng
from gaugelab.exact import D0, D1, Dyadic, parse_region
from gaugelab.gallery import example_3f, example_3g
from gaugelab.integrands import STEP, IntegrandFn, identity_integrand, poly_integrand
from gaugelab.integrate import default_functionals, talagrand_integrate
from gaugelab.rng import BLOCK_ELEMENTS, stream, uniform_blocks
from gaugelab.spaces import ValueSpace, VectorValue
from gaugelab.stability import (FunctionFamily, ZQuery, _floats, _region_arrays,
                                family_from_integrand, z_measure_mc)
import reference as ref


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


@st.composite
def sample_counts(draw, cols, floor=1, block=BLOCK_ELEMENTS):
    """Below one block, exactly k blocks, or k blocks plus one row."""
    step = max(1, block // cols)
    k = draw(st.integers(1, 3))
    below = [draw(st.integers(floor, step - 1))] if step > floor else []
    return draw(st.sampled_from(below + [k * step, k * step + 1]))


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


def talagrand_matches_reference(phi, seed, n, batches, block):
    """talagrand_integrate, reading blocks of `block` uniforms, gives the
    reference's empirical means and variances of each batch's one draw, and
    its pooled mean and spread."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng, "BLOCK_ELEMENTS", block)
        rep = talagrand_integrate(phi, seed=seed, n=n, batches=batches)
    draws = [[Fraction(u) for u in stream(seed, b + 1).random(n).tolist()]
             for b in range(batches)]
    for b, xs in enumerate(draws):
        mean, variance = ref.empirical(phi, xs)
        assert ref.cells(rep.means[b]) == mean, b
        assert rep.variances[b] == variance, b
    assert ref.cells(rep.pooled) == ref.empirical(phi, sum(draws, []))[0]
    assert rep.spread == ref.spread(phi.space, [ref.cells(m) for m in rep.means])


@st.composite
def talagrand_cases(draw):
    phi = draw(st.sampled_from([example_3f(4)["integrand"], example_3g(6)["integrand"]]))
    block = draw(st.sampled_from([1, 5, 64]))
    return phi, draw(st.integers(0, 2**31)), draw(sample_counts(1, block=block)), \
        draw(st.integers(1, 3)), block


@settings(max_examples=30, deadline=None)
@given(talagrand_cases())
@example((example_3g(6)["integrand"], 5, 2 * BLOCK_ELEMENTS + 1, 1, BLOCK_ELEMENTS))
def test_chunked_step_talagrand_matches_one_draw(case):
    assert case[0].klass == STEP
    talagrand_matches_reference(*case)


RATIONALS = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 3),
                             Fraction(-5, 7), Fraction(3, 2), Fraction(1, 1024)])
STEP_SPACES = [ValueSpace.findim(1, "l2"), ValueSpace.findim(2, "l1"),
               ValueSpace.findim(3, "linf"), ValueSpace.seq_l2(2), ValueSpace.step_linf(2)]
POLY_SPACES = [ValueSpace.findim(1, "l2"), ValueSpace.findim(3, "l2"), ValueSpace.seq_l2(2)]


@st.composite
def sampled_integrands(draw, samples):
    """A step or polynomial integrand (degrees 0-3) broken at up to four
    points: samples themselves, points 2^-60 before or past a sample, and
    dyadics of exponent 1-8."""
    points = set()
    for _ in range(draw(st.integers(0, 4))):
        e = draw(st.integers(1, 8))
        x = draw(st.one_of(
            st.builds(lambda u, d: u + d, st.sampled_from(samples),
                      st.sampled_from([0, Fraction(1, 1 << 60), -Fraction(1, 1 << 60)])),
            st.builds(Fraction, st.integers(1, (1 << e) - 1), st.just(1 << e))))
        if 0 < x < 1:
            points.add(x)
    breaks = [D0, *(Dyadic.from_fraction(x) for x in sorted(points)), D1]
    cells = len(breaks) - 1
    if draw(st.booleans()):
        space = draw(st.sampled_from(STEP_SPACES))
        if space.is_step:
            levels = [VectorValue.step(space, [D0, Dyadic(1, 1), D1],
                                       draw(st.lists(RATIONALS, min_size=2, max_size=2)))
                      for _ in range(cells)]
        else:
            levels = [VectorValue.coords(space, draw(st.lists(
                RATIONALS, min_size=space.dim, max_size=space.dim))) for _ in range(cells)]
        return IntegrandFn.step(space, breaks, levels)
    space = draw(st.sampled_from(POLY_SPACES))
    return IntegrandFn.poly(space, breaks, [
        [draw(st.lists(RATIONALS, min_size=1, max_size=4)) for _ in range(space.dim)]
        for _ in range(cells)])


@st.composite
def empirical_cases(draw):
    block = draw(st.sampled_from([1, 4, 16]))
    seed, n = draw(st.integers(0, 2**31)), draw(sample_counts(1, block=block))
    samples = [Fraction(u) for u in stream(seed, 1).random(n).tolist()]
    return draw(sampled_integrands(samples)), seed, n, draw(st.integers(1, 3)), block


@settings(max_examples=150, deadline=None)
@given(empirical_cases())
@example((identity_integrand(), 3, BLOCK_ELEMENTS, 1, BLOCK_ELEMENTS))
@example((poly_integrand([[Fraction(1, 3), -1], [0, 0, 2]]), 8, BLOCK_ELEMENTS + 1, 1,
          BLOCK_ELEMENTS))
def test_talagrand_matches_fraction_means(case):
    talagrand_matches_reference(*case)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 9), st.integers(1, 3 * BLOCK_ELEMENTS), st.integers(0, 2**31))
def test_blocks_stack_to_one_draw(cols, rows, seed):
    blocks = list(uniform_blocks(seed, 3, rows, cols))
    assert all(b.size <= max(BLOCK_ELEMENTS, cols) for b in blocks)
    assert np.array_equal(np.concatenate(blocks), stream(seed, 3).random((rows, cols)))
