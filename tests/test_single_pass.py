"""Work done once on the README paths, with the same outputs as before.

- `_kernels.piecewise_poly` runs one gathered Horner pass over all samples,
  and `_kernels.map_unit_to_region` maps a one-part region without a search.
  Both are checked bit for bit (`tobytes`) against the masked per-cell
  kernels they replaced, copied below.  These tests catch, among others:
  zeros padded below the lowest degree instead of above the highest,
  coefficients gathered lowest degree first, a search with side="left", and
  a one-part shortcut that drops `los[0]`.
- `pettis_check` applies each functional once, to the gap nu(E) - I(E); each
  residual must equal |f(nu(E)) - f(I(E))| computed the two-route way.
- `absolute_continuity` integrates each distinct pool region once.
"""

import contextlib
import io
import json
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab import _kernels, cli, integrate
from gaugelab.exact import format_region
from gaugelab.gallery import example_3f, example_3g
from gaugelab.integrands import exact_vector_integral, poly_integrand
from gaugelab.integrate import (default_functionals, indefinite_integral, pettis_check,
                                sample_regions)
from gaugelab.spaces import DualFunctional


def masked_piecewise_poly(xs, cuts, cells):
    """The per-cell kernel: search, mask each cell's samples, Horner, scatter."""
    idx = np.searchsorted(cuts, xs, side="right")
    out = np.zeros((len(xs), len(cells[0])))
    for c, coords in enumerate(cells):
        mask = idx == c
        if not mask.any():
            continue
        ts = xs[mask]
        for j, coeffs in enumerate(coords):
            acc = np.zeros_like(ts)
            for ck in reversed(coeffs):
                acc = acc * ts + ck
            out[mask, j] = acc
    return out


def searched_map_unit_to_region(unit, cum, los):
    """The inverse-CDF map with its search, for any number of parts."""
    total = cum[-1]
    t = unit * total
    idx = np.searchsorted(cum, t, side="right")
    idx = np.minimum(idx, len(cum) - 1)
    before = np.concatenate((np.zeros(1), cum))[idx]
    return los[idx] + (t - before)


coefficient = st.floats(-4, 4, allow_nan=False, allow_infinity=False)


@st.composite
def piecewise_inputs(draw):
    n_cells = draw(st.integers(1, 5))
    dim = draw(st.integers(1, 3))
    cuts = sorted(draw(st.sets(st.floats(0, 1, allow_nan=False),
                               min_size=n_cells - 1, max_size=n_cells - 1)))
    cells = [[draw(st.lists(coefficient, max_size=3)) for _ in range(dim)]
             for _ in range(n_cells)]
    # samples anywhere finite, on the cuts themselves, and at the ends
    point = st.floats(-2, 2, allow_nan=False) | st.sampled_from(cuts + [0.0, 1.0, -0.0])
    xs = draw(st.lists(point, max_size=40))
    return np.array(xs, dtype=np.float64), np.array(cuts, dtype=np.float64), cells


@settings(max_examples=400, deadline=None)
@given(piecewise_inputs())
def test_piecewise_poly_matches_masked_kernel_bit_for_bit(inputs):
    xs, cuts, cells = inputs
    got = _kernels.piecewise_poly(xs, cuts, cells)
    expect = masked_piecewise_poly(xs, cuts, cells)
    assert got.shape == expect.shape and got.dtype == expect.dtype
    assert got.tobytes() == expect.tobytes()


def test_piecewise_poly_mixed_degrees_on_the_cuts():
    # a constant, a cubic and an empty list side by side, samples on each cut
    cuts = np.array([0.25, 0.5])
    cells = [[[1.5], [0.5, -2.0]], [[1.0, 2.0, 3.0, 4.0], []], [[], [3.0]]]
    xs = np.array([0.0, 0.25, 0.3, 0.5, 0.75, 1.0])
    got = _kernels.piecewise_poly(xs, cuts, cells)
    assert got.tobytes() == masked_piecewise_poly(xs, cuts, cells).tobytes()
    assert got[1].tolist() == [1 + 2 * 0.25 + 3 * 0.25 ** 2 + 4 * 0.25 ** 3, 0.0]
    assert got[3].tolist() == [0.0, 3.0]


@st.composite
def region_inputs(draw):
    parts = draw(st.integers(1, 4))
    lengths = draw(st.lists(st.floats(1e-3, 0.25), min_size=parts, max_size=parts))
    gaps = draw(st.lists(st.floats(0, 0.1), min_size=parts, max_size=parts))
    los = np.cumsum(np.array(gaps) + np.concatenate([[0.0], lengths[:-1]]))
    unit = draw(st.lists(st.floats(0, 1, exclude_max=True) | st.just(0.0), max_size=40))
    return np.array(unit, dtype=np.float64), np.cumsum(lengths), los


@settings(max_examples=300, deadline=None)
@given(region_inputs())
def test_map_unit_to_region_matches_searched_map_bit_for_bit(inputs):
    unit, cum, los = inputs
    got = _kernels.map_unit_to_region(unit, cum, los)
    expect = searched_map_unit_to_region(unit, cum, los)
    assert got.shape == expect.shape and got.dtype == expect.dtype
    assert got.tobytes() == expect.tobytes()


def test_one_part_region_keeps_its_offset():
    unit = np.array([0.0, 0.5, 0.75])
    got = _kernels.map_unit_to_region(unit, np.array([0.25]), np.array([0.5]))
    assert got.tolist() == [0.5, 0.625, 0.6875]


# -- pettis: one application of each functional per (region, functional) -----


def _check_residuals(phi, functionals, regions, seed=0):
    tol = integrate.DEFAULT_TOL
    out = pettis_check(phi, functionals, regions, tol=tol, seed=seed)
    entries = iter(out["entries"])
    worst = 0
    for ei, region in enumerate(regions):
        est = indefinite_integral(phi, region, tol=tol / 4, seed=seed + ei)
        exact = exact_vector_integral(phi, region)
        for fi, f in enumerate(functionals):
            expect = abs(f(est.value) - f(exact))
            worst = max(worst, expect)
            entry = next(entries)
            assert entry["region"] == format_region(region)
            assert entry["functional"] == fi
            assert entry["residual"] == str(expect)
    assert next(entries, None) is None
    assert out["max_residual"] == worst
    return out


def test_pettis_residuals_coordinate_and_combination():
    phi = example_3g(6)["integrand"]
    fs = default_functionals(phi.space, 9, seed=2)
    assert {f.kind for f in fs} == {"coordinate", "combination"}
    _check_residuals(phi, fs, sample_regions(4, seed=3))


def test_pettis_residuals_on_a_polynomial():
    phi = poly_integrand([[0, 1], [1, 0, -3]])
    fs = [DualFunctional.coordinate(phi.space, 1),
          DualFunctional.combination(phi.space, [Fraction(1, 2), Fraction(-1, 2)])]
    out = _check_residuals(phi, fs, sample_regions(3, seed=5), seed=4)
    assert out["max_residual"] > 0  # the gauge sums do not hit the closed form


def test_pettis_residuals_coordinate_and_step_pairing():
    phi = example_3f(4)["integrand"]
    assert phi.space.is_step
    fs = default_functionals(phi.space, 11, seed=1)
    assert {f.kind for f in fs} == {"coordinate", "step_pairing"}
    _check_residuals(phi, fs, sample_regions(3, seed=2))


# -- abscont: one integral per distinct pool region ------------------------------


def test_readme_abscont_integrates_each_distinct_region_once(tmp_path, monkeypatch):
    calls = []

    def counted(phi, region, **kw):
        calls.append((region.exp, region.lo, region.hi))
        return indefinite_integral(phi, region, **kw)

    monkeypatch.setattr(integrate, "indefinite_integral", counted)
    out = tmp_path / "abscont.json"
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["abscont", "--fn", "3f", "--etas", "2^-2,2^-4,2^-6",
                         "--deterministic", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["result"]["pool_size"] == 24
    # sample_regions returns [0, eta] twice per eta: 3 repeats in a pool of 24
    assert len(calls) == len(set(calls)) == 21
