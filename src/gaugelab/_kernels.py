"""Hot sampling loops, vectorised with numpy.

Every lookup follows searchsorted(side="right"), so cells are right-open.  The
four sampling kernels reduce to integer counts, so the verdicts built on them
stay exact rationals; `piecewise_poly` returns the float values themselves.
"""

from __future__ import annotations

import numpy as np

# numpy is the only backend; the flag stays for readers that report it
USING_NUMBA = False


def piece_counts(samples: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Histogram of samples over cells cut by `cuts` (right-open cells)."""
    idx = np.searchsorted(cuts, samples, side="right")
    return np.bincount(idx, minlength=len(cuts) + 1).astype(np.int64)


def map_unit_to_region(unit: np.ndarray, cum: np.ndarray, los: np.ndarray) -> np.ndarray:
    """Inverse-CDF map of uniforms in [0,1) onto a region given part offsets."""
    total = cum[-1]
    t = unit * total
    if len(cum) == 1:  # one part: t - 0.0 is t, so this is the search's result
        return los[0] + t
    idx = np.searchsorted(cum, t, side="right")
    idx = np.minimum(idx, len(cum) - 1)
    before = np.concatenate((np.zeros(1), cum))[idx]
    return los[idx] + (t - before)


def step_family_hits(
    t_pts: np.ndarray,
    u_pts: np.ndarray,
    cuts_flat: np.ndarray,
    cuts_off: np.ndarray,
    vals_flat: np.ndarray,
    vals_off: np.ndarray,
    alpha: float,
    beta: float,
) -> int:
    """Tuples for which some step member is <= alpha on every t and >= beta
    on every u; member m owns cuts_flat[cuts_off[m]:cuts_off[m+1]] and the
    matching slice of vals_flat."""
    n_members = len(cuts_off) - 1
    hit = np.zeros(t_pts.shape[0], dtype=bool)
    for m in range(n_members):
        cuts = cuts_flat[cuts_off[m]:cuts_off[m + 1]]
        vals = vals_flat[vals_off[m]:vals_off[m + 1]]
        tv = vals[np.searchsorted(cuts, t_pts, side="right")]
        uv = vals[np.searchsorted(cuts, u_pts, side="right")]
        ok = np.all(tv <= alpha, axis=1) & np.all(uv >= beta, axis=1)
        hit |= ok
    return int(np.count_nonzero(hit))


def pairsum_family_hits(
    t_pts: np.ndarray, u_pts: np.ndarray, h_lo: np.ndarray, h_hi: np.ndarray
) -> int:
    """Tuples whose distinct u pairs never sum into H = union [h_lo, h_hi]
    and whose t's never equal a u."""
    s, n = u_pts.shape
    ok = np.ones(s, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            sums = u_pts[:, i] + u_pts[:, j]
            in_h = np.zeros(s, dtype=bool)
            k = np.searchsorted(h_lo, sums, side="right") - 1
            valid = k >= 0
            in_h[valid] = sums[valid] <= h_hi[k[valid]]
            same = u_pts[:, i] == u_pts[:, j]
            ok &= same | ~in_h
    for i in range(t_pts.shape[1]):
        clash = np.zeros(s, dtype=bool)
        for j in range(n):
            clash |= t_pts[:, i] == u_pts[:, j]
        ok &= ~clash
    return int(np.count_nonzero(ok))


def piecewise_poly(xs: np.ndarray, cuts: np.ndarray, cells) -> np.ndarray:
    """Values at finite xs of a piecewise polynomial map, one row per x:
    cells[c][j] holds coordinate j's float coefficients on cell c, lowest
    degree first.

    One gathered Horner pass per coordinate over all the samples: row c of
    the table holds cell c's coefficients highest degree first, with zeros
    padded in front up to the longest list.  From a zero accumulator a
    padded step gives 0 * x + 0 = +0.0 again, so every x runs exactly its own
    cell's Horner steps, bit for bit.  Without cuts the cell index is the
    scalar 0 and no search runs."""
    idx = np.searchsorted(cuts, xs, side="right") if len(cuts) else 0
    width = max((len(coeffs) for coords in cells for coeffs in coords), default=0)
    table = np.zeros((len(cells), len(cells[0]), width))
    for c, coords in enumerate(cells):
        for j, coeffs in enumerate(coords):
            table[c, j, width - len(coeffs):] = coeffs[::-1]
    out = np.zeros((len(xs), len(cells[0])))
    for j in range(len(cells[0])):
        acc = np.zeros(len(xs))
        for k in range(width):
            acc = acc * xs + table[idx, j, k]
        out[:, j] = acc
    return out
