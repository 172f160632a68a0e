"""The sampling kernels against plain-python oracles.

Every kernel has an oracle here, written as a linear scan; the numpy kernel
must match it exactly, hit for hit, and the piecewise polynomial bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab import _kernels
from gaugelab.rng import stream


def py_piece_counts(samples, cuts):
    counts = [0] * (len(cuts) + 1)
    for x in samples:
        idx = 0
        for c in cuts:
            if x >= c:
                idx += 1
            else:
                break
        counts[idx] += 1
    return counts


def py_map_unit(unit, cum, los):
    out = []
    for u in unit:
        x = u * cum[-1]
        idx = 0
        while idx < len(cum) and x >= cum[idx]:
            idx += 1
        if idx == len(cum):
            idx -= 1
        before = 0.0 if idx == 0 else cum[idx - 1]
        out.append(los[idx] + (x - before))
    return out


def py_step_eval(x, cuts, vals):
    idx = 0
    for c in cuts:
        if x >= c:
            idx += 1
        else:
            break
    return vals[idx]


def py_step_hits(t_pts, u_pts, members, alpha, beta):
    hits = 0
    for s in range(t_pts.shape[0]):
        for cuts, vals in members:
            if all(py_step_eval(t_pts[s, i], cuts, vals) <= alpha for i in range(t_pts.shape[1])) and \
               all(py_step_eval(u_pts[s, j], cuts, vals) >= beta for j in range(u_pts.shape[1])):
                hits += 1
                break
    return hits


def py_pairsum_hits(t_pts, u_pts, h_lo, h_hi):
    def in_h(x):
        return any(lo <= x <= hi for lo, hi in zip(h_lo, h_hi))

    hits = 0
    for s in range(t_pts.shape[0]):
        us = list(u_pts[s])
        ok = True
        for i in range(len(us)):
            for j in range(i + 1, len(us)):
                if us[i] != us[j] and in_h(us[i] + us[j]):
                    ok = False
        for t in t_pts[s]:
            if t in us:
                ok = False
        if ok:
            hits += 1
    return hits


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_piece_counts_matches_oracle(seed, pieces):
    xs = stream(seed, 0).random(400)
    cuts = np.sort(stream(seed, 1).random(pieces - 1)) if pieces > 1 else np.zeros(0)
    got = _kernels.piece_counts(xs, cuts)
    assert list(got) == py_piece_counts(xs, cuts)
    assert int(np.sum(got)) == 400


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_map_unit_to_region_matches_oracle(seed, parts):
    lengths = stream(seed, 2).random(parts) * 0.2 + 0.01
    los = np.cumsum(np.concatenate([[0.0], lengths[:-1] + 0.05]))
    cum = np.cumsum(lengths)
    unit = stream(seed, 3).random(300)
    got = _kernels.map_unit_to_region(unit, cum, los)
    assert np.array_equal(got, np.array(py_map_unit(unit, cum, los)))
    # every mapped point lies inside some part
    inside = np.zeros(len(got), dtype=bool)
    for lo, ln in zip(los, lengths):
        inside |= (got >= lo) & (got <= lo + ln)
    assert inside.all()


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
def test_step_family_hits_matches_oracle(seed, m, n, fam_size):
    rng = stream(seed, 4)
    t_pts = np.ascontiguousarray(rng.random((200, m)))
    u_pts = np.ascontiguousarray(rng.random((200, n)))
    members = []
    for k in range(fam_size):
        cuts = np.sort(stream(seed, 5 + k).random(k + 1))
        vals = np.round(stream(seed, 9 + k).random(k + 2), 2)
        members.append((cuts, vals))
    alpha, beta = 0.35, 0.65
    expect = py_step_hits(t_pts, u_pts, members, alpha, beta)
    cuts_off = np.cumsum([0] + [len(c) for c, _ in members]).astype(np.int64)
    vals_off = np.cumsum([0] + [len(v) for _, v in members]).astype(np.int64)
    cuts_flat = np.concatenate([c for c, _ in members])
    vals_flat = np.concatenate([v for _, v in members])
    got = _kernels.step_family_hits(t_pts, u_pts, cuts_flat, cuts_off, vals_flat,
                                    vals_off, alpha, beta)
    assert got == expect


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 2), st.integers(2, 3))
def test_pairsum_hits_matches_oracle(seed, m, n):
    rng = stream(seed, 6)
    # quantize so exact collisions actually occur
    t_pts = np.ascontiguousarray(np.floor(rng.random((300, m)) * 8) / 8)
    u_pts = np.ascontiguousarray(np.floor(rng.random((300, n)) * 8) / 8)
    h_lo = np.array([0.5])
    h_hi = np.array([0.75])
    got = _kernels.pairsum_family_hits(t_pts, u_pts, h_lo, h_hi)
    assert got == py_pairsum_hits(t_pts, u_pts, h_lo, h_hi)


def py_piecewise_poly(x, cuts, cells):
    cell = cells[sum(1 for c in cuts if x >= c)]
    row = []
    for coeffs in cell:
        acc = 0.0
        for ck in reversed(coeffs):
            acc = acc * x + ck
        row.append(acc)
    return row


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3), st.integers(1, 4))
def test_piecewise_poly_matches_oracle_bit_for_bit(seed, pieces, dim, degree):
    xs = stream(seed, 10).random(300)
    cuts = np.sort(stream(seed, 11).random(pieces - 1))
    coeffs = stream(seed, 12).random((pieces, dim, degree)) * 4 - 2
    cells = [[list(map(float, c)) for c in cell] for cell in coeffs]
    got = _kernels.piecewise_poly(xs, cuts, cells)
    expect = np.array([py_piecewise_poly(x, cuts, cells) for x in xs])
    assert got.shape == (300, dim) and got.tobytes() == expect.tobytes()


def test_philox_stream_reproducible():
    a = stream(123, 7).random(5)
    b = stream(123, 7).random(5)
    c = stream(123, 8).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
