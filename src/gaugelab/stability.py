"""Separation-set measure estimation for finite function families.

For a family A of maps [0,1] -> R, a region E, counts m, n and thresholds
alpha < beta, the separation set Z(A,E,m,n,alpha,beta) collects the tuples
(t_1..t_m, u_1..u_n) in E^(m+n) for which some member sits at or below alpha
on every t and at or above beta on every u.  A family is small in the relevant
sense exactly when some (m,n) makes Z measurably smaller than the full cube
(mu E)^(m+n); the scan below hunts for such a witness with seeded Monte Carlo,
reporting "inconclusive" whenever the estimate sits within the confidence
margin of the threshold rather than resolving boundary cases.

Everything the samples feed is float64, but every verdict is computed from the
integer hit count with exact rational arithmetic, so reports are reproducible
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .exact import Region, format_region
from .integrands import STEP, IntegrandFn, paired_polys
from .rng import uniform_blocks
from .spaces import DualFunctional, sqrt_enclosure

if TYPE_CHECKING:
    import numpy as np

# 95% two-sided normal quantile, as the rational the reports use
_Z95 = Fraction(196, 100)

# Sampling memory is bounded by the block size (rng.BLOCK_ELEMENTS), but time
# grows with the sample count times m + n (the pair-sum kernel loops over
# every pair of u columns), so both are capped.  At both caps one estimate
# over the depth-12 3f trace, the slowest family, took 26 s on 2 cores.
MAX_SAMPLES = 4_000_000
MAX_TUPLE = 12


class Member(NamedTuple):
    """One family member as data: breaks b_0 = 0 < ... < b_k = 1 (dyadic)
    and one level per half-open cell [b_i, b_{i+1}), the last cell closed.
    A step member's level is a rational; a polynomial member's level is the
    cell's exact coefficient tuple, lowest degree first."""

    member_id: str
    breaks: tuple
    levels: tuple


class FunctionFamily:
    """Finite family of piecewise maps [0,1] -> R, or the pair-sum class.

    Members are data (see Member).  klass "piecewise-step" members hold one
    rational level per cell and feed the step sampling kernel; "evaluator"
    members hold one exact polynomial per cell, sampled through the float
    polynomial kernel.  klass "pairsum" is not a finite list: it stands for
    every {0,1}-valued function subject to the constraint that no two distinct
    points summing into the region H may both take the value 1.  Its
    separation predicate is evaluated in closed form, which is what lets the
    scan compare against the exact plane-measure bound.
    """

    def __init__(self, klass: str, members: Sequence[Member] = (), h: Region | None = None,
                 label: str = "family", metadata: dict | None = None):
        if klass not in ("piecewise-step", "evaluator", "pairsum"):
            raise ValueError(f"unknown family class {klass!r}")
        if klass == "pairsum" and h is None:
            raise ValueError("pairsum family needs the avoid region H")
        self.klass = klass
        self.members = list(members)
        self.h = h
        self.label = label
        self.metadata = dict(metadata or {})

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_steps(cls, steps: Sequence[tuple], label: str = "steps") -> "FunctionFamily":
        members = [Member(f"{label}[{i}]", tuple(b), tuple(Fraction(v) for v in lv))
                   for i, (b, lv) in enumerate(steps)]
        return cls("piecewise-step", members, label=label)

    @classmethod
    def from_polys(cls, breaks: Sequence, polys: Sequence[Sequence],
                   label: str = "polys") -> "FunctionFamily":
        """Members on shared breaks; polys[i][c] is member i's coefficient
        sequence on cell c, lowest degree first."""
        breaks = tuple(breaks)
        members = [Member(f"{label}[{i}]", breaks,
                          tuple(tuple(Fraction(x) for x in coeffs) for coeffs in cells))
                   for i, cells in enumerate(polys)]
        return cls("evaluator", members, label=label)

    @classmethod
    def pairsum(cls, h: Region, label: str = "pairsum") -> "FunctionFamily":
        return cls("pairsum", h=h, label=label)

    def __len__(self):
        return len(self.members)

    def describe(self) -> dict:
        out = {"class": self.klass, "label": self.label, "size": len(self.members)}
        if self.klass == "pairsum":
            out["h"] = format_region(self.h)
        return out


def family_from_integrand(phi: IntegrandFn, functionals: Sequence[DualFunctional],
                          label: str | None = None) -> FunctionFamily:
    """The scalar trace {f o phi : f in functionals} as a FunctionFamily.

    Step integrands give a piecewise-step family, one level f(v) per cell;
    polynomial integrands give an evaluator family whose level on each cell
    is the exact coefficient tuple of f(phi(t)).
    """
    label = label or f"trace({phi.label})"
    if phi.klass == STEP:
        steps = [(phi.breaks, tuple(f(v) for v in phi.values)) for f in functionals]
        return FunctionFamily.from_steps(steps, label=label)
    return FunctionFamily.from_polys(phi.breaks, [paired_polys(f, phi) for f in functionals],
                                     label=label)


@dataclass
class ZQuery:
    region: Region
    m: int
    n: int
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        self.alpha = Fraction(self.alpha)
        self.beta = Fraction(self.beta)
        if self.alpha >= self.beta:
            raise ValueError("alpha must be < beta")
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be >= 1")
        if self.m + self.n > MAX_TUPLE:
            raise ValueError(f"m + n must be at most {MAX_TUPLE}, got {self.m + self.n}")
        if self.region.measure().as_fraction() <= 0:
            raise ValueError("region must have positive measure")

    @property
    def threshold(self) -> Fraction:
        return self.region.measure().as_fraction() ** (self.m + self.n)


def _floats(xs: Sequence[int], exp: int) -> np.ndarray:
    """xs / 2^exp, each correctly rounded, as float(Dyadic(x, exp)) is."""
    import numpy as np
    one = 1 << exp
    return np.array([x / one for x in xs], dtype=np.float64)


def _region_arrays(region: Region):
    lengths = _floats([b - a for a, b in zip(region.lo, region.hi)], region.exp)
    return lengths.cumsum(), _floats(region.lo, region.exp)


def _hit_counter(A: FunctionFamily, alpha: Fraction, beta: Fraction):
    """(t_pts, u_pts) -> the number of tuples in Z, with the family's float
    arrays built here once, however many blocks of samples it then counts."""
    import numpy as np
    from . import _kernels
    if A.klass == "pairsum":
        h = A.h
        h_lo, h_hi = _floats(h.lo, h.exp), _floats(h.hi, h.exp)
        return lambda t_pts, u_pts: _kernels.pairsum_family_hits(t_pts, u_pts, h_lo, h_hi)
    if not A.members:
        return lambda t_pts, u_pts: 0
    af, bf = float(alpha), float(beta)
    if A.klass == "piecewise-step":
        cuts_chunks, vals_chunks = [], []
        for member in A.members:
            cuts_chunks.append(np.array([float(b) for b in member.breaks[1:-1]]))
            vals_chunks.append(np.array([float(v) for v in member.levels]))
        cuts_off = np.cumsum([0] + [len(c) for c in cuts_chunks]).astype(np.int64)
        vals_off = np.cumsum([0] + [len(v) for v in vals_chunks]).astype(np.int64)
        cuts_flat = np.concatenate(cuts_chunks) if cuts_chunks else np.zeros(0)
        vals_flat = np.concatenate(vals_chunks)
        return lambda t_pts, u_pts: _kernels.step_family_hits(
            t_pts, u_pts, cuts_flat, cuts_off, vals_flat, vals_off, af, bf)
    members = [(np.array([float(b) for b in member.breaks[1:-1]]),
                [[[float(c) for c in coeffs]] for coeffs in member.levels])
               for member in A.members]

    def count(t_pts: np.ndarray, u_pts: np.ndarray) -> int:
        hit = np.zeros(t_pts.shape[0], dtype=bool)
        for cuts, cells in members:
            tv = _kernels.piecewise_poly(t_pts.ravel(), cuts, cells)[:, 0].reshape(t_pts.shape)
            uv = _kernels.piecewise_poly(u_pts.ravel(), cuts, cells)[:, 0].reshape(u_pts.shape)
            hit |= np.all(tv <= af, axis=1) & np.all(uv >= bf, axis=1)
        return int(np.count_nonzero(hit))
    return count


def z_measure_mc(A: FunctionFamily, q: ZQuery, samples: int = 100_000,
                 seed: int = 0) -> dict:
    """Seeded Monte Carlo estimate of mu(Z) with a 95% confidence half-width.

    Draws (t,u) tuples uniformly from E^(m+n) via the inverse-CDF map, in
    blocks of one stream, and adds up the blocks' hit counts; the estimate
    is the hit fraction scaled by (mu E)^(m+n).  The half-width is a
    normal-approximation interval with continuity correction, computed as an
    exact rational upper bound.  comparison is "strictly-below" only when
    estimate + half_width clears the threshold; boundary cases are
    "inconclusive" by design.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be at most {MAX_SAMPLES}, got {samples}")
    import numpy as np
    from . import _kernels
    cum, los = _region_arrays(q.region)
    count = _hit_counter(A, q.alpha, q.beta)
    hits = 0
    for raw in uniform_blocks(seed, 11, samples, q.m + q.n):
        pts = _kernels.map_unit_to_region(raw.ravel(), cum, los).reshape(raw.shape)
        hits += count(np.ascontiguousarray(pts[:, :q.m]), np.ascontiguousarray(pts[:, q.m:]))
    p_hat = Fraction(hits, samples)
    threshold = q.threshold
    se = sqrt_enclosure(p_hat * (1 - p_hat) / samples).hi
    half_width = (_Z95 * se + Fraction(1, 2 * samples)) * threshold
    estimate = p_hat * threshold
    if estimate + half_width < threshold:
        comparison = "strictly-below"
    elif estimate - half_width > threshold:
        comparison = "above-threshold"  # cannot happen for true Z sets; flags bad input
    else:
        comparison = "inconclusive"
    return {
        "family": A.label,
        "m": q.m,
        "n": q.n,
        "alpha": q.alpha,
        "beta": q.beta,
        "samples": samples,
        "seed": seed,
        "hits": hits,
        "estimate": estimate,
        "half_width": half_width,
        "threshold": threshold,
        "comparison": comparison,
    }


def stability_scan(A: FunctionFamily, E_list: Sequence[Region],
                   ab_list: Sequence[tuple], mn_max: int = 3,
                   samples: int = 20_000, seed: int = 0,
                   margin: Fraction = Fraction(1, 100)) -> dict:
    """Search (m,n) with m,n <= mn_max for a certified-strict witness.

    A witness is recorded when estimate + half_width + margin*threshold falls
    below (mu E)^(m+n); cells inside the margin stay "inconclusive" and the
    scan moves on.  Scanning order is by total m+n, then by m, so the first
    witness is the combinatorially cheapest one.
    """
    margin = Fraction(margin)
    if margin <= 0:
        raise ValueError("margin must be > 0")
    if 2 * mn_max > MAX_TUPLE:
        raise ValueError(f"mn_max must be at most {MAX_TUPLE // 2}, so that m + n stays "
                         f"at most {MAX_TUPLE}; got {mn_max}")
    rows = []
    run = 0
    for E in E_list:
        for alpha, beta in ab_list:
            cells = []
            witness = None
            for total in range(2, 2 * mn_max + 1):
                for m in range(max(1, total - mn_max), min(mn_max, total - 1) + 1):
                    n = total - m
                    q = ZQuery(E, m, n, Fraction(alpha), Fraction(beta))
                    res = z_measure_mc(A, q, samples=samples, seed=seed + 7919 * run)
                    run += 1
                    certified = res["estimate"] + res["half_width"] + margin * res["threshold"] < res["threshold"]
                    cells.append({**res, "witness": certified})
                    if certified and witness is None:
                        witness = {"m": m, "n": n}
                if witness:
                    break
            rows.append(
                {
                    "region": format_region(E),
                    "alpha": Fraction(alpha),
                    "beta": Fraction(beta),
                    "witness": witness,
                    "cells": cells,
                }
            )
    return {"family": A.describe(), "mn_max": mn_max, "margin": margin, "rows": rows}


def _corner(s: Fraction) -> Fraction:
    return s * s / 2 if s > 0 else Fraction(0)


def pairsum_z_bound(H: Region, E: Region) -> Fraction:
    """Exact plane measure of {(u0,u1) in E^2 : u0+u1 in H}.

    Decomposed over part rectangles: the sub-level area {x+y <= s} of a
    rectangle is an alternating sum of corner triangles s^2/2, so each
    (E-part, E-part, H-part) triple contributes a difference of two such
    alternating sums.  Supports the three-point bound
    mu_3 Z <= mu E ((mu E)^2 - gamma).
    """
    gamma = Fraction(0)
    for p in E.parts:
        for q in E.parts:
            a1, b1 = p.lo.as_fraction(), p.hi.as_fraction()
            a2, b2 = q.lo.as_fraction(), q.hi.as_fraction()

            def below(s: Fraction) -> Fraction:
                return (
                    _corner(s - a1 - a2)
                    - _corner(s - b1 - a2)
                    - _corner(s - a1 - b2)
                    + _corner(s - b1 - b2)
                )

            for h in H.parts:
                gamma += below(h.hi.as_fraction()) - below(h.lo.as_fraction())
    return gamma
