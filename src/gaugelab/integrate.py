"""Gauge-limit, dual-pairing, empirical-mean and simple-function integration.

Every operation here reports either exact rationals or certified enclosures,
and the approximate verdicts (convergence, residual checks, stability of
empirical means) always state the finite protocol that produced them: a
convergence status is relative to the gauge schedule that was run, never a
claim about all gauges.

Riemann sums and empirical means are regrouped by integrand cell: one integer
pass over a partition's columns, or over seeded uniforms k / 2^53 with k an
int, adds up per-cell lengths, counts or power moments, so rationals enter
once per cell, not once per item or sample, and the result is exact.  Only
the empirical means read numpy's float uniforms and import numpy; sampled
regions and functionals draw Python ints from `rng.IntStream`.

Gauge sums bisect only where the integrand can be nonzero: Cousin bisection
is handed the integrand's support and builds only the items that meet it.
Every sum is still that of a partition of all of [0,1] subordinate to the
gauge: the dropped nodes have such partitions by Cousin's lemma, and their
items, tagged where phi is 0, add nothing.  So the depth cap counts only on
the support.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import UnsupportedExactIntegration
from .exact import (D0, D1, Dyadic, Interval, Region, UNIT_REGION, canonical_exp,
                    format_region, merged_region)
from .gauges import Gauge, TaggedPartition, cousin_partition
from .integrands import (
    STEP,
    IntegrandFn,
    adapted_gauge,
    exact_vector_integral,
    restrict_integrand,
)
from .rng import IntStream, uniform_blocks
from .spaces import (L2, DualFunctional, ValueSpace, VectorValue, distance, linear_combination,
                     spread, squared_distances)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOL = Fraction(1, 1 << 10)


# -- finite sums -------------------------------------------------------------


def riemann_sum(phi: IntegrandFn, p: TaggedPartition) -> VectorValue:
    """Sum of |interval| * phi(tag); exact in the integrand's value space.

    The partition's columns give each item's length L = w / 2^e and tag
    a / 2^e as the ints w and a.  A step integrand adds up the w of each
    cell, then makes one linear combination over the cells in cell order,
    each value weighted by W_c / 2^e; that combination runs in ints over
    the values' run columns (see `linear_combination`).  A
    polynomial integrand adds up the int moments S_k = sum w * a^k of each
    cell; coordinate j is then sum over cells and k of c_jk * S_k /
    2^(e(k+1)) (`_poly_sums`).  Cells whose coefficients are all zero keep no
    moments, and zero-length items add nothing.
    """
    e = p.exp
    cell_at = phi.cell_at
    if phi.klass == STEP:
        weights = [0] * len(phi.values)
        for lo, hi, t in zip(p.lo, p.hi, p.tag):
            weights[cell_at(t, e)] += hi - lo
        return linear_combination(phi.space, (
            (Fraction(w, 1 << e), v) for w, v in zip(weights, phi.values) if w))
    # moments per cell up to its highest nonzero coefficient, over all coordinates
    orders = [max((k + 1 for coeffs in cell for k, c in enumerate(coeffs) if c), default=0)
              for cell in phi.polys]
    moments = [[0] * order for order in orders]
    for lo, hi, a in zip(p.lo, p.hi, p.tag):
        w = hi - lo
        s = moments[cell_at(a, e)]
        if w and s:
            for k in range(len(s)):
                s[k] += w
                w *= a
    nums, den = _poly_sums(phi.polys, moments, e)
    return VectorValue.coords(phi.space, [Fraction(x, den << e) for x in nums])


def _poly_sums(polys, moments, e: int) -> tuple[list[int], int]:
    """(nums, den) with nums[j] / den the sum over cells c and powers k of
    a_cjk S_ck / 2^(e k), for the coefficient lists polys[c][j] and the int
    moments S_c of each cell.  In ints: the coefficients over the lcm of
    their denominators, and each S_k over 2^(e (top - 1)), top the length of
    the longest moment list."""
    top = max([1, *map(len, moments)])
    den = lcm(*(c.denominator for cell in polys for p in cell for c in p))
    nums = [0] * len(polys[0])
    for cell, s in zip(polys, moments):
        scaled = [m << e * (top - 1 - k) for k, m in enumerate(s)]
        for j, coeffs in enumerate(cell):
            nums[j] += sum(c.numerator * (den // c.denominator) * m
                           for c, m in zip(coeffs, scaled))
    return nums, den << e * (top - 1)


# -- gauge-limit integration ---------------------------------------------------


@dataclass
class IntegralEstimate:
    """The result of a gauge-limit run: its value, oscillation and status,
    and a trace with one row {"level", "gauge", "oscillation"} per level run.

    Each level runs its trials in order and stops once they spread more
    than tol (see `mcshane_integrate`), so a row's oscillation is the spread
    of the trials that level ran.  `value` and `oscillation` are the last
    level's last sum and row oscillation, converged or not: an unconverged
    run reports the trials its last level ran before it stopped.
    """

    value: VectorValue
    oscillation: Fraction
    status: str  # converged | oscillation-floor | max-level
    trace: list[dict]

    @property
    def converged(self) -> bool:
        return self.status == "converged"


_STRATEGIES = ("mid", "left", "sampled")

# the bisection depth cap of every trial partition, counted on the support
MAX_DEPTH = 60


def _schedule_gauges(phi: IntegrandFn, schedule, max_levels: int):
    """The schedule's gauges in level order.  Named schedules come from a
    generator, so a run that converges early never builds the later levels.
    No schedule means "adapted": an integrand converges under its own
    breakpoint structure, where a uniform schedule stalls once cells outpace
    max_levels."""
    if schedule is None:
        schedule = "adapted"
    if isinstance(schedule, str):
        if schedule == "auto":
            return (Gauge.const(Fraction(1, 1 << k)) for k in range(max_levels))
        if schedule == "adapted":
            return (adapted_gauge(phi, k) for k in range(2, 2 + max_levels))
        raise ValueError(f"unknown schedule {schedule!r}")
    return list(schedule)


def mcshane_integrate(
    phi: IntegrandFn,
    schedule=None,
    tol: Fraction = DEFAULT_TOL,
    trials_per_level: int = 3,
    max_levels: int = 12,
    seed: int = 0,
) -> IntegralEstimate:
    """Riemann sums over subordinate partitions along a gauge schedule.

    Level k under gauge g has trials i = 0, 1, ...: the Riemann sum over
    the Cousin partition with tag strategy mid, left, sampled, mid, ... and
    seed seed * 100003 + 97 k + i.  The level oscillation is the largest
    pairwise distance between its trial sums.  `converged` means the
    oscillation fell below tol for the schedule that was run — a
    schedule-relative statement, deterministic given the seed.  "auto" is the
    constant schedule delta_k = 2^-k; "adapted" follows the integrand's
    piecewise structure, is what the closed-form-aware callers use, and is
    the default.

    The stop rule: a level runs its trials in order and stops as soon as the
    trials so far spread more than tol, since more trials only widen the
    spread; its oscillation is the spread of those that ran.  The first
    level whose trials all run within tol converges, with its last sum.  A
    run past its last level is "oscillation-floor" if at least three levels
    ran and each of the last two kept at least 3/4 of the oscillation before
    it (steady convergence at rate 1/2 is not a floor), else "max-level";
    it reports the last level's last sum and oscillation, or the zero value
    and 0 if no level ran.  No trial runs after the run returns.

    Every trial bisects only the integrand's support, worked out once, so
    MAX_DEPTH bounds the bisection there alone and a gauge that is tiny only
    where phi vanishes does not raise.  An integrand with empty support
    builds no partition: every sum is its zero value.
    """
    if trials_per_level < 2:
        raise ValueError("need at least two trials per level to measure oscillation")
    gauges = _schedule_gauges(phi, schedule, max_levels)
    zero = VectorValue.zero(phi.space)
    support = phi.support()

    def trial(g: Gauge, level_seed: int, i: int) -> VectorValue:
        if support.is_empty():
            return zero
        return riemann_sum(phi, cousin_partition(
            g,
            tag_strategy=_STRATEGIES[i % len(_STRATEGIES)],
            max_depth=MAX_DEPTH,
            seed=level_seed + i,
            support=support,
        ))

    value, osc, oscs, trace = zero, Fraction(0), [], []
    for k, g in enumerate(gauges):
        level_seed = seed * 100003 + k * 97
        sums, osc = [trial(g, level_seed, 0)], Fraction(0)
        while osc <= tol and len(sums) < trials_per_level:
            sums.append(trial(g, level_seed, len(sums)))
            osc = spread(sums)
        value = sums[-1]
        trace.append({"level": k, "gauge": g.kind, "oscillation": str(osc)})
        if osc <= tol:
            return IntegralEstimate(value, osc, "converged", trace)
        oscs.append(osc)
    floored = len(oscs) >= 3 and all(4 * b >= 3 * a for a, b in zip(oscs[-3:], oscs[-2:]))
    return IntegralEstimate(value, osc, "oscillation-floor" if floored else "max-level", trace)


def indefinite_integral(
    phi: IntegrandFn,
    region: Region,
    tol: Fraction = DEFAULT_TOL,
    seed: int = 0,
) -> IntegralEstimate:
    """Gauge integral of phi restricted to the region (the set map E -> nu(E))."""
    return mcshane_integrate(restrict_integrand(phi, region), tol=tol, seed=seed)


# -- dual-route checks ---------------------------------------------------------


def pettis_check(
    phi: IntegrandFn,
    functionals: Sequence[DualFunctional],
    regions: Sequence[Region],
    tol: Fraction = DEFAULT_TOL,
    seed: int = 0,
    inner_tol: Fraction | None = None,
) -> dict:
    """Compare f(nu(E)) from gauge sums against f of the exact closed form.

    Two genuinely different routes: nu(E) comes from subordinate-partition
    Riemann sums of the restricted integrand, the exact side is the
    closed-form vector integral I(E), worked out once per region from
    per-cell antiderivatives.  Each residual is |f(nu(E) - I(E))|, the gap
    taken once per region: f is linear and every value is an exact
    rational, so it is the same rational as |f(nu(E)) - f(I(E))|, with one
    application of f instead of two.  Functionals must carry norm_bound <= 1.
    """
    for f in functionals:
        if f.norm_bound > 1:
            raise ValueError(f"functional {f.label} has norm bound {f.norm_bound} > 1")
    inner = inner_tol if inner_tol is not None else tol / 4
    entries = []
    max_residual = Fraction(0)
    for ei, region in enumerate(regions):
        est = indefinite_integral(phi, region, tol=inner, seed=seed + ei)
        gap = est.value - exact_vector_integral(phi, region)
        label = format_region(region)
        for fi, f in enumerate(functionals):
            residual = abs(f(gap))
            if residual > max_residual:
                max_residual = residual
            entries.append(
                {
                    "region": label,
                    "functional": fi,
                    "residual": str(residual),
                    "converged": est.converged,
                }
            )
    return {
        "max_residual": max_residual,
        "pass": max_residual <= tol,
        "tol": tol,
        "entries": entries,
        "n_functionals": len(functionals),
        "n_regions": len(regions),
    }


def interval_series_check(
    phi: IntegrandFn,
    blocks: Sequence[Region],
    tol: Fraction = DEFAULT_TOL,
    window_start: int | None = None,
    seed: int = 0,
) -> dict:
    """Partial sums of nu(block_i); reports the worst late-window gap.

    Unconditional-convergence probe: the blocks may come in any order, and the
    check passes iff max over window_start <= j < k <= N of |S_k - S_j| <= tol.
    The window must hold at least one pair, so 0 <= window_start < N.
    """
    n = len(blocks)
    lo = n // 2 if window_start is None else window_start
    if not 0 <= lo < n:
        raise ValueError(f"window start {lo} leaves no partial sums to compare "
                         f"among {n} blocks (need 0 <= start < {n})")
    partials = [VectorValue.zero(phi.space)]
    acc = partials[0]
    block_norms = []
    for bi, block in enumerate(blocks):
        est = indefinite_integral(phi, block, tol=tol / 4, seed=seed + bi)
        acc = acc + est.value
        partials.append(acc)
        block_norms.append(est.value.norm().hi)
    tail_max = spread(partials[lo:])
    return {
        "n_blocks": n,
        "window_start": lo,
        "tail_max": tail_max,
        "pass": tail_max <= tol,
        "tol": tol,
        "block_norms": [str(b) for b in block_norms],
        "partials": partials,
    }


def _trim_depth(exp: int) -> int:
    """Depth of the grid on which _trim_region_to_measure cuts a part whose
    left end has exponent exp."""
    return max(exp, 40) + 12


def _trim_region_to_measure(region: Region, target: Fraction) -> Region:
    """Largest prefix of the region's parts with measure <= target (exact).

    In ints at E = _trim_depth(region.exp), past every part's trim grid, the
    budget left is rem / (den * 2^E); the part that overruns it is cut on the
    _trim_depth grid of its left end's canonical exponent."""
    e, den = region.exp, target.denominator
    E = _trim_depth(e)
    rem = target.numerator << E
    lo: list[int] = []
    hi: list[int] = []
    for a, b in zip(region.lo, region.hi):
        a, b = a << (E - e), b << (E - e)
        if (b - a) * den <= rem:
            lo.append(a)
            hi.append(b)
            rem -= (b - a) * den
        elif rem > 0:
            k = E - _trim_depth(canonical_exp(a, E))
            end = (a * den + rem) // (den << k) << k
            if end > a:
                lo.append(a)
                hi.append(end)
            rem = 0
    return Region._columns(E, lo, hi)


def sample_regions(
    count: int, seed: int, max_measure: Fraction = Fraction(1), depth: int = 8
) -> list[Region]:
    """Deterministic pool of dyadic regions with measure <= max_measure: the
    unit interval and its halves, trimmed, then draws of 1 to 3 parts."""
    # a drawn part starts at exponent <= depth, so a trimmed draw is empty
    # unless the bound reaches one cell of the finest grid it may be cut on
    floor = Fraction(1, 1 << _trim_depth(depth))
    if max_measure < floor:
        # every draw would be trimmed to the empty region
        raise ValueError(f"regions need a positive measure bound of at least {floor}, "
                         f"got {max_measure}")
    rng = IntStream(seed, 0)
    out = []
    target = min(Fraction(1), max_measure)
    canonical = [
        _trim_region_to_measure(UNIT_REGION, target),
        _trim_region_to_measure(Region.make((D0, Dyadic(1, 1))), target),
        _trim_region_to_measure(Region.make((Dyadic(1, 1), D1)), target),
    ]
    out.extend(canonical[: min(count, 3)])
    while len(out) < count:
        pairs = []
        for _ in range(rng.integers(1, 4)):
            a = rng.integers(0, 1 << depth)
            b = rng.integers(a + 1, (1 << depth) + 1)
            pairs.append((a, b))
        region = _trim_region_to_measure(merged_region(depth, pairs), target)
        if not region.is_empty():
            out.append(region)
    return out


def absolute_continuity(
    phi: IntegrandFn,
    etas: Sequence[Fraction],
    regions_per_eta: int = 8,
    seed: int = 0,
    tol: Fraction = DEFAULT_TOL,
) -> dict:
    """Modulus table eta -> sup ||nu(E)|| over a sampled pool with mu(E) <= eta.

    The pool is shared across etas (each region counts for every eta at or
    above its measure), so the table is nondecreasing by construction.  A
    region the pool holds more than once is integrated once, keyed by its
    int columns, and `pool_size` still counts every repeat.
    """
    etas = sorted(Fraction(e) for e in etas)
    pool: list[Region] = []
    for i, eta in enumerate(etas):
        pool.extend(
            sample_regions(regions_per_eta, seed + 31 * i, max_measure=eta)
        )
    norms: dict[tuple, Fraction] = {}
    measured = []
    for region in pool:
        key = (region.exp, region.lo, region.hi)
        if key not in norms:
            est = indefinite_integral(phi, region, tol=tol, seed=seed)
            norms[key] = est.value.norm().hi
        measured.append((region, region.measure().as_fraction(), norms[key]))
    rows = []
    for eta in etas:
        best = Fraction(0)
        witness = None
        for region, mu, norm_hi in measured:
            if mu <= eta and norm_hi > best:
                best = norm_hi
                witness = region
        rows.append(
            {
                "eta": eta,
                "modulus": best,
                "witness": format_region(witness) if witness is not None else [],
            }
        )
    return {"rows": rows, "pool_size": len(pool)}


def lower_norm_integral(phi: IntegrandFn, grid_depth: int = 8) -> Fraction:
    """Lower Darboux sum of ||phi|| over the dyadic grid refined by the
    integrand's own breakpoints (per-cell certified infimum lower bounds).
    The grid has 2^grid_depth cells, so the depth is held to 0..16."""
    if not 0 <= grid_depth <= 16:
        raise ValueError(f"norm grid depth must be in 0..16, got {grid_depth}")
    e, points = _refined_grid(phi, grid_depth)
    total = Fraction(0)
    for a, b in zip(points, points[1:]):
        total += Fraction(b - a, 1 << e) * phi.norm_lower_on(a, b, e)
    return total


def _refined_grid(phi: IntegrandFn, depth: int) -> tuple[int, list[int]]:
    """(e, cuts): the 2^depth grid merged with phi's keys, as sorted ints at
    exponent e = max(depth, phi.exp)."""
    e = max(depth, phi.exp)
    s, t = e - depth, e - phi.exp
    return e, sorted({i << s for i in range((1 << depth) + 1)}.union(k << t for k in phi.keys))


# -- empirical-mean integration --------------------------------------------------


@dataclass
class TalagrandReport:
    means: list[VectorValue]
    variances: list[Fraction]  # per batch, the sum of ||x - mean||^2 over n - 1
    pooled: VectorValue
    spread: Fraction  # max pairwise distance between batch means


# the largest n of a batch: memory is flat in n and time linear; at the cap
# one batch takes about 0.02 s (`identity`), 0.7 s (degree 2) or 0.9 s (`3f`)
MAX_N = 1_000_000


def _sample_cuts(phi: IntegrandFn) -> np.ndarray:
    """The interior keys as int cuts: a uniform k / 2^53 lies at or past the
    break key / 2^exp iff k >= ceil(key 2^53 / 2^exp)."""
    import numpy as np
    s = 53 - phi.exp
    return np.array([k << s if s >= 0 else -(-k >> -s) for k in phi.keys[1:-1]], np.int64)


def _power_sums(ks: np.ndarray, top: int) -> list[int]:
    """[sum of k^j over the block ks for j = 0..top], exactly.  Up to top = 2
    in int64: k splits into 27 high and 26 low bits, whose products are below
    2^54, so runs of 256 add them up below 2^62, and Python ints add the
    runs.  Past that the powers are Python ints."""
    import numpy as np
    if top > 2:
        big = ks.astype(object)
        return [int((big ** j).sum()) for j in range(top + 1)]
    hi, lo, runs = ks >> 26, ks & 0x3FFFFFF, np.arange(0, len(ks), 256)
    hh, hl, ll = (sum(np.add.reduceat(a * b, runs).tolist())
                  for a, b in ((hi, hi), (hi, lo), (lo, lo)))
    return [len(ks), (int(hi.sum()) << 26) + int(lo.sum()), (hh << 52) + (hl << 27) + ll][:top + 1]


def talagrand_integrate(
    phi: IntegrandFn, seed: int = 0, n: int = 10_000, batches: int = 30
) -> TalagrandReport:
    """Exact empirical means and variances of phi, batch by batch.

    Batch b reads its n uniforms from stream (seed, b + 1) in blocks, so
    memory does not grow with n.  Each is k / 2^53 for an int k, so its cell
    comes from the int cuts of `_sample_cuts`.  A step integrand counts
    samples per cell; a polynomial one of degree D adds up the power sums of
    k to 2D per cell, which give each coordinate's sum and sum of squares.
    The variance of both classes is the sum of ||x - mean||^2 in the space's
    norm over n - 1 (0 for n = 1); a polynomial's in l2, the norm of every
    polynomial integrand the CLI builds (another norm raises).
    """
    import numpy as np
    from . import _kernels
    if n > MAX_N:
        raise ValueError(f"n must be at most {MAX_N}, got {n}")
    poly, cuts, cells = phi.klass != STEP, _sample_cuts(phi), len(phi.keys) - 1
    if poly and phi.space.norm != L2:
        raise ValueError(f"a polynomial's variance is taken in l2, not {phi.space.norm}")
    top = 2 * max(len(p) for cell in phi.polys for p in cell) - 2 if poly else 0
    # per cell, the coordinate polynomials and then their squares (exact, as
    # numpy convolves Fraction coefficients as Python objects)
    polys = [[*cell, *(np.convolve(p, p).tolist() for p in cell)] for cell in phi.polys or ()]
    means, variances = [], []
    for b in range(batches):
        counts = np.zeros(cells, dtype=np.int64)
        sums = [[0] * (top + 1)] * cells
        for u in uniform_blocks(seed, b + 1, n, 1):
            ks = (u.ravel() * 2.0 ** 53).astype(np.int64)
            got = _kernels.piece_counts(ks, cuts) if cells > 1 else np.array([len(ks)])
            counts += got
            if poly:  # each cell's samples, as one run of the sorted block
                runs = [ks] if cells == 1 else np.split(np.sort(ks), np.cumsum(got)[:-1])
                sums = [[x + y for x, y in zip(s, _power_sums(r, top))] if len(r) else s
                        for s, r in zip(sums, runs)]
        if poly:
            nums, den = _poly_sums(polys, sums, 53)
            t, q = nums[:phi.space.dim], nums[phi.space.dim:]
            mean = VectorValue.coords(phi.space, [Fraction(x, n * den) for x in t])
            scatter = Fraction(n * den * sum(q) - sum(x * x for x in t), n * den * den)
        else:
            hit = [(c, val) for c, val in zip(counts.tolist(), phi.values) if c]
            mean = linear_combination(phi.space, ((Fraction(c, n), val) for c, val in hit))
            gaps = squared_distances([val for _, val in hit], mean)
            scatter = sum((c * d for (c, _), d in zip(hit, gaps)), Fraction(0))
        means.append(mean)
        variances.append(scatter / (n - 1) if n > 1 else Fraction(0))
    # every batch has n samples, so the pooled mean is the mean of the means
    pooled = linear_combination(phi.space, ((Fraction(1, batches), m) for m in means))
    return TalagrandReport(means, variances, pooled, spread(means))


# -- simple-function integration ---------------------------------------------------


@dataclass
class BochnerCertificate:
    parts: list  # (Interval, VectorValue) pieces of the simple approximation
    dominator_integral: Fraction  # integral of the dominating error bound h
    value: VectorValue
    epsilon: Fraction

    @property
    def n_parts(self) -> int:
        return len(self.parts)


@dataclass
class NotApproximable:
    lower_bound: Fraction  # proven floor for the L1 distance to simple maps
    piece_budget: int
    separation: Fraction
    cell_measure: Fraction
    reason: str


def bochner_integrate(phi: IntegrandFn, eps: Fraction, max_pieces: int = 64):
    """Simple-function certificate with dominated error, or a proven refusal.

    Integrands flagged with pairwise-separated values (metadata "separation"
    and "separation_cell_measure") get the counting argument: a simple map
    with at most max_pieces pieces is within separation/2 of the integrand on
    at most max_pieces value cells, so the L1 error is at least
    (separation/2) * (1 - max_pieces * cell_measure).  That bound is returned
    when it exceeds eps; it is a statement about the stated piece budget.
    """
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("eps must be >= 0")
    sep = phi.metadata.get("separation")
    cell = phi.metadata.get("separation_cell_measure")
    if sep is not None and cell is not None:
        bound = Fraction(sep) / 2 * (1 - max_pieces * Fraction(cell))
        if bound > eps:
            return NotApproximable(
                lower_bound=bound,
                piece_budget=max_pieces,
                separation=Fraction(sep),
                cell_measure=Fraction(cell),
                reason=(
                    "values are pairwise separated; any simple map with "
                    f"<= {max_pieces} pieces misses by >= {bound}"
                ),
            )
    if phi.klass == STEP:
        parts = [
            (Interval(lo, hi), val)
            for lo, hi, val in zip(phi.breaks, phi.breaks[1:], phi.values)
        ]
        value = exact_vector_integral(phi)
        return BochnerCertificate(parts, Fraction(0), value, eps)
    lip = phi.lipschitz_bound()
    depth = 1
    # dominating bound: |phi(t) - phi(mid)| <= lip * h/2 on each cell
    while lip * Fraction(1, 1 << (depth + 1)) > eps and depth < 30:
        depth += 1
    # count the pieces before building any cut: eps = 0 climbs to depth 30;
    # a key is off the 2^depth grid iff one of its low exp - depth bits is set
    mask = (1 << max(phi.exp - depth, 0)) - 1
    pieces = (1 << depth) + sum(1 for k in phi.keys if k & mask)
    if pieces > max_pieces:
        raise UnsupportedExactIntegration(
            f"a dominated certificate within eps {eps} needs {pieces} pieces "
            f"(depth {depth}); the piece budget is {max_pieces}"
        )
    e, cuts = _refined_grid(phi, depth)
    parts = []
    terms = []
    dom = Fraction(0)
    for a, b in zip(cuts, cuts[1:]):
        x = phi.eval(Fraction(a + b, 2 << e))
        parts.append((Interval(Dyadic(a, e), Dyadic(b, e)), x))
        w = Fraction(b - a, 1 << e)
        terms.append((w, x))
        dom += w * lip * w / 2
    if dom > eps:
        raise UnsupportedExactIntegration(
            f"refinement floor {dom} > eps; raise eps or depth cap"
        )
    return BochnerCertificate(parts, dom, linear_combination(phi.space, terms), eps)


# -- convergence-under-domination harness ----------------------------------------


def vitali_limit(
    phi_seq: Callable[[int], IntegrandFn],
    phi_limit: IntegrandFn,
    functionals: Sequence[DualFunctional],
    regions: Sequence[Region],
    tol: Fraction = DEFAULT_TOL,
    n_max: int = 16,
    seed: int = 0,
) -> dict:
    """Finite-sample convergence verdict for phi_n -> phi.

    H1: pointwise closeness of phi_{n_max} to the limit at the 64 midpoints
    of the 2^-6 grid.
    H2: late-window Cauchy check of the scalar integrals f(int_E phi_n) over
    each region, f applied to one closed-form vector integral per (n, region).
    C:  only claimed when H1 and H2 hold — the gauge integral of the limit
    matches the closed-form vector integral of phi_{n_max} within 3*tol.
    The window must hold at least two terms, so n_max >= 2.
    """
    if n_max < 2:
        raise ValueError(f"n_max {n_max} leaves no pair of terms to compare (need n_max >= 2)")
    sample = [Fraction(2 * i + 1, 128) for i in range(64)]
    phi_last = phi_seq(n_max)
    h1_worst = Fraction(0)
    h1_witness = None
    for x in sample:
        gap = distance(phi_last.eval(x), phi_limit.eval(x)).hi
        if gap > h1_worst:
            h1_worst = gap
            h1_witness = x
    h1_pass = h1_worst <= tol

    h2_worst = Fraction(0)
    h2_witness = None
    lo = max(1, n_max // 2)
    cache: dict[int, IntegrandFn] = {}

    def seq(n: int) -> IntegrandFn:
        if n not in cache:
            cache[n] = phi_seq(n)
        return cache[n]

    for ri, region in enumerate(regions):
        integrals = [exact_vector_integral(seq(n), region) for n in range(lo, n_max + 1)]
        for fi, f in enumerate(functionals):
            vals = [f(v) for v in integrals]
            gap = max(vals) - min(vals)
            if gap > h2_worst:
                h2_worst = gap
                h2_witness = {"region": ri, "functional": fi}
    h2_pass = h2_worst <= tol

    verdict = {
        "h1": {"pass": h1_pass, "worst": h1_worst, "witness": str(h1_witness)},
        "h2": {"pass": h2_pass, "worst": h2_worst, "witness": h2_witness},
        "n_max": n_max,
        "tol": tol,
    }
    limit_est = mcshane_integrate(phi_limit, tol=tol, seed=seed)
    gap = distance(limit_est.value, exact_vector_integral(phi_last)).hi
    if h1_pass and h2_pass:
        verdict["c"] = {"pass": gap <= 3 * tol, "gap": gap, "limit_status": limit_est.status}
    else:
        verdict["c"] = {
            "skipped": "H1/H2 did not both hold on the sample",
            "gap_anyway": gap,
            "pass": False,
        }
    verdict["pass"] = verdict["c"]["pass"]
    return verdict


# -- default inventories -----------------------------------------------------------


def default_functionals(space: ValueSpace, count: int, seed: int = 0) -> list[DualFunctional]:
    """Coordinates first, then seeded normalized combinations (or pairings)."""
    rng = IntStream(seed, 3)
    out: list[DualFunctional] = []
    if space.is_step:
        g = space.grid_depth
        n_cells = 1 << g
        for i in range(min(count, 8)):
            out.append(DualFunctional.coordinate(space, (i * max(1, n_cells // 8)) % n_cells))
        while len(out) < count:
            # density = sign / width on a random window [a, b] / 2^g, 0 elsewhere:
            # L1 norm 1; the empty cells before a = 0 or after b = 2^g are dropped
            a = rng.integers(0, n_cells)
            b = rng.integers(a + 1, n_cells + 1)
            sign = 1 if rng.integers(0, 2) else -1
            ends, levels = (0, a, b, n_cells), (0, Fraction(sign << g, b - a), 0)
            cells = [(x, level) for x, y, level in zip(ends, ends[1:], levels) if x < y]
            density = VectorValue.step(space, [Dyadic(x, g) for x, _ in cells] + [D1],
                                       [level for _, level in cells])
            out.append(DualFunctional.step_pairing(space, density))
        return out[:count]
    for i in range(min(count, space.dim)):
        out.append(DualFunctional.coordinate(space, i))
    while len(out) < count:
        raw = [Fraction(rng.integers(-8, 9), 8) for _ in range(space.dim)]
        probe = DualFunctional.combination(space, raw)
        if probe.norm_bound == 0:
            continue
        scaled = [c / probe.norm_bound for c in raw]
        out.append(DualFunctional.combination(space, scaled))
    return out[:count]
