"""Integrand gallery: the fat-set machinery, jump families, and three
purpose-built vector integrands.

The centerpiece is a pair of Riemann sums over the same gauge whose gap has an
exact rational lower bound: a closed "fat" set H with positive measure in
every dyadic cell constrains a family of {0,1} jump functions (no two points
of a member's support may sum into H), and two tag searches produce partitions
whose sums differ in a designated coordinate by at least (m-1)/k.  Everything
is verified with exact region arithmetic after the randomized searches finish,
so a returned witness is a theorem about the specific partitions in hand.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Callable, Sequence

from .errors import ResolutionExceeded, SearchExhausted
from .exact import (D0, D1, Dyadic, DyadicCuts, Interval, Region, UNIT_REGION,
                    merged_region, region_intersect, region_subtract)
from .gauges import (Gauge, MCSHANE, TaggedInterval, TaggedPartition,
                     extend_to_partition, is_partition, is_subordinate)
from .integrands import STEP, IntegrandFn, exact_vector_integral, restrict_integrand
from .integrate import riemann_sum
from .spaces import DualFunctional, ValueSpace, VectorValue, distance
from .stability import FunctionFamily, Member


# -- fat set -----------------------------------------------------------------


@dataclass
class FatSet:
    """Increasing closed sets H_0 = empty set up to H_L inside [0,2], with
    positive measure but never full measure in every dyadic cell of width
    2^-r, the resolution r that `diagnostics` records."""

    stages: list  # Region, index 0..L
    diagnostics: dict = field(default_factory=dict)

    @property
    def levels(self) -> int:
        return len(self.stages) - 1

    @property
    def top(self) -> Region:
        return self.stages[-1]

    def stage(self, l: int) -> Region:
        """H_l, held stationary at H_L for l beyond the built levels."""
        if l < 0:
            raise ValueError("stage index must be >= 0")
        return self.stages[min(l, self.levels)]


# the largest r + L build_fat_set takes: its last stage places 2^(r+L) parts
MAX_FAT_SCALE = 18


def build_fat_set(L: int, r: int = 3) -> FatSet:
    """Deterministic fat set: stage s centers one closed interval of length
    2^-(r+2+s) in every dyadic cell of [0,2] at scale 2^-(r+s-1), in ints
    [16c + 7, 16c + 9] / 2^(r+3+s) in cell c; each stage re-merges all parts.

    Stages at different scales overlap, so per-cell mass grows slower than
    L*2^-(r+3); rather than trusting any closed form, the full- and null-cell
    halves of the invariant are checked exhaustively over every scale-r cell
    and violating parameters are rejected with diagnostics.
    """
    if L < 1:
        raise ValueError("need at least one stage")
    if r < 2:
        raise ValueError("resolution must be >= 2")
    if r + L > MAX_FAT_SCALE:
        raise ValueError(f"fat set with L={L}, r={r} would place 2^{r + L} intervals "
                         f"in its last stage; L + r must be at most {MAX_FAT_SCALE}")
    stages = [Region.empty()]
    placed: list[tuple[int, int]] = []
    for s in range(1, L + 1):
        k = L - s
        placed += [((16 * c + 7) << k, (16 * c + 9) << k) for c in range(1 << (r + s))]
        stages.append(merged_region(r + 3 + L, placed))
    top = stages[-1]
    worst = check_fat_invariant(top, r)
    if worst is not None:
        raise ValueError(
            f"fat-set invariant failed at L={L}, r={r}: cell {worst['cell']} "
            f"holds mass {worst['mass']} (need strictly between 0 and 2^-{r})"
        )
    diag = {
        "L": L,
        "r": r,
        "measure": str(top.measure()),
        "parts": len(top.lo),
    }
    return FatSet(stages=stages, diagnostics=diag)


def check_fat_invariant(H: Region, r: int):
    """Exhaustive positive-but-not-full mass check of H over every dyadic
    cell of [0,2] at scale 2^-r.  Returns None, or diagnostics for the first
    violating cell.  One sweep over H's parts, as ints at exponent
    e = max(H.exp, r), adds each part's overlap to the 2^(e-r) wide cells."""
    e = max(H.exp, r)
    u, w = e - H.exp, e - r
    mass = [0] * (2 << r)
    for a, b in zip(H.lo, H.hi):
        a, b = a << u, b << u
        # the cells a part of positive length meets; a degenerate part adds 0
        for j in range(max(a >> w, 0), min((b - 1) >> w, len(mass) - 1) + 1):
            mass[j] += min(b, (j + 1) << w) - max(a, j << w)
    for j, mu in enumerate(mass):
        if not 0 < mu < 1 << w:
            return {"cell": [str(Dyadic(j, r)), str(Dyadic(j + 1, r))],
                    "mass": str(Dyadic(mu, e))}
    return None


def _erode(region: Region) -> Region:
    """Shrink each part by a quarter of its length per side.

    Points of the eroded set sit at interior depth >= len/4 of their part, so
    exact membership afterwards is robust to endpoint coincidences.  Part
    [a, b] / 2^e becomes [3a + b, a + 3b] / 2^(e+2); degenerate parts vanish.
    """
    lo, hi = [], []
    for a, b in zip(region.lo, region.hi):
        if a < b:
            lo.append(3 * a + b)
            hi.append(a + 3 * b)
    return Region._columns(region.exp + 2, lo, hi)


# -- inductive tag searches ---------------------------------------------------


def inductive_tag_sequences(
    H: Region,
    windows: Sequence[Region],
    mode: str,
    seed: int = 0,
    max_attempts: int = 200,
) -> list[Dyadic]:
    """Greedy randomized tags t_j in window_j with pairwise sums inside H
    (mode "sums-in", i < j) or outside H (mode "sums-out", i <= j, so doubled
    tags are excluded too).

    Each accepted tag shrinks the remaining windows to the exact preimage of
    the eroded target set; picks are midpoints of seeded part choices, which
    keeps every sum strictly interior.  On window collapse the whole attempt
    restarts with a fresh stream.  Results are verified against H itself
    before returning.
    """
    if mode not in ("sums-in", "sums-out"):
        raise ValueError(f"unknown mode {mode!r}")
    if any(w.is_empty() or w.measure() == D0 for w in windows):
        raise ValueError("windows must have positive measure")
    if mode == "sums-in":
        core = _erode(H)
        base = list(windows)
    else:
        hull = Interval(D0, Dyadic(2, 0))
        b = H.bounding()
        if b is not None:
            hull = Interval(min(D0, b.lo), max(hull.hi, b.hi))
        core = _erode(region_subtract(Region((hull,)), H))
        # self-sum exclusion: 2t must land in the eroded complement as well
        half_core = core.scale_half()
        base = [region_intersect(w, half_core) for w in windows]
    trace = []
    last_fail = 0
    for attempt in range(max_attempts):
        rng = random.Random(f"tags|{seed}|{attempt}")
        current = list(base)
        tags: list[Dyadic] = []
        failed = False
        for j in range(len(current)):
            window = current[j]
            if window.is_empty():
                trace.append({"attempt": attempt, "index": j,
                              "windows": [str(w.measure()) for w in current]})
                last_fail = j
                failed = True
                break
            i = rng.randrange(len(window.lo))
            t, te = window.lo[i] + window.hi[i], window.exp + 1
            tags.append(Dyadic(t, te))
            shifted = core.translate(Dyadic(-t, te))
            for j2 in range(j + 1, len(current)):
                current[j2] = region_intersect(current[j2], shifted)
        if failed:
            continue
        # the tags as ints at their finest exponent, so a sum is one add
        e = max(t.exp for t in tags)
        keys = [t.num << (e - t.exp) for t in tags]
        ok = True
        for i in range(len(tags)):
            lo_pair = i + 1 if mode == "sums-in" else i
            for j in range(lo_pair, len(tags)):
                inside = H.contains(Dyadic(keys[i] + keys[j], e))
                if mode == "sums-in" and not inside:
                    ok = False
                if mode == "sums-out" and inside:
                    ok = False
        if ok:
            return tags
    raise SearchExhausted(
        f"no {mode} tag sequence after {max_attempts} attempts",
        index=last_fail,
        trace=trace[-10:],
    )


# -- jump-function family ------------------------------------------------------


def _pair_violation(lo: Sequence[int], hi: Sequence[int], parts: Sequence[tuple],
                    new: tuple) -> bool:
    """Exact pair-constraint check of a new support part against itself and
    all earlier parts: some s < t in the support with s + t in H, whose columns
    lo, hi are ints at the parts' exponent.  Among H's parts that start left of
    a point the last one reaches furthest right, so each test is one bisect."""
    a, b = new
    # the self sums fill the open (2a, 2b); H's parts are non-degenerate, so
    # meeting it is a positive-measure overlap
    i = bisect_left(lo, 2 * b) - 1
    if i >= 0 and hi[i] > 2 * a:
        return True
    for c, d in parts:
        # the cross sums fill the closed [a + c, b + d]
        i = bisect_right(lo, b + d) - 1
        if i >= 0 and hi[i] >= a + c:
            return True
    return False


# the enumeration stops after this many pair checks, whatever it has yielded
CHECK_CAP = 400_000


def _enumerate_jump_members(H: Region, depth: int, vmax: int):
    """Lazily yield (breaks, levels, variation) for the {0,1} step functions
    with jumps on the depth grid and variation <= vmax that pass the pair
    constraint; breaks are Dyadics, levels 0/1 ints.

    Canonical order: variation ascending, start level 1 before 0, jump tuples
    lexicographic.  Support parts are checked as soon as they complete, and a
    failed completion prunes every later completion of the same run (the
    violating sum interval only grows), which keeps the scan shallow.  The
    caller takes as many members as it needs; after CHECK_CAP pair checks
    nothing more is yielded.
    """
    # support parts are grid ints scaled to H's columns at exponent e
    e = max(H.exp, depth)
    lo = [x << (e - H.exp) for x in H.lo]
    hi = [x << (e - H.exp) for x in H.hi]
    t = e - depth
    grid = 1 << depth
    checks = 0

    # variation 0: constant 0 always passes; constant 1 fails against any
    # fat set (some doubled subinterval lands in H) and is checked honestly
    yield (D0, D1), (0,), 0
    if not _pair_violation(lo, hi, [], (0, 1 << e)):
        yield (D0, D1), (1,), 0

    def runs(v: int, start: int, jumps: list, completed: list):
        nonlocal checks
        if checks >= CHECK_CAP:
            return
        used = len(jumps)
        # the run after the last jump sits at 1: its end completes a part
        open_run = start ^ (used & 1)
        run_lo = jumps[-1] << t if jumps else 0
        if used == v:
            if open_run:
                checks += 1
                if _pair_violation(lo, hi, completed, (run_lo, 1 << e)):
                    return
            yield ((D0, *(Dyadic(g, depth) for g in jumps), D1),
                   tuple(start ^ (i & 1) for i in range(v + 1)), v)
            return
        for g in range((jumps[-1] + 1) if jumps else 1, grid - (v - used - 1)):
            if checks >= CHECK_CAP:
                return
            if open_run:
                new = (run_lo, g << t)
                checks += 1
                if _pair_violation(lo, hi, completed, new):
                    return  # larger g only widens the run: prune
                yield from runs(v, start, jumps + [g], completed + [new])
            else:
                yield from runs(v, start, jumps + [g], completed)

    for v in range(1, vmax + 1):
        for start in (1, 0):
            yield from runs(v, start, [], [])


def targeted_member(H: Region, tags: Sequence[Dyadic]):
    """Indicator of epsilon-neighborhoods of the tags, with epsilon a dyadic
    quarter of the worst exact distance from any tag sum (doubles included)
    to H.  Returns (breaks, levels) or None with no feasible margin."""
    if not tags:
        return None
    # the tags as sorted ints at their finest exponent e
    e = max(t.exp for t in tags)
    T = sorted(t.num << (e - t.exp) for t in tags)
    one = 1 << e
    if len(set(T)) != len(T):
        return None
    worst = None
    for i in range(len(T)):
        for j in range(i, len(T)):
            d = H.distance_to_point(Dyadic(T[i] + T[j], e))
            if d == 0:
                return None
            if worst is None or d < worst:
                worst = d
    bound = worst / 4
    for i in range(len(T) - 1):
        bound = min(bound, Fraction(T[i + 1] - T[i], 4 << e))
    if T[0] > 0:
        bound = min(bound, Fraction(T[0], one))
    bound = min(bound, Fraction(one - T[-1], one))
    if bound <= 0:
        return None
    # the smallest k >= 1 with 2^-k <= bound, i.e. 2^k >= ceil(1 / bound)
    k = max(1, (-(-bound.denominator // bound.numerator) - 1).bit_length())
    # each tag's [t - 2^-k, t + 2^-k], clipped to [0, 1], as ints at exponent f
    f = max(e, k)
    eps, top = 1 << (f - k), 1 << f
    breaks = [0]
    levels = []
    for t in T:
        t <<= f - e
        lo, hi = max(t - eps, 0), min(t + eps, top)
        if breaks[-1] != lo:
            levels.append(Fraction(0))
            breaks.append(lo)
        levels.append(Fraction(1))
        breaks.append(hi)
    if breaks[-1] != top:
        levels.append(Fraction(0))
        breaks.append(top)
    return tuple(Dyadic(b, f) for b in breaks), tuple(levels)


def build_A_family(fat: FatSet, l: int, jump_grid_depth: int = 10,
                   cap: int = 64) -> FunctionFamily:
    """First cap members, in canonical order, of the {0,1} jump functions
    with variation <= l and jumps on the 2^-jump_grid_depth grid that pass
    the pair constraint against H_l.  metadata["variations"] holds each
    member's variation."""
    if l < 2:
        raise ValueError("family level must be >= 2")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    found = list(islice(_enumerate_jump_members(fat.stage(l), jump_grid_depth, l), cap))
    fam = FunctionFamily.from_steps([(breaks, levels) for breaks, levels, _ in found],
                                    label=f"jump-family-level-{l}")
    fam.metadata.update({"level": l, "grid_depth": jump_grid_depth,
                         "variations": [v for _, _, v in found]})
    return fam


# -- the sequence-valued integrand over a jump family ------------------------


def example_3e(family: FunctionFamily, R: int) -> IntegrandFn:
    """phi(t) = (f_0(t), ..., f_{R-1}(t)) in the sup-norm sequence space.

    Piecewise-step: breakpoints are the union of the member jump points, and
    every coordinate is one member function.  The union is built as int keys
    at the finest exponent; a cell's coordinate i is member i's level at the
    cell's left key, since no member break lies inside the cell.
    """
    if family.klass != "piecewise-step":
        raise ValueError("need step members")
    if R < 1 or R > len(family.members):
        raise ValueError(f"R={R} outside 1..{len(family.members)}")
    members = family.members[:R]
    e = max(b.exp for m in members for b in m.breaks)
    keys = sorted({0, 1 << e}.union(b.num << (e - b.exp) for m in members for b in m.breaks))
    cells = [(DyadicCuts(m.breaks[1:-1]), m.levels) for m in members]
    space = ValueSpace.seq_sup(R)
    values = [VectorValue.coords(space, [levels[cuts.cell_at(k, e)] for cuts, levels in cells])
              for k in keys[:-1]]
    return IntegrandFn(space, STEP, e, keys, values=values, label=f"jump-sequence-R{R}",
                       metadata={"family": family.label, "R": R})


# -- the two-partition oscillation witness ------------------------------------


def oscillation_witness_3e(
    fat: FatSet,
    family: FunctionFamily,
    R: int,
    delta: Gauge,
    seed: int = 0,
    proxy_depth: int = 12,
    max_attempts: int = 200,
) -> dict:
    """Two partitions subordinate to the same gauge whose Riemann sums differ
    by an exact, certified amount.

    Procedure: find the smallest power of two 8 <= k <= 2^proxy_depth whose
    level set D = {delta >= 1/k} (`Gauge.level_set`) has measure >= 4/5; take the m width-1/k grid
    cells meeting D; search tags T (pairwise and doubled sums outside H) and
    U (pairwise sums inside H) within those cells; rebuild the family with
    the T-neighborhood indicator as coordinate 0; tag the cells with T and U
    and share one completion.  Coordinate 0 of the sum gap is then exactly
    m/k - (0 or 1/k): the pair constraint lets any member sit at 1 on at most
    one U tag, so gap >= (m-1)/k.
    """
    if proxy_depth < 0:
        raise ValueError(f"proxy depth must be >= 0, got {proxy_depth}")
    H = fat.top
    for k_exp in range(3, proxy_depth + 1):
        level_region = delta.level_set(k_exp)
        if level_region.measure().as_fraction() >= Fraction(4, 5):
            break
    else:
        raise ResolutionExceeded(
            f"no k <= 2^{proxy_depth} gives the level set outer measure >= 4/5"
        )
    k = 1 << k_exp
    cells = []
    for c in range(k):
        cell = Interval(Dyadic(c, k_exp), Dyadic(c + 1, k_exp))
        meet = region_intersect(level_region, Region((cell,)))
        if meet.measure() > D0:
            cells.append((cell, meet))
    m = len(cells)
    if m < 2:
        raise ResolutionExceeded(f"only {m} cells of width 1/{k} meet the level set")
    windows = [meet for _, meet in cells]
    tags_out = inductive_tag_sequences(H, windows, "sums-out", seed=seed,
                                       max_attempts=max_attempts)
    tags_in = inductive_tag_sequences(H, windows, "sums-in", seed=seed + 1,
                                      max_attempts=max_attempts)
    tm = targeted_member(H, tags_out)
    if tm is None:
        raise SearchExhausted("targeted member infeasible for the found tags",
                              index=0, trace=[])
    members = [Member("targeted[T]", *tm), *family.members[: R - 1]]
    fam2 = FunctionFamily("piecewise-step", members, label=family.label + "+targeted")
    fam2.metadata = dict(family.metadata)
    phi = example_3e(fam2, len(members))
    t_items = [TaggedInterval(cell, t) for (cell, _), t in zip(cells, tags_out)]
    u_items = [TaggedInterval(cell, u) for (cell, _), u in zip(cells, tags_in)]
    p1 = extend_to_partition(t_items, delta, flavor=MCSHANE, seed=seed + 7)
    # the fillers, wherever their gaps lie among the cells
    tagged = {cell for cell, _ in cells}
    completion = [it for it in p1.items if it.interval not in tagged]
    p2 = TaggedPartition(tuple(u_items + completion), MCSHANE)
    for p in (p1, p2):
        if not is_partition(p):
            raise AssertionError("witness produced a non-partition")
        if not is_subordinate(p, delta):
            raise AssertionError("witness partition is not subordinate")
    s1 = riemann_sum(phi, p1)
    s2 = riemann_sum(phi, p2)
    gap_enc = distance(s1, s2)
    bound = Fraction(m - 1, k)
    e0 = DualFunctional.coordinate(phi.space, 0)
    hits = sum(1 for v in map(phi.eval, tags_in) if e0(v) == 1)
    return {
        "k": k,
        "m": m,
        "mu_level_set": level_region.measure().as_fraction(),
        "proxy": False,
        "cells": [[str(cell.lo), str(cell.hi)] for cell, _ in cells],
        "tags_out": tags_out,
        "tags_in": tags_in,
        "u_hits_on_targeted": hits,
        "gap": gap_enc.lo,
        "gap_enclosure": gap_enc,
        "bound": bound,
        "partitions": (p1, p2),
        "integrand": phi,
        "family": fam2,
        "coordinate_gap": abs(e0(s1) - e0(s2)),
    }


# -- indicator ramp integrand --------------------------------------------------


def example_3f(depth: int = 12) -> dict:
    """phi(t) = grid-step representation of the indicator of [0, t).

    Values are pairwise at sup distance 1 (each grid cell owns its own value),
    which is what defeats simple-function approximation; the exact integral is
    the discretized down-ramp 1 - (j+1)/2^depth on cell j, returned in closed
    form as an oracle independent of the Riemann-sum accumulator.

    With n = 2^depth, every value is written straight as canonical int
    columns on the grid: cell 0 is the zero function, cell j >= 1 is 1 on
    [0, j) and 0 on [j, n), and the ramp has levels n-1, ..., 0 over n.
    """
    if depth < 1 or depth > 16:
        raise ValueError("depth must be in 1..16")
    space = ValueSpace.step_linf(depth)
    n = 1 << depth
    values = [VectorValue._columns(space, (0, n), (0,), 1)]
    values.extend(VectorValue._columns(space, (0, j, n), (1, 0), 1) for j in range(1, n))
    phi = IntegrandFn(
        space, STEP, depth, range(n + 1), values=values, label=f"indicator-ramp-{depth}",
        metadata={
            "separation": Fraction(1),
            "separation_cell_measure": Fraction(1, n),
            "grid_depth": depth,
        },
    )
    ramp = VectorValue._columns(space, tuple(range(n + 1)), tuple(range(n - 1, -1, -1)), n)
    return {"integrand": phi, "exact_integral": ramp, "grid": Fraction(1, n)}


# -- weighted unit-vector blocks ----------------------------------------------

MAX_3G_R = 9870  # the largest R whose report prints: its ints fit 4,300 digits


def example_3g(R: int) -> dict:
    """phi = 2^n (n+1)^-1 e_n on [2^-(n+1), 2^-n), zero on [0, 2^-R).

    Integral coordinate n is exactly 1/(2(n+1)); the lower Darboux sums of
    ||phi|| are harmonic partial sums H_N / 2, unbounded in N while the
    integral stays in the unit ball.
    """
    if not 1 <= R <= MAX_3G_R:
        raise ValueError(f"R must be in 1..{MAX_3G_R} (the largest --R that prints), got {R}")
    space = ValueSpace.seq_l2(R)
    values = [VectorValue.zero(space)]
    for n in range(R - 1, -1, -1):
        values.append(VectorValue.basis(space, n) * Fraction(1 << n, n + 1))
    # keys 0, 1, 2, 4, ..., 2^R over 2^R: the breaks 0, 2^-R, ..., 1/2, 1;
    # the cell after 2^-(n+1) carries block n
    phi = IntegrandFn(space, STEP, R, (0, *(1 << i for i in range(R + 1))), values=values,
                      label=f"harmonic-blocks-{R}", metadata={"R": R})
    integral = exact_vector_integral(phi)
    return {
        "integrand": phi,
        "exact_integral": integral,
        "coordinates": [Fraction(1, 2 * (n + 1)) for n in range(R)],
    }


def harmonic_half(N: int) -> Fraction:
    """H_N / 2: the closed form for the N-block lower Darboux sum above."""
    return sum((Fraction(1, j) for j in range(1, N + 1)), Fraction(0)) / 2


# -- truncation sequences -------------------------------------------------------


def truncation_cover(R: int) -> list[Region]:
    """Blocks [2^-(i+1), 2^-i] plus a final [0, 2^-(R-1)]; union is [0,1]."""
    if R < 1:
        raise ValueError("need R >= 1")
    cover = [Region((Interval(Dyadic(1, i + 1), Dyadic(1, i)),)) for i in range(R - 1)]
    cover.append(Region((Interval(D0, Dyadic(1, R - 1)),)))
    return cover


def truncation_sequence(phi: IntegrandFn, cover: Sequence[Region]) -> Callable[[int], IntegrandFn]:
    """n -> phi restricted to the union of the first n+1 cover pieces.

    The full cover must union to [0,1] exactly; past each point's cover index
    the sequence value agrees with phi at that point.
    """
    total = Region(part for r in cover for part in r.parts)
    if region_subtract(UNIT_REGION, total).measure() != D0 or total.measure() != Dyadic(1, 0):
        raise ValueError("cover does not union to [0,1]")
    cache: dict[int, IntegrandFn] = {}
    prefixes: list[Region] = []
    acc = Region.empty()
    for r in cover:
        acc = Region(tuple(acc.parts) + tuple(r.parts))
        prefixes.append(acc)

    def seq(n: int) -> IntegrandFn:
        idx = min(max(n, 0), len(prefixes) - 1)
        if idx not in cache:
            cache[idx] = restrict_integrand(phi, prefixes[idx])
        return cache[idx]

    return seq
