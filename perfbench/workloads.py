"""The four benchmark workloads: fixtures, seeded input streams, checks and
their oracles.

A workload builds its fixtures once (that is what `setup_s` measures) and
then hands out *groups* of checks, each mixing the workload's check kinds in
fixed proportions.  A run is a fixed number of whole groups: --seconds
divided by `group_seconds`, the time one group took at the commit that
defined this benchmark.  So a run lasts about --seconds there, and two
commits compared run exactly the same checks.  Stopping on the clock
instead would let a fast stretch of the machine add a group, and with
groups of many seconds that skews the median towards fast checks.

Inputs come from finite universes fixed in this file.  The run seed chooses
which members of a universe a run visits and in which order; it never
reaches the program any other way.  A finite universe is what lets
`record_digests.py` record the output digest of every input once, so a later
change that alters an output shows up as `report.outputs_changed`.

Every library call goes through a module attribute at call time
(`gl.integrate.riemann_sum`, not a name bound at import), so the wrappers that
tracing.py installs see the calls the benchmark makes.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import gaugelab as gl
import gaugelab.cli
import gaugelab.report

TOL10 = Fraction(1, 1 << 10)

# Captured before any tracing wrapper exists: digests are the benchmark's own
# work and must not show up in the `report` layer.
_jsonable = gaugelab.report.jsonable


@dataclass
class Check:
    """One verdict with its oracle.

    `compute` runs the program, `verify` judges its result independently and
    returns (ok, reason); both are timed.  `canonical` turns the result into
    the bytes whose SHA-256 is compared against the recorded baseline; it is
    not timed.
    """

    key: str
    compute: Callable[[], object]
    verify: Callable[[object], tuple[bool, str]]
    canonical: Callable[[object], bytes]

    def known_defect(self, why: str) -> str:
        """The listed defect this failure is, or "" if it is not the listed one."""
        expected, note = KNOWN_DEFECTS.get(self.key, (None, ""))
        return note if expected is not None and why.startswith(expected) else ""


def _json_bytes(result) -> bytes:
    return json.dumps(_jsonable(result), sort_keys=True).encode()


def _order(seed: int, tag: str, n: int) -> list[int]:
    return random.Random(f"{tag}|{seed}").sample(range(n), n)


# -- pairing: the criterion-03 dual-pairing protocol --------------------------

PAIRING_UNIVERSE = 128  # random regions of measure 1/2, each checked with its complement
HALF = gl.Dyadic(1, 1)
PAIRING_FUNCTIONALS = 20


def _complement(region):
    """[0,1] minus the region, built here so set-up adds no region algebra."""
    gaps, cur = [], gl.exact.D0
    for part in region.parts:
        if cur < part.lo:
            gaps.append(gl.Interval(cur, part.lo))
        if part.hi > cur:
            cur = part.hi
    if cur < gl.exact.D1:
        gaps.append(gl.Interval(cur, gl.exact.D1))
    return gl.Region(gaps)


def _poly_integral(region) -> list[Fraction]:
    """The exact integral of poly2, (1 - 2t + t^2, t), over the region, worked
    out here from the antiderivatives (t - t^2 + t^3/3, t^2/2)."""
    total = [Fraction(0), Fraction(0)]
    for part in region.parts:
        a, b = part.lo.as_fraction(), part.hi.as_fraction()
        total[0] += (b - b * b + b ** 3 / 3) - (a - a * a + a ** 3 / 3)
        total[1] += (b * b - a * a) / 2
    return total


def _apply(f, coords: list[Fraction]) -> Fraction:
    """A coordinate or combination functional on a coordinate vector."""
    if f.kind == "coordinate":
        return coords[f.params]
    return sum((c * x for c, x in zip(f.params, coords)), Fraction(0))


def _pairing_verifier(region, functionals, poly: bool):
    """Every residual is within 2^-10 and the verdict says so.  The entries
    echo the region and the functionals in order and report convergence.  For
    the poly class the oracle also has the gauge-sum estimate nu(E) (see
    `_pettis_with_estimate`): every residual must equal |f(nu(E)) - f(I)|,
    with I the exact integral worked out here."""
    parts = [[str(p.lo), str(p.hi)] for p in region.parts]

    def verify(result) -> tuple[bool, str]:
        out, estimates = result
        entries = out["entries"]
        if len(entries) != len(functionals):
            return False, f"{len(entries)} entries, expected {len(functionals)}"
        if out["tol"] != TOL10:
            return False, f"tolerance {out['tol']}, asked for 2^-10"
        for fi, e in enumerate(entries):
            if e["functional"] != fi or e["region"] != parts:
                return False, f"entry {fi} is not functional {fi} on the input region"
            if not e["converged"]:
                return False, f"entry {fi}: the gauge sum did not converge"
        residuals = [Fraction(e["residual"]) for e in entries]
        worst = max(residuals)
        if worst != out["max_residual"]:
            return False, "max_residual disagrees with its entries"
        if worst > TOL10:
            return False, f"residual {float(worst):.3g} > 2^-10"
        if not out["pass"]:
            return False, "verdict is fail although every residual is within 2^-10"
        if poly:
            if len(estimates) != 1:
                return False, f"{len(estimates)} gauge-sum estimates, expected 1"
            nu, exact = list(estimates[0].value.data), _poly_integral(region)
            for fi, (f, r) in enumerate(zip(functionals, residuals)):
                if r != abs(_apply(f, nu) - _apply(f, exact)):
                    return False, f"residual {fi} is not |f(nu(E)) - f(exact integral)|"
        return True, ""
    return verify


def _pettis_with_estimate(phi, functionals, region, seed: int):
    """pettis_check, keeping the estimates its gauge route computes.

    The check's output holds only residuals; the oracle needs nu(E) itself to
    test them by its own route.  `indefinite_integral` is rebound in
    gaugelab.integrate, where pettis_check looks it up, for the one call."""
    estimates = []
    inner = gl.integrate.indefinite_integral

    @functools.wraps(inner)
    def keep(*args, **kwargs):
        est = inner(*args, **kwargs)
        estimates.append(est)
        return est
    gl.integrate.indefinite_integral = keep
    try:
        out = gl.integrate.pettis_check(phi, functionals, [region], tol=TOL10, seed=seed,
                                        inner_tol=TOL10)
    finally:
        gl.integrate.indefinite_integral = inner
    return out, estimates


class Pairing:
    """pettis_check on one (integrand, region) pair with 20 functionals.

    A group is one random region of measure 1/2 and its complement under all
    three integrand classes.  A check's cost grows with the measure of its
    region, so equal measures keep each class's check times in one narrow
    cluster and the median check time from depending on which regions the
    seed picked.
    """

    name = "pairing"
    group_seconds = 1.0
    check_cap_s = 20
    trace_groups = 4
    cover_groups = PAIRING_UNIVERSE

    def __init__(self, seed: int):
        self.classes = [
            ("ramp", gl.example_3f(6)["integrand"]),
            ("trunc", gl.truncation_sequence(gl.example_3g(8)["integrand"],
                                             gl.truncation_cover(8))(5)),
            ("poly", gl.poly_integrand([[Fraction(1), Fraction(-2), Fraction(1)],
                                        [Fraction(0), Fraction(1)]], label="poly2")),
        ]
        self.functionals = [gl.default_functionals(phi.space, PAIRING_FUNCTIONALS, seed=0)
                            for _, phi in self.classes]
        # sample_regions trims every draw to measure <= 1/2; keep those it cut
        # to exactly 1/2 (the first three draws are fixed, not random)
        drawn = gl.sample_regions(3 * PAIRING_UNIVERSE, seed=0, max_measure=Fraction(1, 2))[3:]
        regions = [r for r in drawn if r.measure() == HALF][:PAIRING_UNIVERSE]
        self.universe = [(r, _complement(r)) for r in regions]
        self.order = _order(seed, self.name, PAIRING_UNIVERSE)

    def group(self, g: int) -> list[Check]:
        i = self.order[g % PAIRING_UNIVERSE]
        checks = []
        for side, region in zip("rc", self.universe[i]):
            for (cname, phi), fs in zip(self.classes, self.functionals):
                checks.append(Check(
                    f"pairing/{cname}/{i}{side}",
                    lambda phi=phi, fs=fs, region=region, i=i: _pettis_with_estimate(
                        phi, fs, region, i),
                    _pairing_verifier(region, fs, cname == "poly"),
                    lambda result: _json_bytes(result[0])))
        return checks


# -- witness: the criterion-05 oscillation witness ------------------------------

WITNESS_SEEDS = 32
WITNESS_GAUGES = {"k8": Fraction(1, 5), "k16": Fraction(1, 12)}  # const gauge -> k


def _is_partition(items) -> bool:
    cur = Fraction(0)
    for it in items:
        lo, hi = it.interval.lo.as_fraction(), it.interval.hi.as_fraction()
        if lo != cur or hi <= lo:
            return False
        cur = hi
    return cur == 1


def _is_subordinate(items, delta: Fraction) -> bool:
    for it in items:
        t = it.tag.as_fraction()
        if not (t - delta <= it.interval.lo.as_fraction()
                and it.interval.hi.as_fraction() <= t + delta):
            return False
    return True


def _coordinate0_sum(items, member) -> Fraction:
    """Coordinate 0 of the Riemann sum: the targeted member at each tag."""
    breaks = [b.as_fraction() for b in member.breaks]
    last = len(member.levels) - 1
    total = Fraction(0)
    for it in items:
        cell = min(bisect_right(breaks, it.tag.as_fraction()) - 1, last)
        total += (it.interval.hi.as_fraction() - it.interval.lo.as_fraction()) * member.levels[cell]
    return total


def _witness_verifier(delta: Fraction):
    def verify(w) -> tuple[bool, str]:
        k, m = w["k"], w["m"]
        bound = Fraction(m - 1, k)
        if Fraction(m, k) < Fraction(4, 5) - Fraction(1, k):
            return False, f"level-set mass {m}/{k} < 4/5 - 1/k"
        if w["bound"] != bound:
            return False, f"bound {w['bound']} != (m-1)/k"
        p1, p2 = w["partitions"]
        for p in (p1, p2):
            if not _is_partition(p.items):
                return False, "not a partition of [0,1]"
            if not _is_subordinate(p.items, delta):
                return False, "not subordinate to the gauge"
        member = w["family"].members[0]
        coord_gap = abs(_coordinate0_sum(p1.items, member) - _coordinate0_sum(p2.items, member))
        if coord_gap < bound:
            return False, f"coordinate-0 gap {coord_gap} < {bound}"
        if w["gap"] < coord_gap:
            return False, f"sup gap {w['gap']} below its coordinate-0 gap {coord_gap}"
        return True, ""
    return verify


def _witness_bytes(w) -> bytes:
    # the family object has no JSON form of its own; its description does
    return _json_bytes(dict(w, family=w["family"].describe()))


class Witness:
    """oscillation_witness_3e on the stage-4 fat set with the cap-64 family.

    A group is criterion 05 itself, three seeds with the const 1/5 gauge
    (k=8), plus one seed with the const 1/12 gauge (k=16).  A k=16 check
    costs about three k=8 checks and its cost varies twice as much from seed
    to seed, so k=16 stays a quarter of the checks.
    """

    name = "witness"
    group_seconds = 12.7
    check_cap_s = 40
    trace_groups = 1
    cover_groups = WITNESS_SEEDS

    def __init__(self, seed: int):
        self.fat = gl.build_fat_set(4, 3)
        self.family = gl.build_A_family(self.fat, 4, cap=64)
        self.gauges = {name: gl.Gauge.const(v) for name, v in WITNESS_GAUGES.items()}
        self.order = {name: _order(seed, f"{self.name}-{name}", WITNESS_SEEDS)
                      for name in WITNESS_GAUGES}

    def _check(self, gname: str, wseed: int) -> Check:
        gauge = self.gauges[gname]
        return Check(
            f"witness/{gname}/{wseed}",
            lambda: gl.gallery.oscillation_witness_3e(self.fat, self.family, 64, gauge,
                                                      seed=wseed),
            _witness_verifier(WITNESS_GAUGES[gname]), _witness_bytes)

    def group(self, g: int) -> list[Check]:
        k8, k16 = self.order["k8"], self.order["k16"]
        return ([self._check("k8", k8[(3 * g + j) % WITNESS_SEEDS]) for j in range(3)]
                + [self._check("k16", k16[g % WITNESS_SEEDS])])


# -- ramp: the 3f indicator ramp ------------------------------------------------

RAMP_SEEDS = 8
RAMP_MCSHANE_DEPTHS = (8, 9)
RAMP_SUM_DEPTH = 10
RAMP_DELTA_EXPS = (8, 9, 10)
RAMP_STRATEGIES = ("mid", "left", "sampled")


def ramp_error(value, depth: int) -> Fraction:
    """Sup distance from a step value to the closed-form ramp, computed here:
    the integral of the depth-d ramp is 1 - (j+1)/2^d on grid cell j."""
    n = 1 << depth
    breaks, levels = value.data
    worst = Fraction(0)
    for lo, hi, level in zip(breaks, breaks[1:], levels):
        j_lo = int(lo.as_fraction() * n)
        j_hi = int(hi.as_fraction() * n) - 1
        for j in (j_lo, j_hi):  # the ramp is linear in j, so the ends bound it
            worst = max(worst, abs(level - Fraction(n - j - 1, n)))
    return worst


def _ramp_verifier(depth: int, delta: Fraction | None):
    grid = Fraction(1, 1 << depth)

    def verify(result) -> tuple[bool, str]:
        d = delta
        value = result
        if d is None:  # mcshane: the final adapted gauge is capped at 2^-(2+level)
            if result.status != "converged":
                return False, f"status {result.status}"
            d = Fraction(1, 1 << (2 + result.trace[-1]["level"]))
            value = result.value
        err = ramp_error(value, depth)
        if err > 2 * d + grid:
            return False, f"error {float(err):.4g} > 2*delta + grid = {float(2 * d + grid):.4g}"
        return True, ""
    return verify


class Ramp:
    """Riemann sums of the 3f indicator ramp in the step space.

    A group is the adapted-schedule mcshane_integrate at depths 8 and 9 and
    the constant-gauge riemann_sum at depth 10 for delta = 2^-8, 2^-9, 2^-10
    under the mid, left and sampled tag strategies, on one seed.
    """

    name = "ramp"
    group_seconds = 20.0
    check_cap_s = 40
    trace_groups = 1
    cover_groups = RAMP_SEEDS

    def __init__(self, seed: int):
        depths = set(RAMP_MCSHANE_DEPTHS) | {RAMP_SUM_DEPTH}
        self.phi = {d: gl.example_3f(d)["integrand"] for d in sorted(depths)}
        self.order = _order(seed, self.name, RAMP_SEEDS)

    def group(self, g: int) -> list[Check]:
        s = self.order[g % RAMP_SEEDS]
        checks = []
        for d in RAMP_MCSHANE_DEPTHS:
            checks.append(Check(
                f"ramp/mcshane-d{d}/{s}",
                lambda phi=self.phi[d]: gl.integrate.mcshane_integrate(
                    phi, schedule="adapted", seed=s),
                _ramp_verifier(d, None), _json_bytes))
        phi = self.phi[RAMP_SUM_DEPTH]
        for k in RAMP_DELTA_EXPS:
            delta = Fraction(1, 1 << k)
            for strategy in RAMP_STRATEGIES:
                def compute(delta=delta, strategy=strategy):
                    p = gl.gauges.cousin_partition(gl.Gauge.const(delta),
                                                   tag_strategy=strategy, seed=s)
                    return gl.integrate.riemann_sum(phi, p)
                checks.append(Check(
                    f"ramp/sum-d{RAMP_SUM_DEPTH}-k{k}-{strategy}/{s}", compute,
                    _ramp_verifier(RAMP_SUM_DEPTH, delta), _json_bytes))
        return checks


# -- readme: the README CLI examples, in process --------------------------------

# (id, argv, exit code README documents) -- the README's CLI section, verbatim.
README_EXAMPLES = [
    ("integrate-3g", "integrate --fn 3g --R 16 --tol 2^-12 --seed 7", 0),
    ("integrate-poly", "integrate --fn poly:0,1;1/2 --schedule adapted", 0),
    ("pettis-3g", "pettis --fn 3g --R 8 --functionals 20 --regions 20", 0),
    ("series-3g", "series --fn 3g --R 12 --blocks 12", 0),
    ("abscont-3f", "abscont --fn 3f --etas 2^-2,2^-4,2^-6", 0),
    ("lln-identity", "lln --fn identity --batches 100 --n 10000", 0),
    ("bochner-3f", "bochner --fn 3f --depth 12", 1),
    ("stability-pairsum", "stability --family pairsum --h 1/4:1/2 --m 1 --n 2", 0),
    ("stability-scan", "stability --scan --mn-max 3", 0),
    ("vitali-3g", "vitali --fn 3g --R 8", 0),
    ("vitali-spike", "vitali --sequence spike", 1),
    ("gallery-3e", "gallery 3e --L 4 --R 64 --gauge const:1/5 --seed 11", 0),
    ("gallery-3f", "gallery 3f --delta 2^-6", 0),
    ("gallery-3g", "gallery 3g --R 55", 0),
]
# `report out1.json out2.json`: runs last, over the two integrate reports.
README_REPORT = ("report", ("integrate-3g", "integrate-poly"), 0)

# Checks expected to fail at the commit that defined this benchmark, each with
# the start of the failure reason it is expected to give.  Such a failure still
# counts in `failed`; it only keeps `correct` true.  A listed check that fails
# for any other reason (raising, a cap, another exit code) is a new failure.
# Fixing one is progress.
KNOWN_DEFECTS = {
    "readme/vitali-3g": ("exit 1, README documents 0",
                         "exits 1 (H2 Cauchy-window gap 1/16), ROADMAP item 4"),
}

README_OUT = Path(".bench_out") / "readme"


def _cli_run(argv: list[str], out: Path):
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = gaugelab.cli.main(argv + ["--deterministic", "--out", str(out)])
        except SystemExit as exc:  # argparse rejects bad usage this way
            code = exc.code
    return code, err.getvalue(), out


def _readme_verifier(documented: int):
    def verify(result) -> tuple[bool, str]:
        code, err, _ = result
        if code == documented:
            return True, ""
        reason = f"exit {code}, README documents {documented}"
        tail = err.strip().splitlines()[-1:]
        return False, f"{reason}: {tail[0]}" if tail else reason
    return verify


# -- the sampling kernels on their own (what benchmarks/bench_kernels.py timed) -

KERNEL_SEEDS = 8
KERNEL_SAMPLES = 100_000
KERNEL_TUPLES = 1_000
KERNEL_MEMBERS = 48


def kernel_inputs(seed: int) -> dict:
    """The shapes benchmarks/bench_kernels.py uses, at a tenth of its sample
    count so that the pure-Python oracle stays cheap."""
    rng = np.random.default_rng(seed)
    cuts_chunks = [np.sort(rng.random(rng.integers(2, 12))) for _ in range(KERNEL_MEMBERS)]
    vals_chunks = [rng.random(len(c) + 1) for c in cuts_chunks]
    return {
        "samples": rng.random(KERNEL_SAMPLES), "cuts": np.sort(rng.random(63)),
        "unit": rng.random(KERNEL_SAMPLES), "cum": np.cumsum(rng.random(200) / 200),
        "los": np.sort(rng.random(200)),
        "t_pts": rng.random((KERNEL_TUPLES, 1)), "u_pts": rng.random((KERNEL_TUPLES, 2)),
        "cuts_flat": np.concatenate(cuts_chunks),
        "cuts_off": np.cumsum([0] + [len(c) for c in cuts_chunks]).astype(np.int64),
        "vals_flat": np.concatenate(vals_chunks),
        "vals_off": np.cumsum([0] + [len(v) for v in vals_chunks]).astype(np.int64),
        "alpha": 0.3, "beta": 0.7,
        "h_lo": np.array([0.25, 0.75]), "h_hi": np.array([0.5, 1.25]),
    }


def _run_kernels(x: dict):
    k = gl._kernels
    return (k.piece_counts(x["samples"], x["cuts"]),
            k.map_unit_to_region(x["unit"], x["cum"], x["los"]),
            k.step_family_hits(x["t_pts"], x["u_pts"], x["cuts_flat"], x["cuts_off"],
                               x["vals_flat"], x["vals_off"], x["alpha"], x["beta"]),
            k.pairsum_family_hits(x["t_pts"], x["u_pts"], x["h_lo"], x["h_hi"]))


def _verify_kernels(x: dict, out) -> tuple[bool, str]:
    counts, points, step_hits, pair_hits = out
    # piece_counts: right-open cells, counted by masks instead of a search
    edges = [-np.inf] + x["cuts"].tolist() + [np.inf]
    for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
        if counts[i] != np.count_nonzero((x["samples"] >= lo) & (x["samples"] < hi)):
            return False, f"piece_counts cell {i}"
    # map_unit_to_region: the inverse-CDF map on a seeded subsample, in Python
    cum, los, unit = x["cum"].tolist(), x["los"].tolist(), x["unit"]
    for j in random.Random(len(cum)).sample(range(len(unit)), 500):
        t = float(unit[j]) * cum[-1]
        idx = min(bisect_right(cum, t), len(cum) - 1)
        if points[j] != los[idx] + (t - (cum[idx - 1] if idx else 0.0)):
            return False, f"map_unit_to_region sample {j}"
    # step_family_hits: some member at most alpha on every t and at least beta on every u
    members = [(x["cuts_flat"][a:b].tolist(), x["vals_flat"][c:d].tolist())
               for a, b, c, d in zip(x["cuts_off"], x["cuts_off"][1:],
                                     x["vals_off"], x["vals_off"][1:])]
    ts, us = x["t_pts"].tolist(), x["u_pts"].tolist()
    expect = sum(
        any(all(v[bisect_right(c, t)] <= x["alpha"] for t in tt)
            and all(v[bisect_right(c, u)] >= x["beta"] for u in uu) for c, v in members)
        for tt, uu in zip(ts, us))
    if step_hits != expect:
        return False, f"step_family_hits {step_hits} != {expect}"
    # pairsum_family_hits: no distinct u pair sums into H, no t equals a u
    h = list(zip(x["h_lo"].tolist(), x["h_hi"].tolist()))

    def clear(tt, uu):
        for i in range(len(uu)):
            for j in range(i + 1, len(uu)):
                if uu[i] != uu[j] and any(lo <= uu[i] + uu[j] <= hi for lo, hi in h):
                    return False
        return not any(t == u for t in tt for u in uu)
    expect = sum(clear(tt, uu) for tt, uu in zip(ts, us))
    if pair_hits != expect:
        return False, f"pairsum_family_hits {pair_hits} != {expect}"
    return True, ""


def _kernel_bytes(out) -> bytes:
    counts, points, step_hits, pair_hits = out
    return counts.tobytes() + points.tobytes() + f"{step_hits},{pair_hits}".encode()


def _report_bytes(result) -> bytes:
    out = result[2]
    return out.read_bytes() if out.exists() else b""


class Readme:
    """Every README CLI example through gaugelab.cli.main, in one process.

    A group is one pass over the examples plus one direct check of the four
    sampling kernels (two of which no README example reaches), in a seeded
    order, ending with `report` over two earlier outputs.  The examples'
    arguments are fixed by the README, so for them the seed only sets the
    order; it picks the kernel inputs.
    """

    name = "readme"
    group_seconds = 6.5
    check_cap_s = 40
    trace_groups = 1
    cover_groups = KERNEL_SEEDS

    def __init__(self, seed: int):
        README_OUT.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.kernel_order = _order(seed, "kernels", KERNEL_SEEDS)

    def _kernel_check(self, g: int) -> Check:
        ks = self.kernel_order[g % KERNEL_SEEDS]
        x = kernel_inputs(ks)
        return Check(f"readme/kernels/{ks}", lambda: _run_kernels(x),
                     lambda out: _verify_kernels(x, out), _kernel_bytes)

    def group(self, g: int) -> list[Check]:
        checks = []
        for ex_id, argv, documented in README_EXAMPLES:
            checks.append(Check(
                f"readme/{ex_id}",
                lambda argv=argv, ex_id=ex_id: _cli_run(argv.split(), README_OUT / f"{ex_id}.json"),
                _readme_verifier(documented), _report_bytes))
        checks.append(self._kernel_check(g))
        checks = [checks[i] for i in _order(self.seed + g, self.name, len(checks))]
        cmd, inputs, documented = README_REPORT
        argv = [cmd] + [str(README_OUT / f"{i}.json") for i in inputs]
        checks.append(Check(
            f"readme/{cmd}", lambda: _cli_run(argv, README_OUT / f"{cmd}.json"),
            _readme_verifier(documented), _report_bytes))
        return checks


WORKLOADS = {w.name: w for w in (Pairing, Witness, Ramp, Readme)}
