"""Command-line front end: named experiments with seeds, config files, and
JSON/CSV reports.  Every option is declared once, in OPTIONS and COMMANDS below.

Exit codes: 0 all asserted checks passed, 1 a check failed (the report is
still written), 2 usage or configuration error; 1 and 2 end stderr with a
one-line reason.  Every report embeds the resolved config; rerunning with
the same config and seed is byte-identical under --deterministic.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .errors import GaugeLabError, SearchExhausted
from .exact import Dyadic, Region, parse_fraction, parse_region
from .gallery import (build_A_family, build_fat_set, example_3f, example_3g,
                      harmonic_half, oscillation_witness_3e, truncation_cover,
                      truncation_sequence)
from .gauges import Gauge, cousin_partition
from .integrands import (STEP, IntegrandFn, exact_vector_integral, identity_integrand,
                         poly_integrand)
from .integrate import (DEFAULT_TOL, NotApproximable, absolute_continuity,
                        bochner_integrate, default_functionals,
                        interval_series_check, lower_norm_integral,
                        mcshane_integrate, pettis_check, riemann_sum,
                        sample_regions, talagrand_integrate, vitali_limit)
from .report import build_report, digest_row, jsonable, write_csv, write_report
from .spaces import ValueSpace, VectorValue, distance, sqrt_enclosure
from .stability import (FunctionFamily, ZQuery, family_from_integrand,
                        stability_scan, z_measure_mc)


# -- argument helpers ----------------------------------------------------------


# the forms parse_fraction reads, named in every error on a fraction option
FRACTION_FORMS = "p/q, p/2^k, 2^-k or an integer"
# the refusal of a value a report could not print, after the value's source
UNPRINTABLE = "has more digits than a report can print"


def arg_fractions(name: str, kind: str, value):
    """A fraction option's value (text, an int, or for "fractions" a comma
    list or a JSON list) as a Fraction or a list of them; a malformed value
    is a usage error that names the option and the accepted forms."""
    if kind == "fraction":
        items = [value]
    elif isinstance(value, list):
        items = value
    else:
        items = [tok for tok in str(value).split(",") if tok.strip()]
    try:
        out = [Fraction(x) if isinstance(x, int) else parse_fraction(str(x)) for x in items]
    except (ValueError, OverflowError):
        out = []
    if not out:
        expected = "a fraction" if kind == "fraction" else "a comma list of fractions"
        raise ValueError(f"{name} must be {expected} ({FRACTION_FORMS}), got {value!r}")
    return out[0] if kind == "fraction" else out


def _printable(value, name=None):
    """value, or a usage error if a report could not echo it.  The error
    starts with name, the flag or config key the value came from; a parser,
    which does not know it, raises the bare UNPRINTABLE for resolve_args to name."""
    try:
        jsonable(value)
    except ValueError:
        raise ValueError(f"{name} {UNPRINTABLE}" if name else UNPRINTABLE) from None
    return value


def arg_gauge(text) -> Gauge:
    """"const:1/5" or "piecewise:0,1/2,1;1/4,1/8"."""
    kind, _, rest = str(text).partition(":")
    if kind == "const":
        return Gauge.const(_printable(parse_fraction(rest)))
    if kind == "piecewise":
        bpart, _, vpart = rest.partition(";")
        breaks = [Dyadic.parse(tok) for tok in bpart.split(",") if tok.strip()]
        values = [parse_fraction(tok) for tok in vpart.split(",") if tok.strip()]
        return Gauge.piecewise(breaks, _printable(values))
    raise ValueError(f"unknown gauge spec {text!r}")


def arg_fn(spec):
    """"identity", "3f" or "3g" as given, or "poly:c0,c1;d0,..." as its
    lists of coefficients, one list per coordinate."""
    if spec in ("identity", "3f", "3g"):
        return spec
    if spec.startswith("poly:"):
        groups = spec[5:].split(";")
        return _printable([arg_fractions("each coordinate", "fractions", group)
                           for group in groups])
    raise ValueError(f"unknown integrand spec {spec!r}")


def build_integrand(args) -> dict:
    """Resolve --fn into an integrand plus whatever exact data comes with it."""
    spec = args.fn
    if spec == "3f":
        return example_3f(args.depth)
    if spec == "3g":
        return example_3g(args.R)
    phi = identity_integrand() if spec == "identity" else poly_integrand(spec)
    return {"integrand": phi, "exact_integral": exact_vector_integral(phi)}


# -- command handlers ----------------------------------------------------------
# each returns (exit_code, result, csv_rows)


def cmd_integrate(args):
    built = build_integrand(args)
    phi, exact = built["integrand"], built["exact_integral"]
    est = mcshane_integrate(
        phi, schedule=args.schedule, tol=args.tol, trials_per_level=args.trials,
        max_levels=args.max_levels, seed=args.seed,
    )
    err = distance(est.value, exact)
    within_tol = bool(err.hi <= args.tol + est.oscillation)
    result = {
        "integrand": phi,
        "status": est.status,
        "value": est.value,
        "oscillation": est.oscillation,
        "trace": est.trace,
        "exact_integral": exact,
        "error_vs_exact": err,
        "within_tol": within_tol,
    }
    return (0 if est.converged and within_tol else 1), result, est.trace


def cmd_pettis(args):
    built = build_integrand(args)
    phi = built["integrand"]
    fs = default_functionals(phi.space, args.functionals, seed=args.seed)
    regions = sample_regions(args.regions, seed=args.seed + 1)
    out = pettis_check(phi, fs, regions, tol=args.tol, seed=args.seed)
    return (0 if out["pass"] else 1), dict(out, integrand=phi), out["entries"]


def cmd_series(args):
    built = build_integrand(args)
    phi = built["integrand"]
    blocks = truncation_cover(args.blocks + 1)[:args.blocks]
    out = interval_series_check(phi, blocks, tol=args.tol,
                                window_start=args.window_start, seed=args.seed)
    result = dict(out, integrand=phi, blocks=blocks)
    result["tail_below_tol"] = out["pass"]
    ok = out["pass"]
    if args.fn == "3g":
        # blocks hit pairwise-disjoint coordinates, so the worst late-window
        # gap is the l2 tail starting at the window; for this slow decay the
        # formula match is the check, not tail_max <= tol (that would need
        # ~2^18 blocks)
        coords = built["coordinates"]
        w = out["window_start"]
        tail_sq = sum((c * c for c in coords[w:args.blocks]), Fraction(0))
        formula = sqrt_enclosure(tail_sq)
        result["tail_formula"] = formula
        result["formula_gap"] = abs(out["tail_max"] - formula.hi)
        result["matches_formula"] = bool(
            out["tail_max"] <= formula.hi + args.tol
            and out["tail_max"] >= formula.lo - args.tol
        )
        ok = result["matches_formula"]
    result["pass"] = ok
    rows = [{"block": i, "norm": n} for i, n in enumerate(out["block_norms"])]
    return (0 if ok else 1), result, rows


def cmd_abscont(args):
    built = build_integrand(args)
    phi = built["integrand"]
    out = absolute_continuity(phi, args.etas, regions_per_eta=args.regions_per_eta,
                              seed=args.seed, tol=args.tol)
    rows = out["rows"]
    monotone = all(a["modulus"] <= b["modulus"] for a, b in zip(rows, rows[1:]))
    result = dict(out, integrand=phi, monotone=monotone)
    bound = phi.sup_norm_bound()
    for row in rows:
        row["bound"] = bound * row["eta"] + 2 * args.tol
        row["within_bound"] = bool(row["modulus"] <= row["bound"])
    ok = monotone and all(r["within_bound"] for r in rows)
    result["sup_norm_bound"] = bound
    result["pass"] = ok
    return (0 if ok else 1), result, rows


def cmd_lln(args):
    built = build_integrand(args)
    phi, exact = built["integrand"], built["exact_integral"]
    rep = talagrand_integrate(phi, seed=args.seed, n=args.n, batches=args.batches)
    sqrt_n = sqrt_enclosure(Fraction(args.n))
    rows = []
    for i, (mean, var) in enumerate(zip(rep.means, rep.variances)):
        err = distance(mean, exact).hi
        sigma = sqrt_enclosure(var).hi
        limit = 3 * sigma / sqrt_n.lo
        rows.append({"batch": i, "error": err, "sigma": sigma,
                     "limit": limit, "within": bool(err <= limit)})
    within = sum(row["within"] for row in rows)
    pooled_err = distance(rep.pooled, exact).hi
    ok = bool(10 * within >= 9 * args.batches and pooled_err <= Fraction(1, 100))
    return (0 if ok else 1), {
        "integrand": phi,
        "n": args.n,
        "batches": args.batches,
        "pooled": rep.pooled,
        "spread": rep.spread,
        "exact_integral": exact,
        "batches_within_3_sigma": within,
        "pooled_error": pooled_err,
        "pass": ok,
    }, rows


def cmd_bochner(args):
    built = build_integrand(args)
    phi = built["integrand"]
    out = bochner_integrate(phi, args.eps, max_pieces=args.max_pieces)
    if isinstance(out, NotApproximable):
        return 1, {"integrand": phi, "kind": "not-approximable", "certificate": out}, None
    return 0, {
        "integrand": phi,
        "kind": "certificate",
        "n_parts": out.n_parts,
        "dominator_integral": out.dominator_integral,
        "value": out.value,
        "epsilon": out.epsilon,
    }, None


def cmd_stability(args):
    if args.family == "pairsum":
        fam = FunctionFamily.pairsum(args.h)
    else:
        built = build_integrand(args)
        phi = built["integrand"]
        fs = default_functionals(phi.space, 4, seed=args.seed)
        fam = family_from_integrand(phi, fs)
    if args.scan:
        out = stability_scan(fam, [args.E], [(args.alpha, args.beta)],
                             mn_max=args.mn_max, samples=args.samples,
                             seed=args.seed, margin=args.margin)
        cells = [
            {"region": json.dumps(row["region"]), **cell}
            for row in out["rows"] for cell in row["cells"]
        ]
        return 0, out, cells
    q = ZQuery(args.E, args.m, args.n, args.alpha, args.beta)
    out = z_measure_mc(fam, q, samples=args.samples, seed=args.seed)
    code = 1 if out["comparison"] == "above-threshold" else 0
    return code, dict(out, family=fam.describe()), None


def cmd_vitali(args):
    if args.sequence == "spike":
        space = ValueSpace.findim(1, "l2")
        limit = IntegrandFn(space, STEP, 0, (0, 1), values=(VectorValue.coords(space, [0]),),
                            label="zero")

        def seq(n: int) -> IntegrandFn:
            j = min(n + 1, 30)
            return IntegrandFn(
                space, STEP, j, (0, 1, 1 << j),
                values=(VectorValue.coords(space, [1 << j]), VectorValue.coords(space, [0])),
                label=f"spike-{j}",
            )

        phi = limit
    else:
        built = build_integrand(args)
        phi = built["integrand"]
        seq = truncation_sequence(phi, truncation_cover(max(args.R, 2)))
    fs = default_functionals(phi.space, args.functionals, seed=args.seed)
    regions = sample_regions(args.regions, seed=args.seed + 1)
    out = vitali_limit(seq, phi, fs, regions, tol=args.tol, n_max=args.n_max,
                       seed=args.seed)
    return (0 if out["pass"] else 1), dict(out, integrand=phi), None


def cmd_gallery(args):
    if args.kind == "3f":
        built = example_3f(args.depth)
        # below half a grid cell, delta at most halves the bound 2 delta + grid
        # while the constant-gauge partition doubles with every halving
        if args.delta is not None and args.delta < built["grid"] / 2:
            raise ValueError(f"--delta must be at least 2^-(depth+1) = {built['grid'] / 2} "
                             f"for --depth {args.depth}, got {args.delta}")
        phi = built["integrand"]
        refusal = bochner_integrate(phi, args.eps, max_pieces=args.max_pieces)
        result = {
            "integrand": phi,
            "grid": built["grid"],
            "separation": phi.metadata["separation"],
            "bochner": refusal,
            "bochner_refused": isinstance(refusal, NotApproximable),
        }
        code = 0 if isinstance(refusal, NotApproximable) else 1
        if args.delta is not None:
            g = Gauge.const(args.delta)
            p = cousin_partition(g, seed=args.seed)
            err = distance(riemann_sum(phi, p), built["exact_integral"])
            result["riemann_delta"] = args.delta
            result["riemann_error"] = err
            allowed = 2 * args.delta + built["grid"]
            result["riemann_error_allowed"] = allowed
            if err.hi > allowed:
                code = 1
        result["pass"] = code == 0
        return code, result, None
    if args.kind == "3g":
        built = example_3g(args.R)
        lower = lower_norm_integral(built["integrand"], grid_depth=args.norm_depth)
        return 0, {
            "integrand": built["integrand"],
            "exact_integral": built["exact_integral"],
            "coordinates": built["coordinates"],
            "lower_norm_integral": lower,
            "harmonic_half": harmonic_half(args.R),
            "norm_grid_depth": args.norm_depth,
            "pass": True,
        }, None
    # 3e
    fat = build_fat_set(args.L, args.r)
    fam = build_A_family(fat, args.L, jump_grid_depth=args.jump_depth, cap=args.R)
    try:
        w = oscillation_witness_3e(fat, fam, args.R, args.gauge, seed=args.seed,
                                   proxy_depth=args.proxy_depth,
                                   max_attempts=args.max_attempts)
    except SearchExhausted as exc:
        return 1, {
            "fat": fat.diagnostics,
            "kind": "search-exhausted",
            "message": str(exc),
            "index": exc.index,
            "trace": exc.trace,
        }, None
    required = Fraction(3, 5) - Fraction(1, w["k"])
    result = {
        "fat": fat.diagnostics,
        "k": w["k"],
        "m": w["m"],
        "mu_level_set": w["mu_level_set"],
        "proxy": w["proxy"],
        "tags_out": w["tags_out"],
        "tags_in": w["tags_in"],
        "gap": w["gap"],
        "bound": w["bound"],
        "required": required,
        "coordinate_gap": w["coordinate_gap"],
        "partition_sums_differ": True,
        "partitions": list(w["partitions"]),
        "pass": bool(w["gap"] >= w["bound"] and w["gap"] >= required),
    }
    rows = [{"tag_out": str(t), "tag_in": str(u), "cell_lo": c[0], "cell_hi": c[1]}
            for t, u, c in zip(w["tags_out"], w["tags_in"], w["cells"])]
    return (0 if result["pass"] else 1), result, rows


def cmd_report(args):
    rows = []
    all_valid = True
    for path in args.files:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            rows.append({"file": path, "command": "", "valid": False,
                         "problems": str(exc)})
            all_valid = False
            continue
        row = digest_row(path, doc)
        all_valid = all_valid and row["valid"]
        rows.append(row)
    return (0 if all_valid else 1), {"files": len(rows), "all_valid": all_valid,
                                     "rows": rows}, rows


# -- option table --------------------------------------------------------------
# Every option is declared once: dest -> (kind, detail, help), its flag --dest
# with "-" for "_".  The kind says how a flag, or a config value, is read:
#   int        an integer >= detail (None: no bound), the least a run can
#              use; a config value is read as text, so "8" is 8 and 8.5 fails
#   choice     one of the detail tuple (a JSON string)
#   fraction   p/q, p/2^k or 2^-k; "fractions" is a comma list of them
#   parsed     a string that detail parses once the config is echoed, so the
#              report keeps the text given (a JSON string)
#   text       a string (a JSON string)
#   switch     a flag without a value (a JSON boolean)
OPTIONS = {
    "seed": ("int", None, "rng seed (default: GIL_SEED env, then 0)"),
    "tol": ("fraction", None, "tolerance, e.g. 2^-10 or 1/1024"),
    "out": ("text", None, "write the JSON report here"),
    "csv": ("text", None, "write table-valued output here"),
    "config": ("text", None, "JSON config file; flags override"),
    "deterministic": ("switch", None, "omit timestamps so reruns are byte-identical"),
    "fn": ("parsed", arg_fn, "integrand: identity, 3f, 3g or poly:c0,c1;d0,..."),
    "R": ("int", 1, "3g block count (gallery 3e: family member cap)"),
    "depth": ("int", 1, "3f grid depth"),
    "schedule": ("choice", ("auto", "adapted"), "gauge schedule (default: adapted)"),
    "trials": ("int", 2, "partitions per level"),
    "max_levels": ("int", 1, "schedule levels before giving up"),
    "functionals": ("int", 1, "sampled functionals"),
    "regions": ("int", 1, "sampled regions"),
    "blocks": ("int", 1, "geometric blocks"),
    "window_start": ("int", 0, "first block of the tail window"),
    "etas": ("fractions", None, "measure bounds, e.g. 2^-2,2^-4"),
    "regions_per_eta": ("int", 1, "sampled regions per eta"),
    "batches": ("int", 1, "sample batches"),
    "n": ("int", 1, "lln: samples per batch; stability: query n"),
    "eps": ("fraction", None, "approximation tolerance"),
    "max_pieces": ("int", 1, "piece budget of the simple function"),
    "family": ("choice", ("integrand", "pairsum"), "function family"),
    "h": ("parsed", parse_region, "avoid region for the pairsum family"),
    "E": ("parsed", parse_region, "query region, e.g. 0:1/2+3/4:1"),
    "m": ("int", 1, "query m"),
    "alpha": ("fraction", None, "lower threshold"),
    "beta": ("fraction", None, "upper threshold"),
    "samples": ("int", 100, "Monte Carlo samples"),
    "scan": ("switch", None, "scan m, n up to --mn-max for a witness"),
    "mn_max": ("int", 1, "largest m and n of the scan"),
    "margin": ("fraction", None, "scan margin, a share of the threshold"),
    "sequence": ("choice", ("truncations", "spike"), "integrand sequence"),
    "n_max": ("int", 2, "sequence terms"),
    "kind": ("choice", ("3e", "3f", "3g"), "paper example"),
    "L": ("int", 1, "fat-set stages"),
    "r": ("int", 2, "fat-set resolution"),
    "gauge": ("parsed", arg_gauge, "const:1/5 or piecewise:0,1/2,1;1/4,1/8"),
    "jump_depth": ("int", 0, "jump grid depth of the family"),
    "max_attempts": ("int", 1, "witness search attempts"),
    "proxy_depth": ("int", 0, "search k up to 2^proxy-depth"),
    "delta": ("fraction", None, "constant gauge of the 3f Riemann sum"),
    "norm_depth": ("int", 0, "grid depth of the lower norm integral"),
    "files": ("text", None, "reports to digest"),
}

# positional arguments, with what argparse needs besides; not config keys
POSITIONAL = {"kind": {}, "files": {"nargs": "+"}}

# command -> (help, {dest: default}).  Defaults apply after the config file,
# so argparse's stay None.  None is no default, and an fn without one is
# required.  _COMMON's options come first in every command.
_COMMON = {"seed": None, "tol": DEFAULT_TOL, "out": None, "csv": None,
           "config": None, "deterministic": False}
COMMANDS = {name: (text, {**_COMMON, **options}) for name, (text, options) in {
    "integrate": ("gauge-schedule Riemann sums",
                  {"fn": None, "R": 16, "depth": 8, "schedule": None, "trials": 3,
                   "max_levels": 12}),
    "pettis": ("dual-pairing consistency check",
               {"fn": None, "R": 16, "depth": 6, "functionals": 20, "regions": 20}),
    "series": ("interval-series partial sums and tails",
               {"fn": None, "R": 16, "depth": 6, "blocks": 12, "window_start": None}),
    "abscont": ("absolute-continuity modulus table",
                {"fn": None, "R": 16, "depth": 6, "etas": "2^-2,2^-4,2^-6,2^-8",
                 "regions_per_eta": 8}),
    "lln": ("empirical-mean batches against the closed form",
            {"fn": None, "R": 8, "depth": 6, "batches": 30, "n": 10_000}),
    "bochner": ("simple-function certificate or refusal",
                {"fn": None, "R": 16, "depth": 12, "eps": "1/100", "max_pieces": 64}),
    "stability": ("separation-set measure estimates",
                  {"fn": "identity", "R": 8, "depth": 6, "family": "integrand", "h": "0:2",
                   "E": "0:1", "m": 1, "n": 1, "alpha": "3/10", "beta": "7/10",
                   "samples": 100_000, "scan": False, "mn_max": 3, "margin": "1/100"}),
    "vitali": ("convergence-theorem hypotheses and conclusion",
               {"fn": "3g", "R": 8, "depth": 6, "sequence": "truncations", "n_max": 12,
                "functionals": 8, "regions": 8}),
    "gallery": ("constructed integrands and witnesses",
                {"kind": None, "L": 4, "r": 3, "R": 64, "gauge": "const:1/5",
                 "jump_depth": 10, "max_attempts": 200, "proxy_depth": 12, "depth": 12,
                 "eps": "1/100", "max_pieces": 64, "delta": None, "norm_depth": 8}),
    "report": ("digest and validate emitted reports", {"files": None}),
}.items()}


def _flag(dest: str) -> str:
    return dest if dest in POSITIONAL else "--" + dest.replace("_", "-")


# built once per process: parse_args reads the parser and leaves it unchanged
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gaugelab",
                                 description="gauge-integral laboratory on [0,1]")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (about, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=about)
        for dest in options:
            kind, detail, text = OPTIONS[dest]
            kw = {"int": {"type": int}, "choice": {"choices": detail},
                  "switch": {"action": "store_true", "default": None}}.get(kind, {})
            sp.add_argument(_flag(dest), help=text, **kw, **POSITIONAL.get(dest, {}))
    return ap


_HANDLERS = {
    "integrate": cmd_integrate,
    "pettis": cmd_pettis,
    "series": cmd_series,
    "abscont": cmd_abscont,
    "lln": cmd_lln,
    "bochner": cmd_bochner,
    "stability": cmd_stability,
    "vitali": cmd_vitali,
    "gallery": cmd_gallery,
    "report": cmd_report,
}


def _config_value(key: str, dest: str, value):
    """A config file's value for dest, read as its flag would read it."""
    kind, detail, _ = OPTIONS[dest]
    if kind == "int":
        try:
            return int(str(value))
        except ValueError:
            raise ValueError(f"config key {key!r}: invalid int value {value!r}") from None
    if kind == "switch":
        ok, expected = isinstance(value, bool), "true or false"
    elif kind in ("fraction", "fractions"):  # an int, a string, or a list of them
        items = value if kind == "fractions" and isinstance(value, list) else [value]
        ok = all(isinstance(x, (int, str)) and not isinstance(x, bool) for x in items)
        expected = ("a string or an integer" + (", or a list of them" if kind == "fractions"
                                                else "") + f" ({FRACTION_FORMS})")
    else:
        ok = isinstance(value, str) and (kind != "choice" or value in detail)
        expected = "one of " + ", ".join(detail) if kind == "choice" else "a string"
    if not ok:
        raise ValueError(f"config key {key!r}: expected {expected}, got {json.dumps(value)}")
    return value


def resolve_args(args: argparse.Namespace) -> dict:
    """Fold in the config file (flags override), env seed and defaults, then
    convert fractions and check the lower bounds.  Returns the resolved config
    dict that the report embeds."""
    options = COMMANDS[args.command][1]
    keys = {}  # dest -> the config key that set it
    if args.config:
        with open(args.config) as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in overrides.items():
            dest = key.replace("-", "_")
            if dest not in options or dest in POSITIONAL:
                raise ValueError(f"config key {key!r} is not a known option")
            if getattr(args, dest) is None:
                setattr(args, dest, _config_value(key, dest, value))
                keys[dest] = key
    for dest, default in options.items():
        if getattr(args, dest) is None and default is not None:
            setattr(args, dest, default)
    if "fn" in options and args.fn is None:
        raise ValueError(f"{args.command} requires --fn (or fn in the config file)")
    if args.seed is None:
        args.seed = int(os.environ.get("GIL_SEED", "0"))
    # an error names the config key that set the option, or else its flag
    names = {dest: f"config key {keys[dest]!r}" if dest in keys else _flag(dest)
             for dest in options}
    for dest in options:
        kind, detail, _ = OPTIONS[dest]
        value, name = getattr(args, dest), names[dest]
        if value is None:
            continue
        if kind in ("fraction", "fractions"):
            # the report echoes the value, so one it cannot print is refused
            # here rather than after the check has run
            setattr(args, dest, _printable(arg_fractions(name, kind, value), name))
        elif kind == "int" and detail is not None and value < detail:
            raise ValueError(f"{name} must be an integer >= {detail}, got {value!r}")
    if args.tol <= 0:
        raise ValueError(f"{names['tol']} must be positive, got {args.tol}")
    resolved = {key: value for key, value in sorted(vars(args).items())
                if key not in ("out", "csv", "config")}
    for dest in options:
        kind, parse, _ = OPTIONS[dest]
        if kind == "parsed" and getattr(args, dest) is not None:
            try:
                value = parse(getattr(args, dest))
            except (ValueError, GaugeLabError) as exc:
                sep = " " if str(exc) == UNPRINTABLE else ": "
                raise ValueError(f"{names[dest]}{sep}{exc}") from None
            # a region's endpoints reach its report as fractions (its measure
            # among them), so a region whose endpoints cannot print is refused
            if isinstance(value, Region):
                _printable([Fraction(a, 1 << value.exp) for a in (*value.lo, *value.hi)],
                           names[dest])
            setattr(args, dest, value)
    return resolved


def _failure_reason(command: str, result: dict) -> str:
    """One line saying why a check that ran to its end did not pass."""
    if result.get("within_tol") is False and result["status"] == "converged":
        return f"{command}: within_tol false"
    for key in ("status", "kind", "comparison"):
        if key in result:
            return f"{command}: {key} {result[key]}"
    return f"{command}: the check did not pass; its report holds the details"


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        config = resolve_args(args)
    except (OSError, ValueError, GaugeLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    handler = _HANDLERS[args.command]
    reason = None
    try:
        code, result, rows = handler(args)
    except GaugeLabError as exc:
        # a failed check still leaves its report
        code, rows, reason = 1, None, str(exc)
        result = {"pass": False, "error": type(exc).__name__, "message": reason}
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # the caps keep every option's own allocation small; this is the
        # last line for a machine with less memory than they allow for
        print(f"error: {args.command} ran out of memory: {str(exc) or 'no detail'}",
              file=sys.stderr)
        return 2
    try:
        doc = build_report(args.command, config, result,
                           deterministic=args.deterministic)
        text = write_report(doc, args.out)
        if args.csv and rows:
            write_csv(rows, args.csv)
    except (ValueError, OSError) as exc:
        # a value with more digits than Python prints, or an unwritable path
        print(f"error: the {args.command} report cannot be written: {exc}", file=sys.stderr)
        return 2
    if code == 1:
        print(f"check failed: {reason or _failure_reason(args.command, result)}",
              file=sys.stderr)
    if not args.out:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
