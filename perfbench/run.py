"""gaugelab benchmark: checked verdicts per second, end to end and per layer.

    python3 perfbench/run.py --workload {pairing,witness,ramp,readme} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; gaugelab is imported from its src/.  One
workload runs in a fresh child process (worker.py) as a closed loop: one
client, one process, no extra threads, each check starting when the previous
one has finished.  Every verdict is checked against an oracle.

--trace 0  runs a fixed number of check groups that took about --seconds at
           the commit that defined the benchmark, sets up ten more times
           around them (setup_s is the median of eleven), and reports the
           end-to-end metrics of BENCHMARK.json.  Their times are scaled to
           the machine's nominal speed by the reference loop of speed.py,
           sampled through the run; the wall-clock figures are printed too.
--trace 1  runs a fixed number of groups untraced and then the same groups
           traced (see tracing.py), and reports the per-layer metrics of
           BENCHMARK.json; it ignores --seconds.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A failed check is one that raised, hit the
per-check time or memory cap, disagreed with its oracle, or was never started
because the run passed its time limit; `correct` stays true only if every
failed check is a known defect listed in workloads.py.
Results, with the environment they ran in, are also written to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up runs per --trace 0 run: half before the timed run, half after it, and
# the worker's own.
SETUP_SAMPLES = 11
RUN_BUDGET_S = 170  # every child is killed by then, so a run ends within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMBA_NUM_THREADS"):
        env[var] = "1"
    env.pop("GIL_SEED", None)  # README examples run with their documented default seed
    return env


def spawn(argv: list[str], deadline: float) -> tuple[float, list[dict], int]:
    """Run worker.py to completion or the deadline; returns (spawn time on the
    monotonic clock, events, exit code).  The child is always reaped."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE)
    events, buf = [], b""
    fd = proc.stdout.fileno()
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while (left := deadline - time.monotonic()) > 0:
                if not sel.select(left):
                    continue
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                buf += chunk
                *lines, buf = buf.split(b"\n")
                events.extend(json.loads(line) for line in lines if line)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    return t_spawn, events, proc.returncode


def setup_time(ready: dict, t_spawn: float) -> tuple[float, float]:
    """(wall-clock set-up seconds, the same scaled to the machine's nominal
    speed by the samples taken during that set-up); the sampler's own time
    is left out of both."""
    wall = ready["t"] - t_spawn - ready["sampler_s"]
    return wall, wall * speed.NOMINAL_S / statistics.harmonic_mean(ready["speed"])


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int, backend: str | None) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {
        "revision": git_revision(),
        "source_sha256": source_digest(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "kernel_backend": backend,
        "seed": seed,
    }


def outputs_changed(checks: list[dict]) -> tuple[int, int]:
    """(inputs whose output digest differs from the recorded baseline,
    inputs with no recorded digest), over the distinct inputs of a run."""
    path = HERE / "baseline_digests.json"
    baseline = json.loads(path.read_text())["digests"] if path.is_file() else {}
    seen = {}
    for c in checks:
        seen.setdefault(c["key"], set()).add(c["digest"])
    changed = sum(1 for k, ds in seen.items() if k in baseline and ds != {baseline[k]})
    unrecorded = sum(1 for k in seen if k not in baseline)
    return changed, unrecorded


def timing_summary(times: list[float]) -> str:
    """Sample count, quartiles and the highest percentile with ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    text = f"n={n}"
    if n >= 2:
        q1, q2, q3 = statistics.quantiles(ordered, n=4)
        text += f" q1={q1:.4f} median={q2:.4f} q3={q3:.4f}"
    if n > 10:
        text += f" p{100 * (n - 10) / n:.0f}={ordered[n - 11]:.4f}"
    return text + " s"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "gaugelab" / "__init__.py").is_file():
        print(f"error: no gaugelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setup = []

    def set_up(times: int) -> bool:
        for _ in range(times):
            t_spawn, events, code = spawn(common + ["--setup-only"], deadline)
            ready = [e for e in events if e["event"] == "ready"]
            if code != 0 or not ready:
                print(f"error: set-up failed (exit {code})", file=sys.stderr)
                return False
            setup.append(setup_time(ready[0], t_spawn))
        return True

    extra = 0 if args.trace else SETUP_SAMPLES - 1
    if not set_up(extra // 2):
        return 1
    t_spawn, events, code = spawn(common, deadline)
    by_kind = {}
    for e in events:
        by_kind.setdefault(e["event"], []).append(e)
    checks = by_kind.get("check", [])
    done = by_kind.get("done", [None])[0]
    traced = by_kind.get("trace", [None])[0]
    if (code != 0 or not checks or done is None or (args.trace and traced is None)
            or (not args.trace and not by_kind.get("speed", [{}])[0].get("samples"))):
        print(f"error: incomplete run (worker exit {code}, {len(checks)} checks, "
              f"events {sorted(by_kind)})", file=sys.stderr)
        return 1
    ready = by_kind["ready"][0]
    setup.append(setup_time(ready, t_spawn))
    if not set_up(extra - extra // 2):
        return 1

    skipped = done["skipped"]
    failed = [c for c in checks if not c["ok"]]
    unexpected = [c for c in failed if not c.get("known_defect")]
    changed, unrecorded = outputs_changed(checks)
    correct = (not unexpected and not skipped
               and (not args.trace or traced["digests_match"]))
    attempted, n_failed = len(checks) + len(skipped), len(failed) + len(skipped)
    env = environment(args.seed, ready.get("kernel_backend"))

    print(f"gaugelab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics = traced["metrics"]
        metrics["report.outputs_changed"]["value"] = changed
        top = sorted(((v["value"], k) for k, v in metrics.items()
                      if k.endswith("self_s")), reverse=True)[:5]
        print("largest self times: " + ", ".join(f"{k} {v:.3f} s" for v, k in top))
        print(f"tracing overhead: traced {traced['traced_s']:.3f} s - untraced "
              f"{traced['untraced_s']:.3f} s = "
              f"{traced['traced_s'] - traced['untraced_s']:.3f} s "
              f"({traced['n_spans']} spans in {traced['spans_file']}); "
              f"outputs identical: {traced['digests_match']}")
    else:
        times = [c["s"] for c in checks]
        refs = by_kind["speed"][0]["samples"]
        scale = speed.NOMINAL_S / statistics.harmonic_mean(refs)  # < 1 on a slow machine
        metrics = {
            "setup_s": {"value": statistics.median(s for _, s in setup), "unit": "s"},
            "checks_per_s": {"value": len(checks) / (sum(times) * scale), "unit": "1/s"},
            "check_p50_s": {"value": statistics.median(times) * scale, "unit": "s"},
            "peak_rss_mb": {"value": done["max_rss_kb"] / 1024, "unit": "MB"},
        }
        print(f"machine speed: reference pass {timing_summary(refs)}, harmonic mean "
              f"{statistics.harmonic_mean(refs):.6f} s, nominal {speed.NOMINAL_S} s; "
              f"check times are scaled by {scale:.4f}, each set-up by its own samples")
        print(f"wall clock: setup_s {statistics.median(w for w, _ in setup):.4f} s, checks_per_s "
              f"{len(checks) / sum(times):.4f} 1/s, check_p50_s {statistics.median(times):.4f} s")
        print("setup_s samples (wall clock/scaled): "
              + ", ".join(f"{w:.4f}/{s:.4f}" for w, s in setup))
        print(f"check times (wall clock): {timing_summary(times)}")
        print(f"checks: {len(checks)} taking {sum(times):.3f} s of a {done['wall_s']:.3f} s run")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    names = [m["name"] for m in declared]
    missing = [n for n in names if n not in metrics]
    if missing:
        print(f"error: BENCHMARK.json declares {missing}, which this run does not measure",
              file=sys.stderr)
        return 1
    # printed above but left out of the result: check_p50_s (see README.md)
    metrics = {n: metrics[n] for n in names}
    print(f"  {'fail_share':44s} {n_failed / attempted:>14.6g} "
          f"({n_failed} of {attempted} checks failed, {len(skipped)} of them never started)")
    print(f"  {'outputs_changed':44s} {changed:>14d} "
          f"(distinct inputs; {unrecorded} with no recorded digest)")
    for c in failed:
        tag = "known defect" if c.get("known_defect") else "FAILED"
        print(f"{tag}: {c['key']}: {c['why']}")
    if skipped:
        print(f"FAILED: {len(skipped)} checks never started, the first {skipped[0]}: the "
              f"timed run passed its time limit")

    result = {"correct": bool(correct), "attempted": attempted, "failed": n_failed,
              "metrics": metrics}
    out = ROOT / ".bench_out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"env": env, "result": result, "setup_s": setup,
                               "reference_s": by_kind.get("speed", [{}])[0].get("samples"),
                               "checks": checks, "skipped": skipped}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
