"""Benchmark child process: one workload and one seed under resource caps.

run.py starts it with PYTHONPATH pointing at the checkout's src/.  It prints
one JSON event per line on its standard output:

  ready  fixtures are built (`t` is time.monotonic(), the same clock as the
         parent's, so the parent times set-up from its own spawn), with the
         reference-loop samples taken during set-up and the time they took
  check  one verdict with its oracle: key, seconds, ok, reason, digest
  speed  (--trace 0 only) the reference-loop samples of the timed phase
  trace  (--trace 1 only) per-layer metrics of the traced pass
  done   wall time of the timed phase, peak resident memory and the keys of
         the checks the run never started (see STOP_STARTING_CHECKS_S)

The address-space cap turns a runaway allocation into a failed check (a
MemoryError) instead of a dead machine; the per-check wall-clock cap does the
same for a hang.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

import speed
import tracing

ADDRESS_SPACE_CAP = 1 << 30  # bytes; the largest workload stays near 100 MB
STOP_STARTING_CHECKS_S = 100  # past this no check starts; the rest count as skipped


class CheckTimeout(BaseException):
    """Raised by the wall-clock cap; a BaseException so that library code
    catching Exception cannot swallow it."""


def _on_alarm(signum, frame):
    raise CheckTimeout()


def run_check(check, cap_s: float, tracer=None, sampler=None) -> dict:
    """Time compute + verify under the cap; the digest is taken afterwards.
    The time the sampler's reference passes took is not the check's."""
    results = []

    def body():
        results.append(check.compute())
        return check.verify(results[0])
    if tracer is not None:
        body = tracer.span(tracing.ROOT_SPAN, body)
    spent0 = sampler.spent if sampler else 0.0
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        ok, why = body()
    except CheckTimeout:
        ok, why = False, f"exceeded the {cap_s} s per-check cap"
    except MemoryError:
        ok, why = False, "exceeded the address-space cap"
    except Exception as exc:  # a raising check is a failed check, not a dead run
        ok, why = False, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - t0 - ((sampler.spent - spent0) if sampler else 0.0)
    digest = hashlib.sha256(check.canonical(results[0])).hexdigest() if results else None
    return {"event": "check", "key": check.key, "s": seconds, "ok": bool(ok),
            "why": why, "digest": digest, "known_defect": "" if ok else check.known_defect(why)}


def emit(stream, event: dict):
    stream.write(json.dumps(event) + "\n")
    stream.flush()


def run_groups(stream, groups, cap_s: float, tracer=None) -> tuple[float, dict]:
    """Run fixed groups; returns (wall seconds, key -> digest)."""
    digests = {}
    t0 = time.monotonic()
    for checks in groups:
        for check in checks:
            rec = run_check(check, cap_s, tracer)
            digests[rec["key"]] = rec["digest"]
            emit(stream, rec)
    return time.monotonic() - t0, digests


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    signal.signal(signal.SIGALRM, _on_alarm)
    events = sys.stdout
    sys.stdout = sys.stderr  # nothing the program prints can corrupt the events

    sampler = speed.Sampler(speed.SETUP_SAMPLE_EVERY_S)
    sampler.start()
    import gaugelab._kernels
    import workloads

    workload_cls = workloads.WORKLOADS[args.workload]
    wl = workload_cls(args.seed)
    ready = time.monotonic()
    sampler.stop()
    sampler.samples.append(speed.reference_s())  # at least one, however short set-up was
    emit(events, {"event": "ready", "t": ready, "speed": sampler.samples,
                  "sampler_s": sampler.spent,
                  "kernel_backend": "numba" if gaugelab._kernels.USING_NUMBA else "numpy"})
    if args.setup_only:
        return 0
    cap = workload_cls.check_cap_s

    if args.trace:
        # The same fixed groups twice: untraced, then traced with fresh fixtures
        # so that set-up layers (the fat set, the family) are traced too.
        n = workload_cls.trace_groups
        untraced_s, plain = run_groups(events, (wl.group(g) for g in range(n)), cap)
        tracer = tracing.install()
        wl = tracer.span(tracing.ROOT_SPAN, workload_cls)(args.seed)
        traced_s, traced = run_groups(events, (wl.group(g) for g in range(n)), cap, tracer)
        spans = Path(".bench_out") / f"spans-{args.workload}-seed{args.seed}.npz"
        spans.parent.mkdir(exist_ok=True)
        tracer.write(spans)
        emit(events, {"event": "trace", "untraced_s": untraced_s, "traced_s": traced_s,
                      "digests_match": plain == traced, "spans_file": str(spans),
                      "n_spans": len(tracer.span_start),
                      "metrics": tracer.metrics(outputs_changed=None,
                                                overhead_s=traced_s - untraced_s)})
        wall, skipped = untraced_s + traced_s, []
    else:
        # A commit several times slower than the one that set group_seconds
        # would outrun the parent's time limit; its remaining checks are
        # skipped, and the parent counts them as failed.
        sampler = speed.Sampler(speed.SAMPLE_EVERY_S)
        t0, skipped = time.monotonic(), []
        sampler.start()
        for g in range(max(1, round(args.seconds / workload_cls.group_seconds))):
            for check in wl.group(g):
                if time.monotonic() - t0 > STOP_STARTING_CHECKS_S:
                    skipped.append(check.key)
                else:
                    emit(events, run_check(check, cap, sampler=sampler))
        sampler.stop()
        wall = time.monotonic() - t0
        emit(events, {"event": "speed", "samples": sampler.samples})
    emit(events, {"event": "done", "wall_s": wall, "skipped": skipped,
                  "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
    return 0


if __name__ == "__main__":
    sys.exit(main())
