"""Size options of the sampling commands, and literals with a huge exponent:
bounded memory, and exit 2 at once past a cap.  Example 3g's values, one
scaled unit vector c e_n of an R-dimensional space per block, take memory
linear in R.

Each case runs `gaugelab.cli.main` in a child process that caps its own
address space with RLIMIT_AS, then prints the exit code, the time `main`
took, stderr and the child's peak RSS as one JSON line.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
MEMORY_CAP = 1 << 30
CHILD = r"""
import contextlib, io, json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]), int(sys.argv[1])))
import gaugelab.cli
err = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
    code = gaugelab.cli.main(sys.argv[2:] + ["--deterministic"])
elapsed = time.perf_counter() - start
print(json.dumps({"code": code, "elapsed": elapsed, "stderr": err.getvalue(),
                  "peak_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""

PAIRSUM = ["stability", "--family", "pairsum", "--h", "1/4:1/2", "--m", "1", "--n", "2"]


def run_child(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(MEMORY_CAP), *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("argv, reason", [
    (["lln", "--fn", "identity", "--batches", "10", "--n", "1000000000"],
     "n must be at most"),
    (PAIRSUM[:5] + ["--m", "1000", "--n", "1000"], "m + n must be at most"),
    (PAIRSUM + ["--samples", "1000000000000"], "samples must be at most"),
    (["stability", "--scan", "--mn-max", "1000"], "mn_max must be at most"),
    # a literal's exponent is bounded before 2^k is built
    (["integrate", "--fn", "identity", "--tol", "2^-9999999999"], "--tol must be a fraction"),
    (["integrate", "--fn", "identity", "--tol", "1/2^9999999999"], "--tol must be a fraction"),
    (["integrate", "--fn", "identity", "--tol", "2^9999999999"], "--tol must be a fraction"),
    (["stability", "--E", "0:1/2^9999999999"], "--E: exponent 9999999999 lies outside"),
    (["stability", "--E", "0:2^-9999999999"], "--E: exponent -9999999999 lies outside"),
    (["gallery", "3e", "--gauge", "piecewise:0,1/2^9999999999,1;1/4,1/8"],
     "--gauge: exponent 9999999999 lies outside"),
    (["gallery", "3e", "--gauge", "const:2^-9999999999"],
     "--gauge: exponent -9999999999 lies outside"),
    (["lln", "--fn", "3f", "--n", "1000001"], "n must be at most"),
    # 3g's cap: the largest R whose report can print its exact values
    (["gallery", "3g", "--R", "10000"], "R must be in 1..9870"),
    (["integrate", "--fn", "3g", "--R", "1000000"], "R must be in 1..9870"),
])
def test_past_a_cap_exits_2_at_once(argv, reason):
    out = run_child(argv)
    lines = out["stderr"].strip().splitlines()
    assert out["code"] == 2, out
    assert len(lines) == 1 and lines[0].startswith("error: ") and reason in lines[0], out
    assert out["elapsed"] < 1, out


def test_pairsum_peak_rss_does_not_grow_with_samples():
    small = run_child(PAIRSUM + ["--samples", "100000"])
    large = run_child(PAIRSUM + ["--samples", "2000000"])
    assert small["code"] == large["code"] == 0
    assert large["peak_kb"] - small["peak_kb"] <= 2048, (small["peak_kb"], large["peak_kb"])


def test_lln_peak_rss_does_not_grow_with_samples():
    small = run_child(["lln", "--fn", "identity", "--batches", "2", "--n", "100000"])
    large = run_child(["lln", "--fn", "identity", "--batches", "2", "--n", "1000000"])
    assert small["code"] == large["code"] == 0
    assert large["peak_kb"] - small["peak_kb"] <= 2048, (small["peak_kb"], large["peak_kb"])


def test_gallery_3g_peak_rss_grows_linearly():
    # each c e_n is at most 3 runs, so the values hold O(R) ints, not R^2
    from gaugelab.gallery import example_3g
    for R in (1, 2, 3, 1000):
        assert sum(len(v.nums) for v in example_3g(R)["integrand"].values) <= 3 * R + 1
    small = run_child(["gallery", "3g", "--R", "1000"])
    large = run_child(["gallery", "3g", "--R", "4000"])
    assert small["code"] == large["code"] == 0
    assert large["peak_kb"] - small["peak_kb"] <= 24 * 1024, (small["peak_kb"], large["peak_kb"])
