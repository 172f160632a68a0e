"""The benchmark's contract: every workload of perfbench/run.py runs on this
tree, and its checks agree with their oracles.

perfbench/ wraps or reads names of the package: `integrands.scalar_integral`,
`IntegrandFn.eval`, `Interval.length`, `spaces._merge_steps`,
`spaces.distance`, `VectorValue.__add__` and `__mul__`,
`integrate.indefinite_integral` (the pairing workload rebinds it),
`DualFunctional.kind` and `.params`, `TaggedPartition.items`,
`Region.parts`, `_kernels.USING_NUMBA`, and the `Dyadic` `breaks` and the
`levels` of family members (`Member`).  Its tracer reads the first and last
item of every partition that `cousin_partition` returns, so
`mcshane_integrate` must build no partition for an integrand whose support
is empty.  It also counts the runs of `_merge_steps` inside the
`VectorValue.__add__` and `__mul__` spans by calling `len()` on what it
returns, a generator, so `_merge_steps` must never run inside those two
methods.  A change that drops one of these names or breaks either rule
fails here, not first in a benchmark run.

Each workload runs traced (`--trace 1`, which ignores `--seconds`) in a copy
of perfbench/, BENCHMARK.json and src/ under tmp_path, so the run's output
lands there and nothing under perfbench/ changes.  The pairing, witness and
ramp checks must reproduce their recorded output digests.  The readme
workload's recorded digests are stale, so its count of changed outputs is
not asserted; tests/test_readme_reports.py pins those reports instead.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["pairing", "witness", "ramp", "readme"])
def test_traced_workload_is_correct(workload, tmp_path):
    skip = shutil.ignore_patterns("__pycache__", ".bench_out")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "5", "--seconds", "20", "--trace", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout[-2000:]
    if workload != "readme":
        assert result["metrics"]["report.outputs_changed"]["value"] == 0, proc.stdout[-2000:]
