"""The exact commands run without numpy.

Every README example but `lln` and the two `stability` rows runs in one
child process, in README order, in a scratch directory, so that `report
out1.json out2.json` reads the two integrate reports.  After each, `numpy`
must not be in `sys.modules`, and the report must match its recorded
digest.  No module those commands load imports numpy or the sampling
kernels at module level: the functions that make float arrays import them.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from test_readme_reports import RECORDED, readme_examples

SRC = Path(__file__).resolve().parents[1] / "src"
FLOAT_ROWS = ("gaugelab lln ", "gaugelab stability ")
EXACT_LAYERS = ["exact", "gauges", "spaces", "integrands", "integrate", "gallery", "stability",
                "report", "cli", "rng"]
CHILD = r"""
import hashlib, json, shlex, sys
from pathlib import Path
import gaugelab.cli
for i, line in json.loads(sys.argv[1]):
    report = Path(f"out{i}.json")
    code = gaugelab.cli.main(shlex.split(line)[1:] + ["--deterministic", "--out", str(report)])
    digest = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else None
    print(json.dumps([line, {"exit": code, "sha256": digest}, "numpy" in sys.modules]))
"""


def test_exact_readme_rows_never_load_numpy(tmp_path):
    rows = [(i, line) for i, line in enumerate(readme_examples(), 1)
            if not line.startswith(FLOAT_ROWS)]
    assert len(rows) == 12
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(rows)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    ran = [json.loads(text) for text in proc.stdout.splitlines()]
    assert [line for line, _, _ in ran] == [line for _, line in rows]
    for line, record, numpy_loaded in ran:
        assert not numpy_loaded, f"{line!r} loaded numpy"
        assert record == RECORDED[line], f"{line!r}: the report or exit code changed"


def test_exact_layers_import_no_numpy_at_module_level():
    for name in EXACT_LAYERS:
        tree = ast.parse((SRC / "gaugelab" / f"{name}.py").read_text())
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            assert not any(n.split(".")[0] in ("numpy", "_kernels") for n in names), (name, names)
