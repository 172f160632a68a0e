"""Every README CLI example, run with --deterministic, must write the report
whose SHA-256 is recorded in readme_report_digests.json, and exit with the
recorded code: once in process, and once more, each example in its own
subprocess, through the `gaugelab` console script when it is on PATH (else
`python -m gaugelab.cli`).  The subprocess pass also runs a few commands
that are not README examples and checks only their exit codes.

The examples are read from the sh block of the README's CLI section, in
order.  Example i (from 1) writes out{i}.json in a scratch directory, so the
README's `report out1.json out2.json` digests the two integrate reports.  A
changed report fails the test named after its command line.  A change that
alters a report on purpose re-records the file:

    PYTHONPATH=src python tests/test_readme_reports.py

and `--python PATH` runs every example, each in its own process, under that
interpreter instead, prints per example whether its exit code and digest
match the record, and exits 1 if one does not.  An example that imports
numpy, run under an interpreter without it, reads `needs numpy`: that is no
failure.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from gaugelab import cli

HERE = Path(__file__).resolve().parent
README = HERE.parent / "README.md"
DIGESTS = HERE / "readme_report_digests.json"


def readme_examples() -> list[str]:
    """The README's example command lines, comments dropped."""
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", README.read_text(), re.S).group(1)
    return [shlex.join(shlex.split(line, comments=True)) for line in block.splitlines()
            if line.startswith("gaugelab ")]


def run_examples(workdir: Path) -> dict:
    """command line -> {"exit", "sha256"}, each example run in workdir."""
    out = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.delenv("GIL_SEED", raising=False)  # the documented default seed
            for i, line in enumerate(readme_examples(), 1):
                report = Path(f"out{i}.json")
                with contextlib.redirect_stderr(io.StringIO()):
                    try:
                        code = cli.main(shlex.split(line)[1:]
                                        + ["--deterministic", "--out", str(report)])
                    except SystemExit as exc:  # argparse rejects bad usage this way
                        code = exc.code
                digest = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else None
                out[line] = {"exit": code, "sha256": digest}
    finally:
        os.chdir(cwd)
    return out


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    return run_examples(tmp_path_factory.mktemp("readme"))


RECORDED = json.loads(DIGESTS.read_text())["reports"] if DIGESTS.exists() else {}


@pytest.mark.parametrize("line", readme_examples()
                         + [line for line in RECORDED if line not in readme_examples()])
def test_readme_report_matches_recorded_digest(line, ran):
    assert line in RECORDED, f"{line!r}: no recorded digest"
    assert line in ran, f"{line!r}: recorded, but no longer a README example"
    assert ran[line] == RECORDED[line], f"{line!r}: the report or exit code changed"


# commands checked for their exit code only: the witness on a piecewise
# gauge, and two that must stop at once on a size bound, not run on
EXIT_ONLY = {
    "gaugelab gallery 3e --L 4 --R 64 --gauge 'piecewise:0,1/2,1;1/4,1/8' --seed 11": 0,
    "gaugelab gallery 3e --L 30": 2,
    "gaugelab stability --family pairsum --h 1/4:1/2 --m 1 --n 2 --samples 1000000000000": 2,
}


def run_subprocesses(workdir: Path, python: str = "") -> dict:
    """command line -> {"exit", "sha256"}, each command in its own process in
    workdir, importing the gaugelab these tests import: under `python` if
    given, else through the `gaugelab` script on PATH or this interpreter.  A
    command that stops because its interpreter has no numpy gets "needs
    numpy" in place of the dict."""
    script = None if python else shutil.which("gaugelab")
    prefix = [script] if script else [python or sys.executable, "-m", "gaugelab.cli"]
    env = {key: value for key, value in os.environ.items() if key != "GIL_SEED"}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = {}
    for i, line in enumerate(readme_examples() + list(EXIT_ONLY), 1):
        report = workdir / f"out{i}.json"
        proc = subprocess.run(prefix + shlex.split(line)[1:]
                              + ["--deterministic", "--out", report.name],
                              cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=10 if EXIT_ONLY.get(line) == 2 else 60)
        digest = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else None
        out[line] = ("needs numpy" if "No module named 'numpy'" in proc.stderr
                     else {"exit": proc.returncode, "sha256": digest})
    return out


def check_under(python: str) -> int:
    """Run every example under `python`; print and count the changed ones."""
    with tempfile.TemporaryDirectory() as tmp:
        ran = run_subprocesses(Path(tmp), python)
    changed = 0
    for line, got in ran.items():
        if got == "needs numpy":
            verdict = got
        elif got["exit"] == EXIT_ONLY[line] if line in EXIT_ONLY else got == RECORDED.get(line):
            verdict = "same"
        else:
            verdict, changed = "CHANGED", changed + 1
        print(f"{verdict:<12} {line}")
    return 1 if changed else 0


@pytest.fixture(scope="module")
def ran_apart(tmp_path_factory):
    return run_subprocesses(tmp_path_factory.mktemp("readme-subprocess"))


@pytest.mark.parametrize("line", readme_examples() + list(EXIT_ONLY))
def test_command_in_a_subprocess_matches_record(line, ran_apart):
    if line in EXIT_ONLY:
        assert ran_apart[line]["exit"] == EXIT_ONLY[line], line
    else:
        assert ran_apart[line] == RECORDED.get(line), f"{line!r}: the report or exit code changed"


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--python", help="check the examples under this interpreter; record nothing")
    python = ap.parse_args().python
    if python:
        sys.exit(check_under(python))
    import numpy

    with tempfile.TemporaryDirectory() as tmp:
        reports = run_examples(Path(tmp))
    DIGESTS.write_text(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "reports": reports,
    }, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(reports)} reports in {DIGESTS}", file=sys.stderr)
