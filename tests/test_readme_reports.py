"""Every README CLI example, run in process with --deterministic, must write
the report whose SHA-256 is recorded in readme_report_digests.json, and exit
with the recorded code.

The examples are read from the sh block of the README's CLI section, in
order.  Example i (from 1) writes out{i}.json in a scratch directory, so the
README's `report out1.json out2.json` digests the two integrate reports.  A
changed report fails the test named after its command line.  A change that
alters a report on purpose re-records the file:

    PYTHONPATH=src python tests/test_readme_reports.py
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shlex
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


if __name__ == "__main__":
    import numpy

    with tempfile.TemporaryDirectory() as tmp:
        reports = run_examples(Path(tmp))
    DIGESTS.write_text(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "reports": reports,
    }, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(reports)} reports in {DIGESTS}", file=sys.stderr)
