"""Random command lines end in exit 0, 1 or 2 with a one-line reason.

Argv is drawn from the README subcommands and their flags, with small flag
values so that every run stays short, and with malformed tokens swapped in
for some values and appended at the end.  Some draws also pass a `--config`
file of one to three of the command's options, each well formed or junk.
Each draw runs `gaugelab` in its own subprocess under a 1 GiB address-space
cap.  Whatever the argv, the run must exit 0, 1 or 2, print no traceback, end
stderr with one `error:` line (exit 2) or one `check failed:` line (exit 1),
and finish within a wall-time bound.
"""

import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaugelab.cli import COMMANDS, OPTIONS, POSITIONAL

CLI = [sys.executable, "-m", "gaugelab.cli"]
SRC = str(Path(__file__).resolve().parents[1] / "src")
MEMORY_CAP = 1 << 30
WALL_BOUND_S = 30


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


FN = st.sampled_from(["identity", "3f", "3g", "poly:0,1;1/2", "poly:1,-2,1"])
FRAC = st.sampled_from(["1/10", "1/100", "2^-3", "1/3"])
MALFORMED = ["", "x", "-1", "0", "1/0", "2^-", "1.5", "nan", "inf", "--", "0:", ":1", "1:0",
             "1/2:1/4", "poly:", "poly:;", "poly:x", "const:0", "const:-1/5", "const:x",
             "piecewise:0,1;0", "piecewise:1,0;1", "piecewise:0,1/3,1;1,1", "2^-99999",
             "3/7", "-1/2", "0/1", "1,", ",", "2^x", "1e3", " "]

COMMON = {"--seed": ints(0, 5), "--tol": st.sampled_from(["2^-4", "1/16", "2^-6", "1/10"])}
FLAGS = {
    "integrate": {"--fn": FN, "--R": ints(1, 8), "--depth": ints(1, 6),
                  "--schedule": st.sampled_from(["auto", "adapted"]), "--trials": ints(2, 3),
                  "--max-levels": ints(1, 4)},
    "pettis": {"--fn": FN, "--R": ints(1, 8), "--depth": ints(1, 5),
               "--functionals": ints(1, 3), "--regions": ints(1, 2)},
    "series": {"--fn": FN, "--R": ints(1, 8), "--depth": ints(1, 5), "--blocks": ints(1, 5),
               "--window-start": ints(0, 4)},
    "abscont": {"--fn": FN, "--R": ints(1, 8), "--depth": ints(1, 5),
                "--etas": st.sampled_from(["2^-2", "2^-2,2^-4", "1/3"]),
                "--regions-per-eta": ints(1, 2)},
    "lln": {"--fn": FN, "--R": ints(1, 8), "--depth": ints(1, 5), "--batches": ints(1, 4),
            "--n": ints(1, 200)},
    "bochner": {"--fn": FN, "--R": ints(1, 8), "--depth": ints(1, 6), "--eps": FRAC,
                "--max-pieces": ints(1, 64)},
    "stability": {"--fn": FN, "--R": ints(1, 8), "--depth": ints(1, 5),
                  "--family": st.sampled_from(["integrand", "pairsum"]),
                  "--h": st.sampled_from(["1/4:1/2", "0:2", "1/2:3/2+7/4:2"]),
                  "--E": st.sampled_from(["0:1", "0:1/2", "1/4:1/2+3/4:1"]),
                  "--m": ints(1, 2), "--n": ints(1, 2),
                  "--alpha": st.sampled_from(["3/10", "0"]),
                  "--beta": st.sampled_from(["7/10", "1"]), "--samples": ints(1, 2000),
                  "--scan": st.none(), "--mn-max": ints(1, 2), "--margin": FRAC},
    "vitali": {"--fn": FN, "--R": ints(1, 6), "--depth": ints(1, 5),
               "--sequence": st.sampled_from(["truncations", "spike"]), "--n-max": ints(1, 5),
               "--functionals": ints(1, 2), "--regions": ints(1, 2)},
    "gallery": {"--L": ints(1, 3), "--r": ints(1, 3), "--R": ints(1, 16),
                "--gauge": st.sampled_from(["const:1/5", "const:1/3",
                                            "piecewise:0,7/8,1;1/5,1/100"]),
                "--jump-depth": ints(1, 8), "--max-attempts": ints(1, 50),
                "--proxy-depth": ints(1, 8), "--depth": ints(1, 6), "--eps": FRAC,
                "--max-pieces": ints(1, 64), "--delta": st.sampled_from(["2^-3", "1/5"]),
                "--norm-depth": ints(1, 6)},
}
# drawn on every run, so that no run falls back to a large default workload
ALWAYS = {"lln": ("--n", "--batches"), "stability": ("--samples",), "gallery": ("--R", "--L"),
          "pettis": ("--functionals", "--regions"), "vitali": ("--functionals", "--regions"),
          "abscont": ("--regions-per-eta",)}
# options the draws leave out: they name files or drop timestamps
UNDRAWN = ("out", "csv", "config", "deterministic")
# config values that are no option's well-formed value, or only some options'
JUNK = [5, [8], True, None, "x"]
TAILS = [["--deterministic"], ["--bogus"], ["--seed"], ["--seed", "x"], ["--tol", "0"],
         ["--tol", "-1/2"], ["stray"], ["--config", "missing.json"]]


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from(sorted(FLAGS) + ["report"]))
    if cmd == "report":
        return [cmd] + draw(st.lists(st.sampled_from(["missing.json", "."] + MALFORMED[:3]),
                                     max_size=2))
    argv = [cmd]
    if cmd == "gallery":
        argv.append(draw(st.sampled_from(["3e", "3f", "3g", "3x"])))
    flags = dict(COMMON, **FLAGS[cmd])
    chosen = set(ALWAYS.get(cmd, ())) | set(draw(st.lists(st.sampled_from(sorted(flags)),
                                                          max_size=4)))
    if "--fn" in flags and draw(st.integers(0, 9)):
        chosen.add("--fn")
    for flag in sorted(chosen):
        value = draw(flags[flag])
        if value is None:  # a switch
            argv.append(flag)
            continue
        if draw(st.integers(0, 3)) == 0:
            value = draw(st.sampled_from(MALFORMED))
        argv += [flag, value]
    if draw(st.integers(0, 3)) == 0:
        # the file's keys are option dests; a dict in argv is written to a
        # file and its name passed in its place
        keys = sorted(set(COMMANDS[cmd][1]) - set(POSITIONAL))
        config = {}
        for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True)):
            flag = "--" + key.replace("_", "-")
            if flag in flags and draw(st.booleans()):
                value = draw(flags[flag])
                config[key] = True if value is None else value  # a switch: true
            else:
                config[key] = draw(st.sampled_from(JUNK))
        argv += ["--config", config]
    if draw(st.integers(0, 3)) == 0:
        argv += draw(st.sampled_from(TAILS))
    return argv


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


REASON = re.compile(r"^(gaugelab( \w+)?: )?error: \S|^check failed: \S")


@settings(max_examples=40, deadline=None)
@given(argvs())
@example(["lln", "--fn", "identity", "--n", "2", "--batches", "1"])
@example(["report", "missing.json"])
@example(["integrate", "--fn", "identity", "--tol", "2^-20", "--max-levels", "2"])
@example(["bochner", "--fn", "3f", "--eps", "2^-99999"])
@example(["stability", "--E", "2^-99999:1", "--samples", "200"])
@example(["gallery", "3e", "--gauge", "const:2^-99999", "--R", "2", "--L", "2"])
@example(["lln", "--fn", "identity", "--batches", "10", "--n", "1000000000"])
@example(["stability", "--family", "pairsum", "--h", "1/4:1/2", "--m", "1000", "--n", "1000"])
@example(["stability", "--family", "pairsum", "--h", "1/4:1/2", "--m", "1", "--n", "2",
          "--samples", "1000000000000"])
def test_any_argv_exits_cleanly(tmp_path_factory, argv):
    # runs in an empty directory, with the package importable from there
    cwd = tmp_path_factory.mktemp("argv")
    for arg in argv:
        if isinstance(arg, dict):
            (cwd / "config.json").write_text(json.dumps(arg))
    argv = ["config.json" if isinstance(arg, dict) else arg for arg in argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    start = time.monotonic()
    proc = subprocess.run(CLI + argv, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=2 * WALL_BOUND_S, preexec_fn=_cap_memory)
    elapsed = time.monotonic() - start
    assert proc.returncode in (0, 1, 2), (argv, proc.returncode, proc.stderr[-2000:])
    assert "Traceback" not in proc.stderr, (argv, proc.stderr[-2000:])
    assert elapsed < WALL_BOUND_S, (argv, elapsed)
    if proc.returncode:
        lines = proc.stderr.strip().splitlines()
        reasons = [line for line in lines if REASON.match(line)]
        assert len(reasons) == 1 and lines[-1] == reasons[0], (argv, proc.stderr[-2000:])
        expect = "check failed: " if proc.returncode == 1 else "error: "
        assert expect in reasons[0], (argv, proc.stderr[-2000:])


def test_flags_cover_every_table_option():
    # the draws reach every option of every command, bar the undrawn ones
    for command, (_, options) in COMMANDS.items():
        drawn = {"--" + dest.replace("_", "-") for dest in options
                 if dest not in POSITIONAL and dest not in UNDRAWN}
        assert drawn <= set(COMMON) | set(FLAGS.get(command, {})), command
