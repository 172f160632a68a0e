"""End-to-end checks of the command-line surface: exit codes, report schema,
config precedence, determinism, and CSV emission.  Everything runs through a
real subprocess so argument plumbing and stdout behavior are exercised."""

import csv
import json
import os
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "gaugelab.cli"]


def run(*argv, env_extra=None, timeout=120):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(argv), capture_output=True, text=True,
                          env=env, timeout=timeout)


def run_json(tmp_path, name, *argv, expect=0, env_extra=None):
    out = tmp_path / f"{name}.json"
    proc = run(*argv, "--out", str(out), env_extra=env_extra)
    assert proc.returncode == expect, proc.stderr or proc.stdout
    with open(out) as fh:
        return json.load(fh)


def test_integrate_3g_contract_invocation(tmp_path):
    doc = run_json(tmp_path, "i3g", "integrate", "--fn", "3g", "--R", "8",
                   "--tol", "2^-12", "--seed", "7")
    assert doc["schema"] == "gauge-lab/1"
    assert doc["command"] == "integrate"
    assert doc["result"]["status"] == "converged"
    assert doc["result"]["within_tol"] is True


def test_integrate_unknown_fn_is_usage_error():
    proc = run("integrate", "--fn", "nosuch")
    assert proc.returncode == 2
    assert "unknown integrand" in proc.stderr


def test_integrate_missing_fn_is_usage_error():
    proc = run("integrate")
    assert proc.returncode == 2
    assert "--fn" in proc.stderr


def test_stdout_when_no_out_flag():
    proc = run("integrate", "--fn", "identity", "--deterministic")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["schema"] == "gauge-lab/1"


def test_deterministic_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        proc = run("integrate", "--fn", "3g", "--R", "6",
                   "--deterministic", "--out", str(path))
        assert proc.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_timestamp_present_unless_deterministic(tmp_path):
    with_ts = run_json(tmp_path, "ts", "integrate", "--fn", "identity")
    without = run_json(tmp_path, "nots", "integrate", "--fn", "identity",
                       "--deterministic")
    assert "generated_at" in with_ts
    assert "generated_at" not in without


def test_gil_seed_env_is_default_seed(tmp_path):
    doc = run_json(tmp_path, "env", "integrate", "--fn", "identity",
                   env_extra={"GIL_SEED": "42"})
    assert doc["config"]["seed"] == 42
    # explicit flag wins over the env
    doc = run_json(tmp_path, "env2", "integrate", "--fn", "identity",
                   "--seed", "5", env_extra={"GIL_SEED": "42"})
    assert doc["config"]["seed"] == 5


def test_config_file_fills_and_flags_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fn": "3g", "R": 6, "seed": 3}))
    doc = run_json(tmp_path, "cfg1", "integrate", "--config", str(cfg))
    assert (doc["config"]["fn"], doc["config"]["R"], doc["config"]["seed"]) == ("3g", 6, 3)
    doc = run_json(tmp_path, "cfg2", "integrate", "--config", str(cfg),
                   "--R", "4", "--seed", "9")
    assert (doc["config"]["fn"], doc["config"]["R"], doc["config"]["seed"]) == ("3g", 4, 9)
    # string values take the flag's type, as they would on the command line
    cfg.write_text(json.dumps({"fn": "3g", "R": "6", "seed": "3"}))
    doc = run_json(tmp_path, "cfg3", "integrate", "--config", str(cfg))
    assert (doc["config"]["fn"], doc["config"]["R"], doc["config"]["seed"]) == ("3g", 6, 3)


def test_unknown_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"bogus-key": 1}))
    proc = run("integrate", "--fn", "identity", "--config", str(cfg))
    assert proc.returncode == 2


def test_csv_trace_emitted(tmp_path):
    csv_path = tmp_path / "trace.csv"
    proc = run("integrate", "--fn", "3g", "--R", "6",
               "--out", str(tmp_path / "r.json"), "--csv", str(csv_path))
    assert proc.returncode == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and "oscillation" in rows[0]


def test_pettis_passes_for_3g(tmp_path):
    doc = run_json(tmp_path, "pet", "pettis", "--fn", "3g", "--R", "6",
                   "--functionals", "5", "--regions", "5")
    assert doc["result"]["pass"] is True


def test_series_3g_matches_tail_formula(tmp_path):
    doc = run_json(tmp_path, "ser", "series", "--fn", "3g", "--R", "10",
                   "--blocks", "10")
    r = doc["result"]
    assert r["pass"] is True and r["matches_formula"] is True
    # raw tolerance flag reported honestly: harmonic decay keeps tails large
    assert r["tail_below_tol"] is False


def test_abscont_monotone_and_bounded(tmp_path):
    doc = run_json(tmp_path, "ac", "abscont", "--fn", "identity",
                   "--etas", "2^-2,2^-4", "--regions-per-eta", "4")
    assert doc["result"]["monotone"] is True
    assert doc["result"]["pass"] is True


def test_bochner_refusal_exits_one(tmp_path):
    doc = run_json(tmp_path, "br", "bochner", "--fn", "3f", "--depth", "10",
                   expect=1)
    assert doc["result"]["kind"] == "not-approximable"


def test_bochner_certificate_exits_zero(tmp_path):
    doc = run_json(tmp_path, "bc", "bochner", "--fn", "3g", "--R", "6")
    assert doc["result"]["kind"] == "certificate"


def test_gallery_3f_refusal_is_the_pass(tmp_path):
    doc = run_json(tmp_path, "g3f", "gallery", "3f", "--depth", "10")
    r = doc["result"]
    assert r["bochner_refused"] is True and r["pass"] is True


def test_gallery_3f_delta_bound_is_half_a_grid_cell(tmp_path):
    # 2^-(depth+1) itself is accepted, anything below it is a usage error
    doc = run_json(tmp_path, "g3f", "gallery", "3f", "--depth", "8", "--delta", "2^-9")
    assert doc["result"]["riemann_delta"] == "1/512" and doc["result"]["pass"] is True
    proc = run("gallery", "3f", "--depth", "8", "--delta", "1/513")
    assert proc.returncode == 2
    assert proc.stderr.strip() == ("error: --delta must be at least 2^-(depth+1) = 1/512 "
                                   "for --depth 8, got 1/513")


def test_gallery_3e_contract_invocation(tmp_path):
    doc = run_json(tmp_path, "g3e", "gallery", "3e", "--L", "2", "--R", "16",
                   "--gauge", "const:1/5", "--seed", "11")
    r = doc["result"]
    assert r["pass"] is True
    from fractions import Fraction
    gap = Fraction(r["gap"])
    assert gap >= Fraction(r["bound"])
    assert gap >= Fraction(3, 5) - Fraction(1, r["k"])
    assert len(r["partitions"]) == 2


def test_gallery_3e_piecewise_gauge_with_leading_filler(tmp_path):
    # the gauge's level set starts at 1/8, so the filler comes before the cells
    doc = run_json(tmp_path, "g3e-pw", "gallery", "3e", "--L", "4", "--R", "64",
                   "--gauge", "piecewise:0,1/8,1;1/100,1/2", "--seed", "1")
    r = doc["result"]
    assert r["pass"] is True
    assert (r["k"], r["m"]) == (8, 7)
    assert len(r["partitions"]) == 2


def test_stability_single_query(tmp_path):
    doc = run_json(tmp_path, "st", "stability", "--family", "pairsum",
                   "--h", "1/4:1/2", "--m", "1", "--n", "2",
                   "--samples", "20000")
    assert doc["result"]["comparison"] in ("strictly-below", "above-threshold",
                                           "inconclusive")


def test_vitali_spike_counterexample_flagged(tmp_path):
    doc = run_json(tmp_path, "vs", "vitali", "--sequence", "spike",
                   "--n-max", "5", "--functionals", "3", "--regions", "3",
                   expect=1)
    assert doc["result"]["pass"] is False


def test_report_digest_roundtrip(tmp_path):
    p1 = tmp_path / "one.json"
    run("integrate", "--fn", "identity", "--deterministic", "--out", str(p1))
    garbled = tmp_path / "bad.json"
    garbled.write_text("not json")
    doc = run_json(tmp_path, "dig", "report", str(p1))
    assert doc["result"]["all_valid"] is True
    proc = run("report", str(p1), str(garbled), "--out",
               str(tmp_path / "dig2.json"))
    assert proc.returncode == 1



def test_integrate_exit_follows_tol(tmp_path):
    # steady rate-1/2 convergence that stops short of tol is max-level, exit 1
    doc = run_json(tmp_path, "tight", "integrate", "--fn", "identity",
                   "--tol", "2^-20", "--deterministic", expect=1)
    assert doc["result"]["status"] == "max-level"


def test_failed_check_still_writes_report(tmp_path):
    out = tmp_path / "f.json"
    proc = run("bochner", "--fn", "poly:0,0,0,5", "--eps", "0", "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines()[-1].startswith("check failed: ")
    doc = json.loads(out.read_text())
    assert doc["command"] == "bochner"
    assert doc["result"]["pass"] is False
    assert doc["result"]["error"] == "UnsupportedExactIntegration"
    assert "the piece budget is 64" in doc["result"]["message"]


# config files named in the argv below, written to a scratch directory; each
# holds one key, which the error line must name
CONFIGS = {"R-not-an-int.json": {"R": "eight"}, "R-a-list.json": {"R": [8]},
           "R-a-float.json": {"R": 8.5}, "fn-an-int.json": {"fn": 5},
           "fn-a-list.json": {"fn": ["3f"]}, "family-bogus.json": {"family": "bogus"},
           "sequence-bogus.json": {"sequence": "bogus"}, "scan-no.json": {"scan": "no"},
           "deterministic-no.json": {"deterministic": "no"}, "out-an-int.json": {"out": 5},
           "kind-a-key.json": {"kind": "3f"}, "command-a-key.json": {"command": "lln"},
           "tol-null.json": {"tol": None}, "tol-true.json": {"tol": True},
           "tol-a-float.json": {"tol": 0.1}, "etas-a-float.json": {"etas": ["2^-2", 0.25]},
           "tol-malformed.json": {"tol": "x"}, "tol-a-list.json": {"tol": [1]},
           "R-zero.json": {"R": 0}, "tol-zero.json": {"tol": "0"},
           "gauge-unprintable.json": {"gauge": "const:2^-99999"},
           "fn-unprintable.json": {"fn": "poly:2^-99999"},
           "delta-unprintable.json": {"delta": "2^-99999"},
           "E-unprintable.json": {"E": "0:2^-99999"}}


@pytest.mark.parametrize("argv", [
    ("integrate", "--fn", "identity", "--tol", "1/0"),
    ("integrate", "--fn", "identity", "--tol", "0"),
    ("integrate", "--fn", "identity", "--tol", "-1"),
    ("integrate", "--fn", "identity", "--max-levels", "0"),
    ("lln", "--fn", "identity", "--batches", "0"),
    ("lln", "--fn", "identity", "--n", "0"),
    ("vitali", "--n-max", "0"),
    ("stability", "--E", "1:0"),
    ("stability", "--E", "1/0:1"),
    ("gallery", "3e", "--gauge", "const:0"),
    # each of these would run no check at all and pass vacuously
    ("series", "--fn", "3g", "--blocks", "0"),
    ("pettis", "--fn", "identity", "--functionals", "0"),
    ("pettis", "--fn", "identity", "--regions", "0"),
    ("abscont", "--fn", "identity", "--etas", ","),
    ("abscont", "--fn", "identity", "--regions-per-eta", "0"),
    # no region has measure <= 0, so these would sample forever
    ("abscont", "--fn", "3f", "--etas", "0"),
    ("abscont", "--fn", "3f", "--etas=-1/4"),
    ("abscont", "--fn", "3f", "--etas", "1/4,0"),
    # nor does any sampled region have a positive measure below 2^-52
    ("abscont", "--fn", "3f", "--etas", "2^-53"),
    # a 2^17-cell norm grid of Fraction cuts
    ("gallery", "3g", "--norm-depth", "17"),
    ("gallery", "3g", "--norm-depth", "40"),
    ("stability", "--scan", "--mn-max", "0"),
    # a constant-gauge partition of about 2^40 items
    ("gallery", "3f", "--delta", "2^-40"),
    ("integrate", "--fn", "poly:"),
    ("series", "--fn", "3g", "--window-start", "99"),
    ("series", "--fn", "3g", "--window-start", "-1"),
    ("vitali", "--config", "R-not-an-int.json"),
    ("vitali", "--config", "R-a-list.json"),
    ("vitali", "--config", "R-a-float.json"),
    # a config value is read as its flag reads it: a string for text, one of
    # the choices for a choice, a JSON boolean for a switch, and for a
    # fraction neither null (which would fall back to the default) nor a boolean
    ("integrate", "--config", "fn-an-int.json"),
    ("lln", "--config", "fn-a-list.json"),
    ("stability", "--config", "family-bogus.json"),
    ("vitali", "--config", "sequence-bogus.json"),
    ("stability", "--config", "scan-no.json"),
    ("integrate", "--fn", "identity", "--config", "deterministic-no.json"),
    ("integrate", "--fn", "identity", "--config", "out-an-int.json"),
    ("integrate", "--fn", "identity", "--config", "tol-null.json"),
    ("integrate", "--fn", "identity", "--config", "tol-true.json"),
    # a JSON float is the binary float, not the decimal it was written as, so
    # a fraction option refuses it as --tol 0.1 is refused
    ("integrate", "--fn", "identity", "--config", "tol-a-float.json"),
    ("abscont", "--fn", "3f", "--config", "etas-a-float.json"),
    ("integrate", "--fn", "identity", "--config", "tol-malformed.json"),
    ("integrate", "--fn", "identity", "--config", "tol-a-list.json"),
    # a value below its bound names the config key that set it
    ("vitali", "--config", "R-zero.json"),
    ("integrate", "--fn", "identity", "--config", "tol-zero.json"),
    # positional arguments are not config keys
    ("gallery", "3e", "--config", "kind-a-key.json"),
    ("lln", "--fn", "identity", "--config", "command-a-key.json"),
    # below an int option's lower bound: a vacuous pass, two zero budgets
    # that failed the check, and a shift error that did not name the flag
    ("gallery", "3f", "--max-pieces", "0"),
    ("bochner", "--fn", "3f", "--max-pieces", "0"),
    ("gallery", "3e", "--max-attempts", "0"),
    ("gallery", "3e", "--jump-depth", "-2"),
    # a region endpoint with more digits than a report prints, and a region
    # whose endpoints print but whose threshold (mu E)^(m+n) does not
    ("stability", "--E", "2^-99999:1", "--samples", "200"),
    ("stability", "--E", "2^-3000:1", "--m", "3", "--n", "3"),
    # a report path in a directory that does not exist
    ("integrate", "--fn", "identity", "--out", "no-such-dir/r.json"),
], ids=" ".join)
def test_bad_input_is_usage_error(argv, tmp_path):
    keys = [key for a in argv if a in CONFIGS for key in CONFIGS[a]]
    argv = [str(tmp_path / a) if a in CONFIGS else a for a in argv]
    for name, config in CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(config))
    proc = run(*argv)
    assert proc.returncode == 2, proc.stderr or proc.stdout
    assert proc.stderr.strip().splitlines()[-1].startswith("error: ")
    assert "Traceback" not in proc.stderr
    for key in keys:
        assert proc.stderr.splitlines() == [proc.stderr.strip()], proc.stderr
        assert f"config key {key!r}" in proc.stderr, proc.stderr


def _int_options():
    from gaugelab import cli
    return [pytest.param(command, dest, id=f"{command} {dest}")
            for command, (_, options) in cli.COMMANDS.items() for dest in options
            if cli.OPTIONS[dest][0] == "int" and cli.OPTIONS[dest][1] is not None]


@pytest.mark.parametrize("command, dest", _int_options())
def test_int_option_below_its_bound_is_usage_error(command, dest, capsys):
    # in process: the table's bound stops the run before any work, with one
    # line that names the flag
    from gaugelab import cli
    _, options = cli.COMMANDS[command]
    bound = cli.OPTIONS[dest][1]
    flag = "--" + dest.replace("_", "-")
    argv = [command] + (["3e"] if command == "gallery" else []) \
        + (["--fn", "identity"] if "fn" in options else []) + [f"{flag}={bound - 1}"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: {flag} must be an integer >= {bound}, got {bound - 1}"]


@pytest.mark.parametrize("argv", [
    ("bochner", "--fn", "3f", "--eps", "2^-99999"),
    ("integrate", "--fn", "identity", "--tol", "2^-99999"),
    ("stability", "--E", "2^-99999:1"),
    ("gallery", "3e", "--gauge", "const:2^-99999"),
    ("integrate", "--fn", "poly:0,2^-99999"),
    # fraction, region and parsed options alike, from a config file
    ("gallery", "3e", "--config", "gauge-unprintable.json"),
    ("integrate", "--config", "fn-unprintable.json"),
    ("gallery", "3f", "--config", "delta-unprintable.json"),
    ("stability", "--family", "pairsum", "--h", "1/4:1/2", "--config", "E-unprintable.json"),
], ids=" ".join)
def test_unprintable_fraction_is_usage_error(argv, tmp_path):
    # the report would echo a value with more digits than Python prints, so
    # the run stops before any check with one line naming the flag or config key
    name, config = argv[-2], CONFIGS.get(argv[-1])
    if config:
        (tmp_path / argv[-1]).write_text(json.dumps(config))
        argv, name = (*argv[:-1], str(tmp_path / argv[-1])), f"config key {[*config][0]!r}"
    proc = run(*argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.strip().splitlines() == [
        f"error: {name} has more digits than a report can print"]


@pytest.mark.parametrize("argv", [
    ("integrate", "--fn", "identity", "--tol", "x"),
    ("integrate", "--fn", "identity", "--tol", "0.1"),
    ("integrate", "--fn", "identity", "--tol", "1/0"),
    ("integrate", "--fn", "identity", "--tol", "2^-99999999999999999999"),
    ("bochner", "--fn", "3f", "--eps", "1/2^x"),
    ("stability", "--alpha", "1e-3"),
    ("abscont", "--fn", "3f", "--etas", "1/x"),
    ("abscont", "--fn", "3f", "--etas", "2^-2,0.5"),
    ("abscont", "--fn", "3f", "--etas", ","),
], ids=" ".join)
def test_malformed_fraction_names_its_flag(argv, capsys):
    # in process: one line naming the flag and the forms a fraction takes,
    # not Python's message from int()
    from gaugelab import cli
    assert cli.main(list(argv)) == 2
    out, err = capsys.readouterr()
    expected = "a fraction" if argv[-2] != "--etas" else "a comma list of fractions"
    assert out == ""
    assert err.splitlines() == [f"error: {argv[-2]} must be {expected} "
                                f"(p/q, p/2^k, 2^-k or an integer), got {argv[-1]!r}"]


@pytest.mark.parametrize("argv, config, name", [
    (("integrate", "--fn", "poly:x"), None, "--fn"),
    (("integrate", "--fn", "poly:1e3"), None, "--fn"),
    (("integrate", "--fn", "poly:1/0"), None, "--fn"),
    (("integrate", "--fn", "poly:2^9999999999"), None, "--fn"),
    (("integrate",), {"fn": "poly:x"}, "config key 'fn'"),
    (("stability", "--E", "1:0"), None, "--E"),
    (("stability", "--family", "pairsum", "--h", "1:0"), None, "--h"),
    (("gallery", "3e", "--gauge", "const:0"), None, "--gauge"),
    (("gallery", "3e", "--gauge", "piecewise:0,1;0"), None, "--gauge"),
    (("stability",), {"E": "1:0"}, "config key 'E'"),
], ids=lambda x: " ".join(x) if isinstance(x, tuple) else json.dumps(x) if x else "")
def test_parse_error_names_its_option(argv, config, name, tmp_path, capsys):
    # in process: a value its parser refuses, whether with a ValueError or a
    # package error, ends in one line that names the flag or the config key
    from gaugelab import cli
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config))
        argv = (*argv, "--config", str(tmp_path / "c.json"))
    assert cli.main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {name}: "), err


def test_calls_in_one_process_write_what_fresh_processes_write(tmp_path):
    # main builds its parser once per process; a usage error between two
    # calls must leave the second call's report as a fresh process writes it
    from gaugelab import cli
    runs = [("lln", "--fn", "identity", "--batches", "3", "--n", "200"),
            ("stability", "--family", "pairsum", "--h", "1/4:1/2", "--m", "1", "--n", "2",
             "--samples", "2000", "--seed", "3")]
    for i, argv in enumerate(runs):
        assert cli.main([*argv, "--deterministic", "--out", str(tmp_path / f"in-{i}.json")]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["stability", "--samples", "x"])
        assert exc.value.code == 2
    for i, argv in enumerate(runs):
        proc = run(*argv, "--deterministic", "--out", str(tmp_path / f"fresh-{i}.json"))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / f"in-{i}.json").read_bytes() == \
            (tmp_path / f"fresh-{i}.json").read_bytes()


def test_memory_error_is_one_error_line(monkeypatch, capsys):
    from gaugelab import cli

    def exhausted(args):
        raise MemoryError("Unable to allocate 7.45 GiB for an array")
    monkeypatch.setitem(cli._HANDLERS, "lln", exhausted)
    assert cli.main(["lln", "--fn", "identity"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: lln ran out of memory: Unable to allocate 7.45 GiB for an array"]


def test_integrate_exits_1_when_its_error_passes_tol(monkeypatch, capsys, tmp_path):
    # every Riemann sum doubled: the run still converges, but its error
    # against the exact integral is far past tol
    from gaugelab import cli, integrate
    riemann_sum = integrate.riemann_sum
    monkeypatch.setattr(integrate, "riemann_sum", lambda phi, p: riemann_sum(phi, p) * 2)
    out = tmp_path / "doubled.json"
    argv = ["integrate", "--fn", "3g", "--R", "16", "--tol", "2^-12", "--seed", "7"]
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["check failed: integrate: within_tol false"]
    result = json.loads(out.read_text())["result"]
    assert result["status"] == "converged" and result["within_tol"] is False


def test_lln_on_a_constant_polynomial_passes(tmp_path):
    # every sample of 1/3 is 1/3 exactly: no batch strays and the variance is 0
    doc = run_json(tmp_path, "third", "lln", "--fn", "poly:1/3", "--batches", "5", "--n", "100")
    assert doc["result"]["batches_within_3_sigma"] == 5
    assert doc["result"]["pooled_error"] == "0"
