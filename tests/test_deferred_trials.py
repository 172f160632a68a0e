"""A gauge level stops drawing once its verdict is decided, and the trace
records only the trials that ran.

`mcshane_integrate` runs each level's trials in order and stops the level
once the trials so far spread more than tol; no trial runs after it
returns.  The oracle is `tests/reference.py`'s `gauge_limit`, the level loop
in Fractions: every report of an estimate, `report.jsonable` with its
trace, must be its bytes, over poly and step integrands (restricted to a
region or not), the "auto", "adapted" and explicit-list schedules, several
tols (0 among them), 2 to 5 trials and converged and unconverged runs.  It
catches a failed level that runs its remaining trials, `<` for `<=` in the
stop test, the floor test over full spreads, and an unconverged value taken
from a trial that did not run.  The other tests count the partitions and
draws that `pettis_check` and `integrate` make, and run a skipped trial
that would raise: it never runs.
"""

import json
from collections import Counter
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaugelab import cli, gauges, integrate
from gaugelab.errors import MaxDepthExceeded
from gaugelab.exact import D0, Dyadic, Region
from gaugelab.gallery import example_3f
from gaugelab.gauges import Gauge, cousin_partition
from gaugelab.integrands import adapted_gauge, poly_integrand, restrict_integrand
from gaugelab.integrate import default_functionals, mcshane_integrate, pettis_check
from gaugelab.report import jsonable
from gaugelab.spaces import VectorValue
from gauge_draws import gauge_specs, make_gauge
import reference as ref
from test_partition_columns import oracle_tag_and_half_width

HALF = Dyadic(1, 1)
POLY2 = poly_integrand([[Fraction(1), Fraction(-2), Fraction(1)], [Fraction(0), Fraction(1)]],
                       label="poly2")
POLY1 = poly_integrand([[Fraction(1), Fraction(1)]])
QUARTER = Region.make((Dyadic(3, 2), Dyadic(13, 4)))
TOLS = [Fraction(0), Fraction(1, 1 << 10), Fraction(1, 1 << 8), Fraction(1, 1 << 7),
        Fraction(1, 64), Fraction(1, 16)]
WIDTHS = [Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), Fraction(1, 8), Fraction(1, 12),
          Fraction(1, 16)]
coefficients = st.builds(Fraction, st.sampled_from([-2, -1, 1, 3]), st.sampled_from([1, 2, 4]))


@st.composite
def integrands(draw):
    """A step integrand in a coordinate or a step space, or polynomials in 1
    or 2 coordinates of degree 1 or 2, often restricted to an interval of
    the 2^-4 grid."""
    kind = draw(st.sampled_from(["step", "step-space", "poly"]))
    if kind == "step":
        phi = ref.step_integrand(draw(st.sets(st.integers(1, 63), min_size=1, max_size=4)))
    elif kind == "step-space":
        phi = example_3f(draw(st.integers(1, 3)))["integrand"]
    else:
        dim = draw(st.integers(1, 2))
        phi = poly_integrand([draw(st.lists(coefficients, min_size=2, max_size=3))
                              for _ in range(dim)])
    if draw(st.booleans()):
        a = draw(st.integers(0, 15))
        b = draw(st.integers(a + 1, 16))
        phi = restrict_integrand(phi, Region.make((Dyadic(a, 4), Dyadic(b, 4))))
    return phi


@st.composite
def runs(draw):
    """(phi, schedule, the schedule's gauges, tol, trials, max_levels, seed)."""
    phi = draw(integrands())
    max_levels = draw(st.sampled_from([6, 4, 8, 1]))
    kind = draw(st.sampled_from(["auto", "adapted", "list"]))
    if kind == "auto":
        schedule, levels = kind, [Gauge.const(Fraction(1, 1 << k)) for k in range(max_levels)]
    elif kind == "adapted":
        schedule, levels = kind, [adapted_gauge(phi, k) for k in range(2, 2 + max_levels)]
    else:
        specs = draw(st.lists(gauge_specs(WIDTHS, depths=(0, 4), breaks=3, keys=(-4, 20),
                                          key_count=3, exps=(0, 4)), min_size=1, max_size=6))
        schedule = levels = [make_gauge(spec) for spec in specs]
    # 3 to 5 trials first: a level of 2 trials skips none
    trials = draw(st.sampled_from([3, 4, 5, 2]))
    return (phi, schedule, levels, draw(st.sampled_from(TOLS)), trials, max_levels,
            draw(st.integers(0, 10**6)))


def fits(g, iv, tag) -> bool:
    return g.fits(*oracle_tag_and_half_width(tag, iv))


def as_value(space, xs) -> VectorValue:
    if space.is_step:
        g = space.grid_depth
        return VectorValue.step(space, [Dyadic(k, g) for k in range(len(xs) + 1)], xs)
    return VectorValue.coords(space, xs)


def outcome(fn):
    """fn()'s result, or the message of the depth-cap error it raised."""
    try:
        return fn()
    except MaxDepthExceeded as exc:
        return "raised", str(exc)


def report(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True)


def model(phi, levels, tol, trials, seed) -> str:
    value, osc, status, trace = ref.gauge_limit(phi, levels, fits, tol, trials, seed)
    return report({"value": as_value(phi.space, value), "oscillation": osc, "status": status,
                   "trace": trace})


# converged after 7 failed levels
@example((POLY2, None, [adapted_gauge(POLY2, k) for k in range(2, 14)], Fraction(1, 1 << 10),
          3, 12, 0))
# unconverged: 3 levels, each failed
@example((restrict_integrand(POLY2, Region.make((D0, HALF))), "adapted",
          [adapted_gauge(restrict_integrand(POLY2, Region.make((D0, HALF))), k)
           for k in range(2, 5)], Fraction(1, 1 << 10), 3, 3, 5))
# unconverged at tol 0: the floor test reads "oscillation-floor" over the
# stopped spreads, "max-level" over the full ones
@example((restrict_integrand(POLY1, QUARTER), "adapted",
          [adapted_gauge(restrict_integrand(POLY1, QUARTER), k) for k in range(2, 6)],
          Fraction(0), 3, 4, 128959))
@settings(max_examples=300, deadline=None)
@given(runs())
def test_every_report_is_the_eager_level_loop(run):
    phi, schedule, levels, tol, trials, max_levels, seed = run
    got = outcome(lambda: report(mcshane_integrate(
        phi, schedule=schedule, tol=tol, trials_per_level=trials, max_levels=max_levels,
        seed=seed)))
    assert got == outcome(lambda: model(phi, levels, tol, trials, seed))


def test_pettis_draws_only_at_the_converging_level(monkeypatch, tmp_path):
    """poly2 on a region of measure 1/2 fails 7 levels on its mid and left
    sums alone and converges at level 7: 7 * 2 + 3 = 17 partitions, not 24,
    and every sampled draw is level 7's.  Reading the trace of the same run
    builds nothing.  The README's `integrate --fn poly:0,1;1/2 --schedule
    adapted` also builds 17, one of them sampled."""
    region = Region.make((D0, HALF))
    built, drawn, strategies = Counter(), Counter(), Counter()
    # with seed 0, trial i of level k draws with seed 97 k + i

    def counted_partition(g, **kw):
        built[kw["seed"] // 97] += 1
        strategies[kw["tag_strategy"]] += 1
        return cousin_partition(g, **kw)

    def counted_draw(seed, *args):
        drawn[seed // 97, seed % 97] += 1
        return sampled_tag(seed, *args)

    sampled_tag = gauges._sampled_tag
    monkeypatch.setattr(integrate, "cousin_partition", counted_partition)
    monkeypatch.setattr(gauges, "_sampled_tag", counted_draw)
    fs = default_functionals(POLY2.space, 4)
    tol = Fraction(1, 1 << 10)
    out = pettis_check(POLY2, fs, [region], tol=tol, seed=0, inner_tol=tol)
    assert out["pass"]
    assert [built[k] for k in range(8)] == [2] * 7 + [3] and sum(built.values()) == 17
    assert drawn and set(drawn) == {(7, 2)}

    built.clear()
    est = mcshane_integrate(restrict_integrand(POLY2, region), tol=tol, seed=0)
    assert est.converged and sum(built.values()) == 17
    assert len(est.trace) == 8 and sum(built.values()) == 17

    strategies.clear()
    code = cli.main(["integrate", "--fn", "poly:0,1;1/2", "--schedule", "adapted", "--seed", "0",
                     "--deterministic", "--out", str(tmp_path / "out.json")])
    assert code == 0
    assert strategies == {"mid": 8, "left": 8, "sampled": 1}


def test_a_skipped_trial_that_would_raise_never_runs(monkeypatch, tmp_path, capsys):
    """The README's `integrate --fn poly:0,1;1/2 --schedule adapted` fails
    level 0 on its mid and left sums, so its level-0 sampled trial never
    runs: made to raise MaxDepthExceeded, it leaves the estimate and its
    trace as they were, `integrate` exits 0 with the clean run's bytes, and
    `pettis_check` passes."""
    phi = poly_integrand([[Fraction(0), Fraction(1)], [Fraction(1, 2)]])
    argv = ["integrate", "--fn", "poly:0,1;1/2", "--schedule", "adapted", "--seed", "0",
            "--deterministic", "--out"]
    clean = mcshane_integrate(phi, schedule="adapted", seed=0)
    assert clean.converged and len(clean.trace) > 1
    assert cli.main(argv + [str(tmp_path / "clean.json")]) == 0
    err = MaxDepthExceeded("no fitting tag for [0, 1/2^60] within depth 60")

    def failing(g, **kw):
        # level 0's sampled trial, trial 2, of a run under any seed
        if kw["tag_strategy"] == "sampled" and kw["seed"] % 100003 == 2:
            raise err
        return cousin_partition(g, **kw)

    monkeypatch.setattr(integrate, "cousin_partition", failing)
    assert mcshane_integrate(phi, schedule="adapted", seed=0) == clean
    capsys.readouterr()
    out = tmp_path / "out.json"
    assert cli.main(argv + [str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_bytes() == (tmp_path / "clean.json").read_bytes()

    fs = default_functionals(POLY2.space, 4)
    tol = Fraction(1, 1 << 10)
    assert pettis_check(POLY2, fs, [Region.make((D0, HALF))], tol=tol, inner_tol=tol)["pass"]
