"""Per-layer tracing from outside the program.

`install()` rebinds gaugelab's layer functions, in every `gaugelab.*` module
namespace (and class) that binds them, to wrappers that record a span (name,
start, end, parent) in memory.  Nothing under src/ is edited.  A layer's self
time is its spans' time minus the time of their direct child spans.

Predictions (which end-to-end metric a layer metric should move, on which
workload):
  exact.region_combine          checks_per_s on witness; nothing on ramp, pairing
  gauges.cousin_partition,      check_p50_s and checks_per_s on pairing, a little
  gauges.is_subordinate           on ramp, almost nothing on witness
  spaces.add, .mul, .distance   checks_per_s on ramp most, pairing somewhat
  integrands.*                  pairing
  integrate.*                   ramp and pairing
  gallery.inductive_tag_sequences, .oscillation_witness_3e
                                checks_per_s on witness
  gallery.build_fat_set, .build_A_family
                                setup_s on witness
  stability.*, kernels.*, report.*, cli.*
                                readme only
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("exact", "gauges", "spaces", "integrands", "integrate", "gallery",
          "stability", "kernels", "report", "cli")
KERNELS = ("piece_counts", "map_unit_to_region", "step_family_hits", "pairsum_family_hits")
ROOT_SPAN = "harness.check"

# Every per-layer metric, in output order, with its unit.
PER_LAYER = (
    [("exact.region_combine.calls", "count"), ("exact.region_combine.self_s", "s"),
     ("exact.region_combine.parts_out", "count")]
    + [(f"gauges.cousin_partition.{m}", u) for m, u in (
        ("calls", "count"), ("self_s", "s"), ("items", "count"), ("nodes", "count"),
        ("max_depth", "count"))]
    + [("gauges.is_subordinate.self_s", "s"),
       ("spaces.add.calls", "count"), ("spaces.add.self_s", "s"),
       ("spaces.add.step_runs", "count"),
       ("spaces.mul.self_s", "s"), ("spaces.distance.self_s", "s"),
       ("integrands.eval.calls", "count")]
    + [(f"integrands.{f}.self_s", "s") for f in (
        "restrict_integrand", "scalar_integral", "adapted_gauge", "exact_vector_integral")]
    + [("integrate.riemann_sum.calls", "count"), ("integrate.riemann_sum.self_s", "s"),
       ("integrate.riemann_sum.terms", "count"),
       ("integrate.mcshane_integrate.self_s", "s"),
       ("integrate.mcshane_integrate.levels", "count"),
       ("gallery.inductive_tag_sequences.calls", "count"),
       ("gallery.inductive_tag_sequences.self_s", "s"),
       ("gallery.oscillation_witness_3e.self_s", "s"),
       ("gallery.oscillation_witness_3e.exhausted", "count"),
       ("gallery.build_fat_set.self_s", "s"), ("gallery.build_A_family.self_s", "s"),
       ("stability.z_measure_mc.calls", "count"), ("stability.z_measure_mc.self_s", "s"),
       ("stability.z_measure_mc.samples", "count")]
    + [(f"kernels.{k}.{m}", u) for k in KERNELS for m, u in (
        ("calls", "count"), ("self_s", "s"), ("elements", "count"),
        ("bytes_computed", "B"))]
    + [("report.render.self_s", "s"), ("report.bytes", "B"),
       ("report.outputs_changed", "count"),
       ("cli.main.calls", "count"), ("cli.main.self_s", "s")]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
    + [("harness.unattributed_s", "s"), ("trace.overhead_s", "s")]
)


class Tracer:
    """Spans in flat arrays (name id, parent index, start, end) plus running
    self-time, call and counter totals."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, layer, child seconds]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @property
    def current(self) -> str | None:
        return self.names[self.span_name[self._stack[-1][0]]] if self._stack else None

    def enter(self, nid: int, layer: str):
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append([len(self.span_start), layer, 0.0])
        self.span_start.append(time.perf_counter())

    def exit(self, failed: bool):
        end = time.perf_counter()
        idx, layer, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        name = self.names[self.span_name[idx]]
        self.self_s[name] += dur - child
        self.counts[name + ".calls"] += 1
        if self._stack:
            self._stack[-1][2] += dur
        # count an exception once, where it leaves the layer
        if failed and (not self._stack or self._stack[-1][1] != layer):
            self.counts[layer + ".errors"] += 1

    def span(self, name: str, fn, after=None):
        """fn wrapped in a span; after(tracer, args, kwargs, result) adds counts."""
        nid, layer = self.name_id(name), name.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(nid, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.exit(True)
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            self.exit(False)
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return traced

    def metrics(self, outputs_changed: int, overhead_s: float) -> dict:
        c, s = self.counts, self.self_s
        out = {}
        for name, unit in PER_LAYER:
            if name == "report.outputs_changed":
                value = outputs_changed
            elif name == "trace.overhead_s":
                value = overhead_s
            elif name == "harness.unattributed_s":
                value = s[ROOT_SPAN]
            elif name == "gallery.oscillation_witness_3e.exhausted":
                value = c["gallery.oscillation_witness_3e.raised.SearchExhausted"]
            elif name == "gauges.cousin_partition.nodes":
                # a bisection tree with n leaves has 2n - 1 nodes
                value = 2 * c["gauges.cousin_partition.items"] - c["gauges.cousin_partition.calls"]
            elif name.endswith(".self_s"):
                value = s[name[: -len(".self_s")]]
            else:
                value = c[name]
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        import numpy as np

        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.span_name, np.int32),
                 parent=np.frombuffer(self.span_parent, np.int32),
                 start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end))


# -- counters read from a wrapped call's arguments and result -----------------


def _count(key, measure):
    def after(tr, args, kwargs, result):
        tr.counts[key] += measure(args, kwargs, result)
    return after


def _cousin_after(tr, args, kwargs, result):
    items = result.items
    tr.counts["gauges.cousin_partition.items"] += len(items)
    # the items cover the base interval exactly; depth = log2(base / item length)
    base_exp = (items[-1].interval.hi - items[0].interval.lo).exp
    depth = max(it.interval.length.exp for it in items) - base_exp
    if depth > tr.counts["gauges.cousin_partition.max_depth"]:
        tr.counts["gauges.cousin_partition.max_depth"] = depth


def _kernel_after(kernel):
    def after(tr, args, kwargs, result):
        arrays = [a for a in args if hasattr(a, "nbytes")]
        tr.counts[f"kernels.{kernel}.elements"] += len(args[0])
        tr.counts[f"kernels.{kernel}.bytes_computed"] += (
            sum(a.nbytes for a in arrays) + getattr(result, "nbytes", 0))
    return after


def _rebind(original, replacement):
    """Point every gaugelab module-level name bound to `original` at `replacement`."""
    for modname, mod in list(sys.modules.items()):
        if modname == "gaugelab" or modname.startswith("gaugelab."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def _rebind_method(cls, original, replacement):
    for attr, value in list(vars(cls).items()):
        if value is original:
            setattr(cls, attr, replacement)


def install() -> Tracer:
    """Wrap the layer functions; returns the tracer that records them."""
    import gaugelab.cli  # load every module before rebinding
    from gaugelab import (_kernels, exact, gallery, gauges, integrands, integrate,
                          report, spaces, stability)

    tr = Tracer()
    functions = [
        (exact, "region_combine", "exact.region_combine",
         _count("exact.region_combine.parts_out", lambda a, k, r: len(r.parts))),
        (gauges, "cousin_partition", "gauges.cousin_partition", _cousin_after),
        (gauges, "is_subordinate", "gauges.is_subordinate", None),
        (spaces, "distance", "spaces.distance", None),
        (integrands, "restrict_integrand", "integrands.restrict_integrand", None),
        (integrands, "scalar_integral", "integrands.scalar_integral", None),
        (integrands, "adapted_gauge", "integrands.adapted_gauge", None),
        (integrands, "exact_vector_integral", "integrands.exact_vector_integral", None),
        (integrate, "riemann_sum", "integrate.riemann_sum",
         _count("integrate.riemann_sum.terms", lambda a, k, r: len(a[1].items))),
        (integrate, "mcshane_integrate", "integrate.mcshane_integrate",
         _count("integrate.mcshane_integrate.levels", lambda a, k, r: len(r.trace))),
        (gallery, "inductive_tag_sequences", "gallery.inductive_tag_sequences", None),
        (gallery, "oscillation_witness_3e", "gallery.oscillation_witness_3e", None),
        (gallery, "build_fat_set", "gallery.build_fat_set", None),
        (gallery, "build_A_family", "gallery.build_A_family", None),
        (stability, "z_measure_mc", "stability.z_measure_mc",
         _count("stability.z_measure_mc.samples", lambda a, k, r: r["samples"])),
        (report, "build_report", "report.render", None),
        (report, "write_report", "report.render",
         _count("report.bytes", lambda a, k, r: len(r.encode()))),
        (report, "write_csv", "report.render",
         _count("report.bytes", lambda a, k, r: len(r.encode()))),
        (gaugelab.cli, "main", "cli.main", None),
    ] + [(_kernels, k, f"kernels.{k}", _kernel_after(k)) for k in KERNELS]
    for module, attr, name, after in functions:
        original = getattr(module, attr)
        _rebind(original, tr.span(name, original, after))

    vv = spaces.VectorValue
    for attr, name in (("__add__", "spaces.add"), ("__mul__", "spaces.mul")):
        original = vars(vv)[attr]
        _rebind_method(vv, original, tr.span(name, original))

    # counters without spans: calls too cheap and too many to time one by one
    fn_eval = vars(integrands.IntegrandFn)["eval"]

    @functools.wraps(fn_eval)
    def counted_eval(self, t):
        tr.counts["integrands.eval.calls"] += 1
        return fn_eval(self, t)
    _rebind_method(integrands.IntegrandFn, fn_eval, counted_eval)

    merge = spaces._merge_steps

    @functools.wraps(merge)
    def counted_merge(*args):
        runs = merge(*args)
        if tr.current == "spaces.add":
            tr.counts["spaces.add.step_runs"] += len(runs)
        return runs
    _rebind(merge, counted_merge)
    return tr
