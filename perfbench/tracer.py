"""Span tracing of one serial, in-process wigflow run, set from outside.

`instrument` replaces, in every module of the package, the public
functions and public methods with wrappers that record a span per call:
the name, the layer (module) it belongs to, its start, duration and
self time (duration minus that of its child spans), and the span that
called it.  Names other modules imported (`from .martingale import
evolve`) and module-level dicts of functions (`cli._RUNNERS`) are
rebound too.  The `scipy.linalg` and `scipy.stats` modules the package
holds are replaced by proxies whose functions record spans attributed to
the layer of the enclosing span, and the generators `streams` returns are
wrapped so that draws are timed and counted as the `streams` layer.

Spans stay in memory; `write_spans` writes them out after the run.
Nothing in the package itself changes.
"""

import functools
import importlib
import inspect
import json
import os
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "density", "streams", "martingale", "resolvent", "domains",
          "flows", "harness")
SCIPY_MODULES = ("scipy.linalg", "scipy.stats")

# computed floating-point operations per call of the dense kernels, from N;
# a complex multiply-add counts 8 real operations
KERNEL_FLOP = {
    # complex LDL^T factor (N^3/3) plus N right-hand sides (N^3)
    "resolvent.resolvent": lambda n: 8.0 * (4.0 / 3.0) * n ** 3,
    # real symmetric eigendecomposition with vectors, standard 9 N^3
    "resolvent.EigenResolvent.__init__": lambda n: 9.0 * n ** 3,
    # complex N x N by N x N product
    "resolvent.EigenResolvent.full": lambda n: 8.0 * n ** 3,
}


class Tracer:
    """Records nested call spans in memory."""

    def __init__(self):
        self.spans = []    # [id, parent id, name, layer, start, dur, self, info]
        self._stack = []   # open spans: [id, layer, time covered by children]

    def call(self, name, layer, fn, args=(), kwargs=None, post=None):
        """Run fn(*args, **kwargs) inside a span; layer None inherits."""
        stack = self._stack
        parent = stack[-1] if stack else None
        if layer is None:
            layer = parent[1] if parent else "none"
        frame = [len(self.spans) + len(stack), layer, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            dur = perf_counter() - start
            stack.pop()
            if parent is not None:
                parent[2] += dur
            span = [frame[0], parent[0] if parent else None, name, layer,
                    start, dur, dur - frame[2], None]
            self.spans.append(span)
        if post is not None:
            span[7] = post(args, result)
        return result

    def wrap(self, fn, name, layer, post=None):
        call = self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(name, layer, fn, args, kwargs, post)
        return traced


class _ForeignModule:
    """A scipy module whose public functions record spans."""

    def __init__(self, tracer, module):
        self._tracer = tracer
        self._module = module
        self._wrapped = {}

    def __getattr__(self, name):
        attr = getattr(self._module, name)
        if name.startswith("_") or not inspect.isroutine(attr):
            return attr
        if name not in self._wrapped:
            self._wrapped[name] = self._tracer.wrap(
                attr, f"{self._module.__name__}.{name}", None)
        return self._wrapped[name]


def _draws(_args, result):
    return {"draws": getattr(result, "size", 1)}


class _Generator:
    """A numpy Generator whose methods record `streams` spans."""

    def __init__(self, tracer, gen):
        self._tracer = tracer
        self._gen = gen
        self._wrapped = {}

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if name.startswith("_") or not callable(attr):
            return attr
        if name not in self._wrapped:
            self._wrapped[name] = self._tracer.wrap(
                attr, f"streams.Generator.{name}", "streams", post=_draws)
        return self._wrapped[name]


def _proxy_generators(tracer, fn):
    @functools.wraps(fn)
    def proxied(*args, **kwargs):
        gen = fn(*args, **kwargs)
        return gen if isinstance(gen, _Generator) else _Generator(tracer, gen)
    return proxied


# ------------------------------------------------ per-span information
# post hooks: (call arguments, return value) -> info dict kept on the span


def _evolve_info(_args, path):
    return {"n": path.config.n, "steps": len(path.config.schedule) - 1,
            "clamps": path.total_clamps,
            "checkpoint_bytes": sum(s.H.nbytes + s.sigma.nbytes
                                    for s in path.states)}


def _size_of_self(args, _result):
    return {"n": args[0].n}


def _resolvent_info(_args, sample):
    return {"n": sample.G.shape[0]}


def _trace_tables_info(args, _result):
    return {"checkpoints": len(args[1].states)}


def _stopped_info(_args, curve):
    return {"stopped": int(curve.stopped)}


def _failures_info(_args, report):
    return {"failures": len(report.failures)}


def _bytes_written(_args, paths):
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


POST = {
    "martingale.evolve": _evolve_info,
    "resolvent.resolvent": _resolvent_info,
    "resolvent.EigenResolvent.__init__": _size_of_self,
    "resolvent.EigenResolvent.full": _size_of_self,
    "flows.PathTraceEvaluator.__init__": _trace_tables_info,
    "flows.flow_gamma": _stopped_info,
    "harness.run_lsc": _failures_info,
    "harness.run_marginal": _failures_info,
    "harness.run_entrywise_sweep": _failures_info,
    "harness.run_characteristic": _failures_info,
    "harness.write_report_csv": _bytes_written,
}
RUNNERS = {"lsc": "harness.run_lsc", "marginal": "harness.run_marginal",
           "entrywise": "harness.run_entrywise_sweep",
           "characteristics": "harness.run_characteristic"}


def _own_methods(cls, module):
    """(attribute, function, kind) for the methods a class defines in source."""
    for attr, val in vars(cls).items():
        kind = type(val) if isinstance(val, (classmethod, staticmethod)) else None
        fn = val.__func__ if kind else val
        if not inspect.isfunction(fn):
            continue
        # dataclass-generated __init__ has no source file of the module
        in_source = fn.__code__.co_filename == module.__file__
        if in_source and (not attr.startswith("_")
                          or attr in ("__init__", "__call__")):
            yield attr, fn, kind


def instrument(tracer):
    """Wrap the package's public functions and methods, in place."""
    modules = {layer: importlib.import_module(f"wigflow.{layer}")
               for layer in LAYERS}
    wrapped = {}    # id(original) -> wrapper
    for layer, module in modules.items():
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                span = f"{layer}.{name}"
                target = _proxy_generators(tracer, obj) if layer == "streams" else obj
                wrapped[id(obj)] = tracer.wrap(target, span, layer, POST.get(span))
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for attr, fn, kind in _own_methods(obj, module):
                    span = f"{layer}.{name}.{attr}"
                    w = tracer.wrap(fn, span, layer, POST.get(span))
                    setattr(obj, attr, kind(w) if kind else w)
    foreign = {}
    for module in modules.values():
        for name, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                setattr(module, name, wrapped[id(obj)])
            elif isinstance(obj, dict):
                for key, val in obj.items():
                    if id(val) in wrapped:
                        obj[key] = wrapped[id(val)]
            elif getattr(obj, "__name__", None) in SCIPY_MODULES and inspect.ismodule(obj):
                if obj.__name__ not in foreign:
                    foreign[obj.__name__] = _ForeignModule(tracer, obj)
                setattr(module, name, foreign[obj.__name__])


def write_spans(spans, path):
    keys = ("id", "parent", "name", "layer", "start", "dur", "self", "info")
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# ------------------------------------------------------- layer metrics


def layer_metrics(spans, import_span, wall_s):
    """Per-layer metrics, as {name: (value, unit)}, from a run's spans.

    `import_span` is the name of the span around `import wigflow.cli`;
    `wall_s` the traced wall time the layer self times must add up to.
    """
    calls = defaultdict(int)
    total = defaultdict(float)
    infos = defaultdict(list)
    self_by_layer = defaultdict(float)
    layer_of = {s[0]: s[3] for s in spans}
    domains_outer = 0.0
    for sid, parent, name, layer, _start, dur, self_s, info in spans:
        key = (name, layer)
        calls[key] += 1
        total[key] += dur
        if info is not None:
            infos[name].append(info)
        self_by_layer[layer] += self_s
        if layer == "domains" and layer_of.get(parent) != "domains":
            domains_outer += dur

    def n_calls(name, layer=None):
        return sum(v for (nm, ly), v in calls.items()
                   if nm == name and layer in (None, ly))

    def secs(*names, layer=None):
        return sum(v for (nm, ly), v in total.items()
                   if nm in names and layer in (None, ly))

    def info_sum(name, field):
        return sum(i[field] for i in infos[name])

    def gflop(name):
        return sum(KERNEL_FLOP[name](i["n"]) for i in infos[name]) / 1e9

    evolve = infos["martingale.evolve"]
    n_max = max((i["n"] for i in evolve), default=0)
    largest = [s for s in spans
               if s[2] == "martingale.evolve" and s[7]["n"] == n_max]
    steps = sum(s[7]["steps"] for s in largest)
    import_s = secs(import_span)
    layer_self = sum(self_by_layer[layer] for layer in LAYERS)
    normal = ("streams.Generator.standard_normal", "streams.Generator.normal")
    eig_flows = n_calls("scipy.linalg.eigvalsh", "flows")

    m = {
        "cli.import_s": (import_s, "s"),
        "cli.self_s": (self_by_layer["cli"] - import_s, "s"),
        "density.calibrate_s": (secs("density.calibrate"), "s"),
        "density.a_clamped.calls": (n_calls("density.CalibratedDensity.a_clamped"), "count"),
        "density.a_clamped.s": (secs("density.CalibratedDensity.a_clamped"), "s"),
        "density.sample_iid.s": (secs("density.sample_iid"), "s"),
        "density.clamps": (info_sum("martingale.evolve", "clamps"), "count"),
        "streams.normal.s": (secs(*normal), "s"),
        "streams.normal.draws": (sum(info_sum(n, "draws") for n in normal), "count"),
        "martingale.evolve.calls": (n_calls("martingale.evolve"), "count"),
        "martingale.evolve.s": (secs("martingale.evolve"), "s"),
        "martingale.evolve.self_s": (sum(s[6] for s in spans if s[2] == "martingale.evolve"), "s"),
        "martingale.step_ms": (1e3 * sum(s[5] for s in largest) / steps if steps else 0.0, "ms"),
        "martingale.checkpoint_mb": (max((i["checkpoint_bytes"] for i in evolve), default=0) / 1e6, "MB"),
        "resolvent.solve.calls": (n_calls("resolvent.resolvent"), "count"),
        "resolvent.solve.s": (secs("resolvent.resolvent"), "s"),
        "resolvent.solve.gflop_computed": (gflop("resolvent.resolvent"), "Gflop"),
        "resolvent.eigh.calls": (n_calls("resolvent.EigenResolvent.__init__"), "count"),
        "resolvent.eigh.s": (secs("resolvent.EigenResolvent.__init__"), "s"),
        "resolvent.eigh.gflop_computed": (gflop("resolvent.EigenResolvent.__init__"), "Gflop"),
        "resolvent.full.calls": (n_calls("resolvent.EigenResolvent.full"), "count"),
        "resolvent.full.s": (secs("resolvent.EigenResolvent.full"), "s"),
        "resolvent.full.gflop_computed": (gflop("resolvent.EigenResolvent.full"), "Gflop"),
        "resolvent.self_energy.s": (secs("resolvent.self_energy_from_diag",
                                         "resolvent.self_energy_error"), "s"),
        "flows.trace_tables.s": (secs("flows.PathTraceEvaluator.__init__"), "s"),
        "flows.eigvalsh.calls": (eig_flows, "count"),
        "flows.eigvalsh.s": (secs("scipy.linalg.eigvalsh", layer="flows"), "s"),
        # the tables hold two decompositions per checkpoint; the rest are
        # on-demand inserts at stopping-time bisection points
        "flows.eigvalsh.inserts": (eig_flows - 2 * info_sum("flows.PathTraceEvaluator.__init__",
                                                            "checkpoints"), "count"),
        "flows.field.calls": (n_calls("flows.PathTraceEvaluator.__call__"), "count"),
        "flows.field.s": (secs("flows.PathTraceEvaluator.__call__"), "s"),
        "flows.map_to_initial.s": (secs("flows.map_to_initial"), "s"),
        "flows.flow_gamma.s": (secs("flows.flow_gamma"), "s"),
        "flows.contraction.s": (secs("flows.contraction_check"), "s"),
        "flows.stopped": (info_sum("flows.flow_gamma", "stopped"), "count"),
        "domains.s": (domains_outer, "s"),
        "harness.eigvalsh.s": (secs("scipy.linalg.eigvalsh", layer="harness"), "s"),
        "harness.aggregate.s": (secs("harness.aggregate_lsc", "harness.aggregate_entrywise",
                                     "harness.aggregate_characteristic"), "s"),
        "harness.ks.s": (secs("scipy.stats.ks_2samp", layer="harness"), "s"),
        "harness.write.s": (secs("harness.write_report_csv"), "s"),
        "harness.write.bytes": (info_sum("harness.write_report_csv", "bytes"), "bytes"),
        "harness.failures": (sum(info_sum(r, "failures") for r in RUNNERS.values()), "count"),
    }
    for exp, runner in RUNNERS.items():
        m[f"harness.run.{exp}.s"] = (secs(runner), "s")
    for layer in LAYERS[1:]:     # cli.self_s leaves the import out
        m[f"{layer}.self_s"] = (self_by_layer[layer], "s")
    m["trace.wall_s"] = (wall_s, "s")
    m["trace.remainder_s"] = (wall_s - layer_self, "s")
    m["trace.spans"] = (len(spans), "count")
    return m
