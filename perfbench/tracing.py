"""Traced in-process replay: per-layer self times and counts.

The replay runs a workload's round in this process through
``setmetric.cli.main``. For the traced rounds, functions of the package are
replaced at run time, from outside the package, by wrappers that record a
span (name, parent span, start, end) or bump a counter:

* the public functions in ``FUNCTION_SPANS``, which the modules expose or
  callers import, in every namespace that holds them, so calls inside a
  module (the recursion of ``nested_average_metric`` too) are seen; one a
  later change removes is skipped, and its metrics read 0;
* the set-algebra methods of ``FiniteSet`` and ``IntervalUnion``;
* ``distance`` of each ground-metric class (a counter, not a span: one
  call is too cheap to time) and ``IntervalUnion.contains`` (likewise);
* the distance function and the sampler that ``check_axioms`` receives.

Spans are kept in memory and written to ``trace.npz`` when the run ends. A
layer's self time is the time its spans cover minus the time their child
spans cover; the layer is the part of the span name before the first dot.
Untraced rounds alternate with traced ones, and the tracing overhead is the
median traced round minus the median untraced round.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import random
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

import numpy as np

import gen

IMPORT_REPEATS = 5  # fresh interpreters timing `import setmetric.cli`
BASELINE_REPEATS = 3  # calls per single-layer baseline

MODULES = ("cli", "workspace", "core", "power_means", "hierarchy", "continuous", "axioms", "verify")

# span name -> (module, attribute) of the functions it covers
FUNCTION_SPANS = {
    "cli.main": [("cli", "main")],
    "cli.cmd": [("cli", f"cmd_{c}") for c in ("dist", "matrix", "axioms", "verify", "estimate")],
    "workspace.load": [("workspace", "load_workspace")],
    # MatrixMetric is validated while a workspace loads; only the workspace's
    # reference to the class is replaced, so isinstance checks elsewhere hold
    "workspace.matrix_metric": [("workspace", "MatrixMetric")],
    "core.average_metric": [("core", "average_metric")],
    "core.group_average": [("core", "group_average")],
    "core.hausdorff": [("core", "hausdorff")],
    "core.pair_sum": [("core", "pair_sum")],
    "core.semi_metric": [("core", "semi_metric")],
    "core.other": [("core", name) for name in (
        "jaccard", "symdiff_cardinality", "triangle_surplus", "_triangle_surplus_raw",
        "min_cross_distance", "point_set_distance")],
    "power_means.mean": [("power_means", "power_mean"), ("power_means", "exp_mean")],
    "power_means.pointwise": [("power_means", "pointwise_mean_distance")],
    "power_means.sidewise": [("power_means", "sidewise_mean_distance")],
    "power_means.closed_form": [("power_means", name) for name in (
        "closed_form_pointwise_discrete", "closed_form_sidewise_discrete",
        "log_cardinality_distance")],
    "hierarchy.nested": [("hierarchy", "nested_average_metric")],
    "hierarchy.duality": [("hierarchy", "duality_ratio")],
    "hierarchy.collections": [("hierarchy", "containing_collection")],
    "continuous.estimate": [("continuous", "estimate_average_metric")],
    "continuous.interval_metric": [("continuous", name) for name in (
        "interval_metric_closed_form", "interval_average_metric", "interval_group_average")],
    "continuous.steinhaus": [("continuous", "steinhaus")],
    "continuous.fuzzy": [("continuous", "fuzzy_distance")],
    "axioms.sample": [("axioms", "random_point_registry")],
}
SET_ALGEBRA = ("__init__", "union", "intersection", "difference", "symmetric_difference")
METHOD_SPANS = {
    "core.set_algebra": [("core", "FiniteSet", m) for m in SET_ALGEBRA],
    "continuous.interval_algebra": [("continuous", "IntervalUnion", m) for m in SET_ALGEBRA],
}
METHOD_COUNTERS = {
    "core.ground_evals": [("core", cls, "distance") for cls in (
        "DiscreteMetric", "EuclideanMetric", "LpMetric", "MatrixMetric")],
    "continuous.membership_tests": [("continuous", "IntervalUnion", "contains")],
}


class Tracer:
    """Spans in four flat arrays (name, parent index, start, end) and counters
    in one-element lists, so a wrapper costs a few appends."""

    def __init__(self):
        self.names: list[str] = []
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, list[int]] = {}

    def reset(self) -> None:
        for arr in (self.kind, self.parent, self.start, self.end):
            del arr[:]
        for cell in self.counters.values():
            cell[0] = 0

    def span(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        k = self.names.index(name)
        kind, parent, start, end, stack = self.kind, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(kind)
            kind.append(k)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()

        return traced

    def counter(self, name: str, fn):
        cell = self.counters.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "kind": np.frombuffer(self.kind, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def set_item(self, mapping: dict, key, value) -> None:
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)


def instrument(tracer: Tracer, mods: dict) -> Patches:
    patches = Patches()
    namespaces = list(mods.values()) + [sys.modules["setmetric"]]
    for name, targets in FUNCTION_SPANS.items():
        for module, attr in targets:
            original = getattr(mods.get(module), attr, None)
            if original is None:  # gone in a refactor: its metrics read 0
                continue
            wrapper = tracer.span(name, original)
            if isinstance(original, type):
                patches.set(mods[module], attr, wrapper)
                continue
            for ns in namespaces:
                if ns.__dict__.get(attr) is original:
                    patches.set(ns, attr, wrapper)
    for make, table in ((tracer.span, METHOD_SPANS), (tracer.counter, METHOD_COUNTERS)):
        for name, targets in table.items():
            for module, cls_name, method in targets:
                cls = getattr(mods.get(module), cls_name, None)
                if method in getattr(cls, "__dict__", {}):
                    patches.set(cls, method, make(name, cls.__dict__[method]))

    original_check = getattr(mods.get("axioms"), "check_axioms", None)
    if original_check is not None:
        check = tracer.span("axioms.check", original_check)

        def check_axioms(dist_fn, sampler, *args, **kwargs):
            return check(tracer.counter("axioms.dist_calls", dist_fn),
                         tracer.span("axioms.sample", sampler), *args, **kwargs)

        for ns in namespaces:
            if ns.__dict__.get("check_axioms") is original_check:
                patches.set(ns, "check_axioms", check_axioms)
    suites = getattr(mods.get("verify"), "SUITES", {})
    for suite, fn in list(suites.items()):
        patches.set_item(suites, suite, tracer.span(f"verify.suite.{suite}", fn))
    return patches


def aggregate(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds."""
    kind, parent = spans["kind"], spans["parent"]
    dur = spans["end"] - spans["start"]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_time = dur - child
    n = len(names)
    calls = np.bincount(kind, minlength=n)
    incl = np.bincount(kind, weights=dur, minlength=n)
    own = np.bincount(kind, weights=self_time, minlength=n)
    return {
        name: {"calls": int(calls[k]), "incl_s": float(incl[k]), "self_s": float(own[k])}
        for k, name in enumerate(names)
    }


def replay(main, ops, record) -> float:
    """Run one round through ``main`` in this process; return its wall time.
    Outputs are checked after the clock stops."""
    results = []
    start = time.perf_counter()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(op.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a traceback exits 1 from the command line too
                traceback.print_exc()
                code = 1
        results.append((op, code, out.getvalue(), err.getvalue()))
    wall = time.perf_counter() - start
    for result in results:
        record(*result)
    return wall


def import_times(python: str, env: dict) -> tuple[float, float]:
    """Median cumulative import time of setmetric.cli and of numpy, from
    ``-X importtime`` in fresh interpreters."""
    cli_s, numpy_s = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import setmetric.cli"],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        cli_s.append(cumulative["setmetric.cli"])
        numpy_s.append(cumulative.get("numpy", 0.0))  # 0 once numpy is imported lazily
    return statistics.median(cli_s), statistics.median(numpy_s)


def layer_baselines(setmetric, seed: int) -> dict[str, float]:
    """Single calls, untraced: the average metric, Hausdorff and the pointwise
    mean distance on two 1000-point Euclidean sets that share half their
    members, and MatrixMetric validation of a 150-id table."""
    rng = random.Random(f"layer-baselines/{seed}")
    registry = setmetric.ElementRegistry({k: gen.point(rng) for k in range(1500)})
    a, b = registry.set_of(range(1000)), registry.set_of(range(500, 1500))
    metric = setmetric.EuclideanMetric()
    ids, values = gen.l1_table(rng, 150)
    cases = {
        "layer.average_metric_n1000_s": lambda: setmetric.average_metric(metric, a, b),
        "layer.hausdorff_n1000_s": lambda: setmetric.hausdorff(metric, a, b),
        "layer.pointwise_n1000_s": lambda: setmetric.pointwise_mean_distance(metric, a, b),
        "layer.matrix_metric_150_s": lambda: setmetric.MatrixMetric(ids, values),
    }
    out = {}
    for name, call in cases.items():
        times = []
        for _ in range(BASELINE_REPEATS):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        out[name] = statistics.median(times)
    return out


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or ".suite_s." in name:
        return "s"
    return "count"


def per_layer(agg: dict, counters: dict, traced: float, traced_median: float,
              untraced_median: float) -> dict[str, float]:
    """The per-layer metrics of one traced round. ``traced`` is that round's
    wall time; the medians are over all rounds of the run."""
    def self_of(*names):
        return sum(agg.get(n, {}).get("self_s", 0.0) for n in names)

    def layer_self(layer):
        return self_of(*(n for n in agg if n.split(".")[0] == layer))

    m = {"cli.self_s": layer_self("cli"),
         "workspace.load_s": agg.get("workspace.load", {}).get("incl_s", 0.0),
         "workspace.matrix_metric_s": agg.get("workspace.matrix_metric", {}).get("incl_s", 0.0),
         "core.ground_evals": counters.get("core.ground_evals", 0),
         "core.ground_evals_per_s": counters.get("core.ground_evals", 0) / untraced_median}
    for fn in ("average_metric", "group_average", "hausdorff", "pair_sum", "set_algebra"):
        m[f"core.{fn}_s"] = self_of(f"core.{fn}")
        m[f"core.{fn}_calls"] = agg.get(f"core.{fn}", {}).get("calls", 0)
    for fn in ("pointwise", "sidewise", "mean", "closed_form"):
        m[f"power_means.{fn}_s"] = self_of(f"power_means.{fn}")
    m["power_means.mean_calls"] = agg.get("power_means.mean", {}).get("calls", 0)
    m["hierarchy.nested_s"] = self_of("hierarchy.nested")
    m["hierarchy.nested_calls"] = agg.get("hierarchy.nested", {}).get("calls", 0)
    m["hierarchy.duality_s"] = self_of("hierarchy.duality")
    m["continuous.estimate_s"] = self_of("continuous.estimate")
    m["continuous.membership_tests"] = counters.get("continuous.membership_tests", 0)
    for fn in ("interval_metric", "interval_algebra", "steinhaus", "fuzzy"):
        m[f"continuous.{fn}_s"] = self_of(f"continuous.{fn}")
    m["axioms.check_s"] = self_of("axioms.check")
    m["axioms.sample_s"] = self_of("axioms.sample")
    m["axioms.dist_calls"] = counters.get("axioms.dist_calls", 0)
    for suite in ("identities", "appendixA", "appendixB", "duality", "interval"):
        m[f"verify.suite_s.{suite}"] = agg.get(f"verify.suite.{suite}", {}).get("incl_s", 0.0)
    for layer in MODULES:
        m[f"{layer}.self_s"] = layer_self(layer)
    spanned = sum(layer_self(layer) for layer in MODULES)
    m.update({
        "trace.traced_wall_s": traced,
        "trace.untraced_wall_s": untraced_median,
        "trace.overhead_s": traced_median - untraced_median,
        "trace.remainder_s": traced - spanned,
        "trace.spans": sum(v["calls"] for v in agg.values()),
    })
    return m


def run(workload, seed: int, seconds: float, workdir: Path, src: Path, env: dict,
        record) -> dict[str, float]:
    """Trace ``workload`` for ``seconds``; ``record`` tallies each invocation's
    exit status and output. Returns the per-layer metrics."""
    cli_import, numpy_import = import_times(sys.executable, env)

    sys.path.insert(0, str(src))
    mods = {}
    for name in MODULES:
        try:
            mods[name] = importlib.import_module(f"setmetric.{name}")
        except ModuleNotFoundError:  # a layer merged away reads 0
            pass
    setmetric = sys.modules["setmetric"]
    baselines = layer_baselines(setmetric, seed)

    main = mods["cli"].main
    replay(main, workload.ops, record)  # warm-up
    tracer = Tracer()
    untraced, traced, rounds = [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        untraced.append(replay(main, workload.ops, record))
        tracer.reset()
        patches = instrument(tracer, mods)
        try:
            traced.append(replay(mods["cli"].main, workload.ops, record))
        finally:
            patches.undo()
        spans = tracer.spans()
        rounds.append((spans, dict((k, v[0]) for k, v in tracer.counters.items())))

    # report the traced round of median wall time, so its parts add up
    pick = sorted(range(len(traced)), key=traced.__getitem__)[(len(traced) - 1) // 2]
    spans, counters = rounds[pick]
    agg = aggregate(tracer.names, spans)
    metrics = per_layer(agg, counters, traced[pick], statistics.median(traced),
                        statistics.median(untraced))
    metrics.update({"cli.import_s": cli_import, "cli.numpy_import_s": numpy_import})
    metrics.update(baselines)

    np.savez_compressed(
        workdir / "trace.npz", names=np.array(tracer.names),
        round=np.concatenate([np.full(len(s["kind"]), r) for r, (s, _) in enumerate(rounds)]),
        **{key: np.concatenate([s[key] for s, _ in rounds]) for key in ("kind", "parent", "start", "end")},
    )
    (workdir / "trace-summary.json").write_text(json.dumps(
        {"round": pick, "traced_s": traced, "untraced_s": untraced, "spans": agg,
         "counters": counters}, indent=1))
    return metrics
