"""Host-time spans around the repo's layer boundaries.

Everything here lives in the benchmark: ``install`` wraps the public
functions and methods named in ``SPANS`` / ``ACCUMULATORS`` / ``COUNTED``
from the outside and ``uninstall`` puts the originals back, so the
program under test carries no instrumentation and the untraced run that
produces the end-to-end metrics executes unmodified code.

Three kinds of call site:

* **spans** — name, layer, start, end, parent span and operation id;
* **accumulators** — call sites that fire more than ~10 k times per
  pass (``transfer_time``, ``links``, coster calls, ``closed_form_cost``,
  ``registry.estimate``) keep one ``[count, total, self]`` cell per
  parent span instead of a span per call.  ``PlanService.plan`` is both:
  a cold plan is a span with its refinement spans beneath it, and a
  cache hit (a leaf shorter than ``FOLD_BELOW_S``) folds into an
  accumulator cell as it closes;
* **counted** — generator-bodied layers (``Comm.bcast``, the rank
  programs).  Calling a generator function only creates the generator;
  its body runs inside the engine's event loop, so its time is
  ``simulator.engine`` self time and only the call count is recorded.

A frame's self time is its duration minus the time of the frames that
completed inside it, whether spans or accumulator calls, so per-layer
self times add up to the traced pass exactly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from typing import Any, Callable

#: Call sites recorded as spans: (module, class or None, name, layer).
#: A layer of None means "by the class of ``self``" (``_ENGINE_LAYERS``).
SPANS = [
    ("repro.core.summa", None, "run_summa", "core"),
    ("repro.core.hsumma", None, "run_hsumma", "core"),
    ("repro.core.cyclic", None, "run_cyclic", "core"),
    ("repro.algorithms.cannon", None, "run_cannon", "algorithms"),
    ("repro.algorithms.dns3d", None, "run_dns3d", "algorithms"),
    ("repro.algorithms.algo25d", None, "run_25d", "algorithms"),
    ("repro.simulator.runtime", None, "run_spmd", "simulator.engine"),
    ("repro.verify.session", None, "run_verified", "verify"),
    ("repro.mpi.comm", None, "make_contexts", "mpi"),
    ("repro.planner.space", None, "enumerate_candidates", "planner"),
    ("repro.simulator.predictor", None, "predict_summa", "simulator.predictor"),
    ("repro.simulator.predictor", None, "predict_hsumma", "simulator.predictor"),
    ("repro.simulator.predictor", None, "predict_cyclic", "simulator.predictor"),
    ("repro.simulator.predictor", None, "predict_cannon", "simulator.predictor"),
    ("repro.simulator.predictor", None, "predict_dns3d", "simulator.predictor"),
    ("repro.simulator.predictor", None, "predict_summa25d", "simulator.predictor"),
    ("repro.experiments.stepmodel", None, "summa_step_model", "experiments"),
    ("repro.experiments.stepmodel", None, "hsumma_step_model", "experiments"),
    ("repro.experiments.figures", None, "group_sweep", "experiments"),
    ("repro.experiments.figures", None, "fig6", "experiments"),
    ("repro.experiments.figures", None, "fig8", "experiments"),
    ("repro.experiments.figures", None, "fig10", "experiments"),
    ("repro.experiments.tables", None, "table1", "experiments"),
    ("repro.experiments.tables", None, "table2", "experiments"),
    ("repro.cluster.simulate", None, "serve", "cluster"),
    ("repro.metrics", None, "phase_rollup", "metrics"),
    ("repro.metrics", None, "critical_path", "metrics"),
    ("repro.simulator.engine", "Engine", "run", None),
    ("repro.simulator.collapse", "CollapsedMacroEngine", "run", None),
    ("repro.simulator.backends", "MacroBackend", "run_with_factory",
     "simulator.backends"),
    ("repro.planner.query", "PlanQuery", "resolve", "planner"),
    ("repro.planner.service", "PlanService", "plan", "planner"),
    ("repro.planner.service", "PlanService", "plan_many", "planner"),
    ("repro.cluster.schedulers", "Scheduler", "launch_spec", "cluster"),
    ("repro.cluster.schedulers", "PlannerScheduler", "launch_spec", "cluster"),
    ("repro.cluster.schedulers", "FifoScheduler", "pick", "cluster"),
    ("repro.cluster.schedulers", "EasyBackfillScheduler", "pick", "cluster"),
    ("repro.cluster.placement", "SlotGrid", "allocate", "cluster"),
    ("repro.cluster.placement", "SlotGrid", "release", "cluster"),
    ("repro.cluster.engine", "ClusterEngine", "serve", "cluster"),
    ("repro.cluster.metrics", "StreamReport", "from_records", "cluster"),
]

#: Hot call sites kept as per-parent accumulators.
ACCUMULATORS = [
    ("repro.planner.space", None, "closed_form_cost", "costs"),
    ("repro.costs.registry", None, "estimate", "costs"),
    ("repro.cluster.placement", "SlotGrid", "find", "cluster"),
    ("repro.network.homogeneous", "HomogeneousNetwork", "transfer_time",
     "network"),
    ("repro.network.homogeneous", "HomogeneousNetwork", "links", "network"),
    ("repro.network.tree", "SwitchedCluster", "transfer_time", "network"),
    ("repro.network.tree", "SwitchedCluster", "links", "network"),
    ("repro.network.torus", "Torus3D", "transfer_time", "network"),
    ("repro.network.torus", "Torus3D", "links", "network"),
    ("repro.experiments.stepmodel", "AnalyticCoster", "bcast_time",
     "experiments"),
    ("repro.experiments.stepmodel", "AnalyticCoster", "collective_time",
     "experiments"),
    ("repro.experiments.stepmodel", "MicroDesCoster", "bcast_time",
     "experiments"),
    ("repro.experiments.stepmodel", "MicroDesCoster", "collective_time",
     "experiments"),
    ("repro.experiments.stepmodel", "TopologyCoster", "bcast_time",
     "experiments"),
    ("repro.experiments.stepmodel", "TopologyCoster", "collective_time",
     "experiments"),
]

#: Generator-bodied call sites: counted, not timed.
COUNTED = [
    ("repro.mpi.comm", "Comm", "bcast", "collectives"),
    ("repro.core.summa", None, "summa_program", "core"),
    ("repro.core.hsumma", None, "hsumma_program", "core"),
    ("repro.core.cyclic", None, "cyclic_summa_program", "core"),
    ("repro.algorithms.cannon", None, "cannon_program", "algorithms"),
    ("repro.algorithms.dns3d", None, "dns3d_program", "algorithms"),
]

#: The benchmark's own modules also bind library functions by name.
_BENCH_MODULES = {"workloads", "micro", "worker", "__main__"}

#: Leaf spans of ``FOLDED`` sites shorter than this become accumulator
#: calls: 20 000 hot ``plan()`` hits are one cell, not 20 000 spans.
FOLD_BELOW_S = 100e-6
FOLDED = {"PlanService.plan", "PlanService.plan_many"}

_ENGINE_LAYERS = {
    "Engine": "simulator.engine",
    "DesBackend": "simulator.engine",
    "MacroBackend": "simulator.backends",
    "CollapsedMacroEngine": "simulator.collapse",
}

GENERATOR_NOTE = (
    "collectives and the rank programs are generators: they are counted "
    "here, and their host time is simulator.engine self time"
)


class Tracer:
    """In-memory span store for one traced pass."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        #: [name, layer, start, end, parent index, op id, self seconds]
        self.spans: list[list] = []
        self.stack: list[int] = []
        #: seconds of frames completed inside the currently open frame
        self.inner = 0.0
        #: (parent index, name) -> [count, total s, self s, layer]
        self.acc: dict[tuple[int, str], list] = {}
        #: (name, layer) -> calls of generator-bodied sites
        self.counts: dict[tuple[str, str], int] = {}
        #: every MacroBackend.collapse_report observed
        self.collapse_reports: list[dict] = []
        self.op: str | None = None
        self._saved: list[float] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self._saved.append(self.inner)
        self.inner = 0.0
        self.stack.append(idx)
        self.spans.append([name, layer, self.clock(), 0.0, parent, self.op,
                           0.0])
        return idx

    def close(self, idx: int) -> None:
        end = self.clock()
        span = self.spans[idx]
        duration = end - span[2]
        self.stack.pop()
        if span[0] in FOLDED and duration < FOLD_BELOW_S \
                and self.inner == 0.0 and idx == len(self.spans) - 1:
            self.spans.pop()
            cell = self.acc.setdefault((span[4], span[0]),
                                       [0, 0.0, 0.0, span[1]])
            cell[0] += 1
            cell[1] += duration
            cell[2] += duration
        else:
            span[3] = end
            span[6] = duration - self.inner
        self.inner = self._saved.pop() + duration

    @contextlib.contextmanager
    def operation(self, op_id: str):
        """The root span of one operation."""
        self.op = op_id
        idx = self.open(op_id, "bench")
        try:
            yield
        finally:
            self.close(idx)
            self.op = None

    # -- wrappers -----------------------------------------------------

    def _span(self, fn: Callable, name: str, layer: str | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if layer is None:
                cls = type(args[0]).__name__
                idx = tracer.open(f"{cls}.{fn.__name__}",
                                  _ENGINE_LAYERS.get(cls, "simulator.engine"))
            else:
                idx = tracer.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    def _collapse_span(self, fn: Callable, name: str, layer: str) -> Callable:
        """``run_with_factory`` span that also keeps the collapse report."""
        spanned = self._span(fn, name, layer)
        reports = self.collapse_reports

        @functools.wraps(fn)
        def wrapper(backend: Any, *args: Any, **kwargs: Any) -> Any:
            try:
                return spanned(backend, *args, **kwargs)
            finally:
                reports.append(dict(backend.collapse_report))

        return wrapper

    def _accumulator(self, fn: Callable, name: str, layer: str) -> Callable:
        tracer = self
        clock = self.clock
        acc = self.acc
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            saved = tracer.inner
            tracer.inner = 0.0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                key = (stack[-1] if stack else -1, name)
                cell = acc.get(key)
                if cell is None:
                    cell = acc[key] = [0, 0.0, 0.0, layer]
                cell[0] += 1
                cell[1] += duration
                cell[2] += duration - tracer.inner
                tracer.inner = saved + duration

        return wrapper

    def _counter(self, fn: Callable, name: str, layer: str) -> Callable:
        counts = self.counts
        key = (name, layer)
        counts[key] = 0

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall ------------------------------------------

    def _patch(self, module: str, cls: str | None, attr: str,
               make: Callable[[Callable, str], Callable]) -> None:
        mod = importlib.import_module(module)
        if cls is not None:
            owner = getattr(mod, cls)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(
                    make(original.__func__, f"{cls}.{attr}"))
            else:
                wrapped = make(original, f"{cls}.{attr}")
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            return
        original = getattr(mod, attr)
        wrapped = make(original, attr)
        # ``from x import f`` copies the binding, so every module that
        # imported the function by name is rebound too.
        for other in list(sys.modules.values()):
            name = getattr(other, "__name__", "")
            if not (name.startswith("repro") or name in _BENCH_MODULES):
                continue
            if getattr(other, attr, None) is original:
                self._undo.append((other, attr, original))
                setattr(other, attr, wrapped)

    def install(self) -> None:
        for table, make in ((SPANS, self._span),
                            (ACCUMULATORS, self._accumulator),
                            (COUNTED, self._counter)):
            for module, cls, attr, layer in table:
                wrap = self._collapse_span if attr == "run_with_factory" \
                    else make
                self._patch(module, cls, attr,
                            functools.partial(wrap, layer=layer))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- queries ------------------------------------------------------

    def duration(self, idx: int) -> float:
        span = self.spans[idx]
        return span[3] - span[2]

    def has_ancestor(self, idx: int, name: str) -> bool:
        idx = self.spans[idx][4]
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][4]
        return False

    def span_stats(self, name: str) -> tuple[int, float, float]:
        """(count, total seconds, self seconds) of spans called ``name``."""
        count, total, own = 0, 0.0, 0.0
        for span in self.spans:
            if span[0] == name:
                count += 1
                total += span[3] - span[2]
                own += span[6]
        return count, total, own

    def acc_stats(self, suffix: str, prefix: str = "") -> tuple[int, float]:
        """(count, total seconds) over accumulators whose name starts
        with ``prefix`` and ends with ``suffix``."""
        count, total = 0, 0.0
        for (_parent, name), cell in self.acc.items():
            if name.endswith(suffix) and name.startswith(prefix):
                count += cell[0]
                total += cell[1]
        return count, total

    def count(self, name: str) -> int:
        return sum(n for (site, _layer), n in self.counts.items()
                   if site == name)

    def layers(self) -> dict[str, dict[str, Any]]:
        """Per-layer self seconds, call counts, and ``under_s``: the self
        time of every frame that is of the layer or runs inside one of
        its spans — where the time burns, and on whose behalf."""
        out: dict[str, dict[str, Any]] = {}

        def cell(layer: str) -> dict[str, Any]:
            return out.setdefault(layer, {"self_s": 0.0, "under_s": 0.0,
                                          "calls": 0, "timed": True})

        enclosing: list[frozenset[str]] = []
        for span in self.spans:
            outer = enclosing[span[4]] if span[4] >= 0 else frozenset()
            enclosing.append(outer | {span[1]})
            entry = cell(span[1])
            entry["self_s"] += span[6]
            entry["calls"] += 1
            for layer in enclosing[-1]:
                cell(layer)["under_s"] += span[6]
        for (parent, _name), (count, _total, own, layer) in self.acc.items():
            entry = cell(layer)
            entry["self_s"] += own
            entry["calls"] += count
            outer = enclosing[parent] if parent >= 0 else frozenset()
            for under in outer | {layer}:
                cell(under)["under_s"] += own
        for (_name, layer), count in self.counts.items():
            entry = out.setdefault(layer, {"self_s": 0.0, "under_s": 0.0,
                                           "calls": 0, "timed": False})
            entry["calls"] += count
        return out

    def by_name(self) -> dict[str, dict[str, Any]]:
        out: dict[str, dict[str, Any]] = {}
        for span in self.spans:
            entry = out.setdefault(span[0], {"layer": span[1], "count": 0,
                                             "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += span[3] - span[2]
            entry["self_s"] += span[6]
        for (_parent, name), (count, total, own, layer) in self.acc.items():
            entry = out.setdefault(name, {"layer": layer, "count": 0,
                                          "total_s": 0.0, "self_s": 0.0})
            entry["count"] += count
            entry["total_s"] += total
            entry["self_s"] += own
        for (name, layer), count in self.counts.items():
            out[name] = {"layer": layer, "count": count, "total_s": None,
                         "self_s": None}
        return out

    # -- output -------------------------------------------------------

    def chrome_trace(self) -> dict[str, Any]:
        """Chrome ``trace_event`` JSON (load in chrome://tracing or
        https://ui.perfetto.dev).  Accumulators ride on their parent
        span as ``args.calls``."""
        calls: dict[int, dict[str, Any]] = {}
        for (parent, name), (count, total, _own, _layer) in self.acc.items():
            calls.setdefault(parent, {})[name] = {"count": count,
                                                  "total_us": total * 1e6}
        origin = self.spans[0][2] if self.spans else 0.0
        events = []
        for idx, (name, layer, start, end, parent, op, own) in \
                enumerate(self.spans):
            args = {"id": idx, "parent": parent, "op": op,
                    "self_us": own * 1e6}
            if idx in calls:
                args["calls"] = calls[idx]
            events.append({"name": name, "cat": layer, "ph": "X", "pid": 0,
                           "tid": 0, "ts": (start - origin) * 1e6,
                           "dur": (end - start) * 1e6, "args": args})
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"note": GENERATOR_NOTE}}

    def write(self, trace_path: Any, layers_path: Any, *, workload: str,
              pass_s: float) -> None:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh)
        layers = self.layers()
        total = sum(entry["self_s"] for entry in layers.values())
        with open(layers_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "traced_pass_s": pass_s,
                       "self_s_total": total, "note": GENERATOR_NOTE,
                       "layers": layers, "by_name": self.by_name()},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
