"""Which layer entry points the traced run wraps, and the per-layer
metrics computed from the spans they record.

Span names are ``<layer>.<entry point>``. Every wrapped callable is a
public entry point of its layer (or, for the pool, the module-level
worker entry the pool dispatches), so nothing under ``src/`` changes.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Sequence

from tracer import Span, Tracer

#: Mitigations whose cells swap rows (``engine.swap_over_baseline``).
SWAP_DESIGNS = ("rrs", "srs", "scale-srs")


def _cell_attrs(args, kwargs, result):
    cell = args[0]
    return {"kind": cell.kind, "mitigation": cell.mitigation}


def _drive_attrs(args, kwargs, result):
    engine, traces = args[0], args[2]
    attrs = {"engine": engine.name, "accesses": sum(len(t) for t in traces)}
    counters = getattr(engine, "counters", None)
    if counters:
        attrs["fast"] = counters.get("fast_accesses", 0)
        attrs["scalar"] = counters.get("scalar_accesses", 0)
        attrs["scoped"] = counters.get("scoped_accesses", 0)
    return attrs


def _get_attrs(args, kwargs, result):
    return {"hit": result is not None}


def _put_many_attrs(args, kwargs, result):
    return {"cells": len(args[1])}


def _pool_attrs(args, kwargs, result):
    pool, task = args[0], args[1]
    return {
        "workers": getattr(pool, "max_workers", 1),
        "chunks": getattr(pool, "chunk_count", None) or 0,
        "cells": len(task.pending),
    }


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics read.

    Must run after ``repro.report`` is imported (so the figure modules
    that import names with ``from x import f`` exist to be rebound) and
    before any pool forks.
    """
    from repro.attacks import harness
    from repro.attacks.montecarlo import MonteCarloJuggernaut
    from repro.core import blockhammer
    from repro.report import planner, render
    from repro.sim import experiment, pool, simulator, store
    from repro.sim.engine import batched, scalar
    from repro.workloads import plane

    fn = tracer.wrap_function
    fn(planner, "build_figure", "report.build")
    fn(planner, "resolve_figure", "report.resolve")
    fn(planner, "render_figure", "report.render")
    fn(render, "write_artifact", "report.write")
    fn(harness, "hammer_pattern", "attacks.hammer_pattern")
    fn(blockhammer, "dos_false_positive_delay", "attacks.dos_delay")
    tracer.wrap_method(MonteCarloJuggernaut, "run", "attacks.montecarlo")
    fn(experiment, "run_grid", "experiment.run_grid")
    fn(experiment, "plan_cells", "experiment.plan")
    fn(experiment, "_run_cell", "cell", _cell_attrs)
    tracer.wrap_method(store.ResultStore, "get", "store.get", _get_attrs)
    tracer.wrap_method(store.ResultStore, "put", "store.put")
    tracer.wrap_method(
        store.ResultStore, "put_many", "store.put_many", _put_many_attrs
    )
    tracer.wrap_method(pool.SerialPool, "run", "pool.run", _pool_attrs)
    tracer.wrap_method(pool.ProcessPool, "run", "pool.run", _pool_attrs)
    fn(pool, "_run_chunk", "pool.chunk", flush=True)
    fn(plane, "traces_for", "workloads.traces_for")
    tracer.wrap_method(simulator.PerformanceSimulation, "__init__", "sim.init")
    tracer.wrap_method(simulator.PerformanceSimulation, "run", "sim.run")
    tracer.wrap_method(scalar.ScalarEngine, "drive", "engine.drive", _drive_attrs)
    tracer.wrap_method(
        batched.BatchedEngine, "drive", "engine.drive", _drive_attrs
    )


def trace_analytic(tracer: Tracer, spec: Any) -> None:
    """Wrap a built figure spec's ``analytic`` hook (a per-spec callable,
    so it is wrapped on the spec after ``build_figure`` returns)."""
    if spec.analytic is not None:
        spec.analytic = tracer.traced(spec.analytic, "report.analytic")


# ----------------------------------------------------------------------
# metrics


class Spans:
    """Index over a run's spans (coordinator plus workers)."""

    def __init__(self, spans: Iterable[Span], main_pid: int):
        self.spans = list(spans)
        self.main_pid = main_pid
        self.by_id = {span.sid: span for span in self.spans}
        self.by_name: Dict[str, List[Span]] = defaultdict(list)
        self.children: Dict[str, List[Span]] = defaultdict(list)
        for span in self.spans:
            self.by_name[span.name].append(span)
            if span.parent is not None:
                self.children[span.parent].append(span)

    def named(self, name: str) -> List[Span]:
        return self.by_name.get(name, [])

    def total(self, name: str) -> float:
        return sum(span.duration for span in self.named(name))

    def self_time(self, name: str) -> float:
        """Duration minus what same-process child spans cover."""
        return sum(
            span.duration - sum(
                child.duration for child in self.children.get(span.sid, ())
                if child.pid == span.pid
            )
            for span in self.named(name)
        )

    def outermost(self, names: Sequence[str]) -> List[Span]:
        """Spans named in ``names`` whose parent is not one of them."""
        return [
            span for name in names for span in self.named(name)
            if getattr(self.by_id.get(span.parent), "name", None) not in names
        ]

    def ancestor_attr(self, span: Span, key: str) -> Optional[Any]:
        """The nearest ancestor attribute ``key`` (e.g. a cell's
        mitigation, seen from its engine drive)."""
        current = self.by_id.get(span.parent)
        while current is not None:
            if key in (current.attrs or {}):
                return current.attrs[key]
            current = self.by_id.get(current.parent)
        return None

    def coverage(self, wall_s: float) -> float:
        """Share of ``wall_s`` the coordinator's top-level spans cover."""
        top = sum(
            span.duration for span in self.spans
            if span.pid == self.main_pid and span.parent is None
        )
        return _ratio(top, wall_s)


def _percentile(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: Spans,
    wall_s: float,
    store_dir: Optional[str],
    cpu_available: int,
) -> Dict[str, float]:
    """Every span-derived per-layer metric of one traced operation."""
    m: Dict[str, float] = {}

    # report
    m["report.build_s"] = spans.total("report.build")
    m["report.resolve_self_s"] = spans.self_time("report.resolve")
    m["report.analytic_s"] = spans.total("report.analytic")
    m["report.render_s"] = spans.total("report.render") + spans.total(
        "report.write"
    )

    # attacks
    m["attacks.hammer_pattern_s"] = spans.total("attacks.hammer_pattern")
    m["attacks.hammer_pattern_n"] = len(spans.named("attacks.hammer_pattern"))
    m["attacks.montecarlo_s"] = spans.total("attacks.montecarlo")
    m["attacks.montecarlo_n"] = len(spans.named("attacks.montecarlo"))
    m["attacks.dos_delay_s"] = spans.total("attacks.dos_delay")

    # experiment
    m["experiment.plan_s"] = spans.total("experiment.plan")
    m["experiment.run_grid_self_s"] = spans.self_time("experiment.run_grid")
    m["experiment.grids"] = len(spans.named("experiment.run_grid"))

    # store
    gets = spans.named("store.get")
    hits = sum(1 for span in gets if span.attrs["hit"])
    writes = spans.outermost(("store.put", "store.put_many"))
    m["store.get_s"] = spans.total("store.get")
    m["store.get_n"] = len(gets)
    m["store.hit_ratio"] = _ratio(hits, len(gets))
    m["store.put_s"] = sum(span.duration for span in writes)
    m["store.put_n"] = sum((span.attrs or {}).get("cells", 1) for span in writes)
    m["store.bytes"] = _tree_bytes(store_dir) if store_dir else 0

    # pool
    runs = spans.named("pool.run")
    m["pool.run_s"] = spans.total("pool.run")
    m["pool.workers"] = max((span.attrs["workers"] for span in runs), default=0)
    m["pool.chunks"] = sum(span.attrs["chunks"] for span in runs)
    m["pool.cells"] = sum(span.attrs["cells"] for span in runs)
    cells = spans.named("cell")
    worker_cell_s = sum(
        span.duration for span in cells if span.pid != spans.main_pid
    )
    capacity = sum(
        span.duration * span.attrs["workers"] for span in runs
        if span.attrs["workers"] > 1
    )
    # A pooled speed-up is meaningless on one CPU: refuse to report it.
    m["pool.parallel_efficiency"] = (
        _ratio(worker_cell_s, capacity) if cpu_available > 1 else 0.0
    )

    # evaluations, per kind
    for kind in ("perf", "security", "storage", "power"):
        m[f"cell.{kind}_s"] = sum(
            span.duration for span in cells if span.attrs["kind"] == kind
        )
    perf = sorted(
        span.duration for span in cells if span.attrs["kind"] == "perf"
    )
    m["cell.perf_n"] = len(perf)
    m["cell.perf_p50_s"] = _percentile(perf, 50)
    m["cell.perf_p90_s"] = _percentile(perf, 90)

    # workload plane
    m["workloads.traces_for_s"] = spans.total("workloads.traces_for")

    # simulator and engine
    drives = spans.named("engine.drive")
    batched = [span for span in drives if span.attrs["engine"] == "batched"]
    m["sim.init_s"] = spans.total("sim.init")
    m["sim.run_s"] = spans.total("sim.run")
    m["engine.drive_s"] = spans.total("engine.drive")
    m["engine.batched_cells"] = len(batched)
    m["engine.scalar_cells"] = len(drives) - len(batched)
    m["engine.req_per_s"] = _ratio(
        sum(span.attrs["accesses"] for span in drives), m["engine.drive_s"]
    )
    fast = sum(span.attrs["fast"] for span in batched)
    slow = sum(span.attrs["scalar"] for span in batched)
    m["engine.fused_ratio"] = _ratio(fast, fast + slow)
    m["engine.scoped_accesses"] = sum(span.attrs["scoped"] for span in batched)
    m["engine.scalar_accesses"] = slow
    by_design: Dict[str, List[float]] = defaultdict(list)
    for span in drives:
        design = spans.ancestor_attr(span, "mitigation")
        by_design[design].append(span.duration)
    for design in ("baseline",) + SWAP_DESIGNS:
        m[f"engine.cell_s.{design}"] = _percentile(
            sorted(by_design.get(design, [])), 50
        )
    swap = sorted(t for d in SWAP_DESIGNS for t in by_design.get(d, []))
    m["engine.swap_over_baseline"] = _ratio(
        _percentile(swap, 50), m["engine.cell_s.baseline"]
    )

    m["trace.coverage"] = spans.coverage(wall_s)
    return m


def _tree_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total
