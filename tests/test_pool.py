"""Tests for the execution backends (:mod:`repro.sim.pool`)."""

import dataclasses
import os
import time
from typing import ClassVar

import pytest

from repro.registry import EVALUATIONS, register_evaluation
from repro.sim import (
    ExperimentSpec,
    ProcessPool,
    ResultStore,
    SerialPool,
    SimulationParams,
    available_cpu_count,
    plan_cells,
    run_grid,
)
from repro.sim.pool import (
    PoolTask,
    dispatch_order,
    pool_width,
    sized_pool,
)
from repro.workloads import plane

# One tiny rrs cell plus its baseline.
SPEC = ExperimentSpec(
    workloads=["povray"],
    mitigations=["rrs"],
    base_params=SimulationParams(
        trh=1200, num_cores=1, requests_per_core=800, time_scale=32
    ),
)

# The perfbench ``grid-swap`` workload's grid (21 perf cells).
GRID_SWAP = ExperimentSpec(
    workloads=["gcc", "hmmer", "povray"],
    mitigations=["rrs", "srs", "scale-srs"],
    grid={"trh": [2400, 1200]},
    base_params=SimulationParams(
        num_cores=4, requests_per_core=12000, time_scale=32, seed=77
    ),
)


def entry_files(store_dir):
    return sorted(
        name for name in os.listdir(str(store_dir)) if name.endswith(".json")
    )


# Module-level (picklable) pieces for failure-path tests: a kind whose
# "boom" subject raises, and one whose "boom" subject simulates Ctrl-C.
@dataclasses.dataclass(frozen=True)
class PoolParams:
    trh: int = 0


@dataclasses.dataclass
class PoolResult:
    kind: ClassVar[str] = "pool-kind"

    workload: str
    mitigation: str
    trh: int
    params: object = None


def run_pool_cell(cell):
    if cell.mitigation == "boom":
        raise ValueError("pool boom")
    return PoolResult(cell.workload, cell.mitigation, cell.params.trh,
                      cell.params)


def run_interrupt_cell(cell):
    if cell.mitigation == "boom":
        # Let the in-flight ok cells finish first, then simulate Ctrl-C
        # reaching a worker process.
        time.sleep(0.4)
        raise KeyboardInterrupt
    return PoolResult(cell.workload, cell.mitigation, cell.params.trh,
                      cell.params)


@pytest.fixture
def flaky_kind():
    register_evaluation(
        "pool-kind",
        params_cls=PoolParams,
        result_cls=PoolResult,
        subjects=("ok", "boom", "also-ok"),
    )(run_pool_cell)
    yield ExperimentSpec(
        kind="pool-kind",
        mitigations=["ok", "boom", "also-ok"],
        base_params=PoolParams(),
    )
    EVALUATIONS.remove("pool-kind")


@pytest.fixture
def interrupt_kind():
    register_evaluation(
        "pool-interrupt",
        params_cls=PoolParams,
        result_cls=PoolResult,
        subjects=("ok", "also-ok", "boom"),
    )(run_interrupt_cell)
    yield
    EVALUATIONS.remove("pool-interrupt")


class TestWorkerDefaults:
    def test_available_cpu_count_respects_affinity(self):
        if hasattr(os, "sched_getaffinity"):
            assert available_cpu_count() == len(os.sched_getaffinity(0))
        else:  # pragma: no cover - non-Linux fallback
            assert available_cpu_count() == (os.cpu_count() or 1)

    def test_process_pool_defaults_to_available_cpus(self):
        assert ProcessPool().max_workers == available_cpu_count()

    def test_run_grid_rejects_non_positive_workers(self):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="positive"):
                run_grid(SPEC, max_workers=bad)


class TestDefaultDispatch:
    """run_grid's default dispatch sizes the pool from the cell costs."""

    @pytest.mark.parametrize(
        "costs, cpus, width",
        [
            ([48_000.0] * 21, 2, 2),
            ([3e6] * 3, 2, 3),
            ([3e6] * 3, 4, 3),
            ([3e6] * 5, 2, 2),
            ([3e6, 3e6, 2_000.0], 2, 2),
            ([50.0] * 45, 2, 1),
            ([3e6] * 3, 1, 1),
            ([3e6], 2, 1),
        ],
        ids=[
            "grid-swap-shape", "few-long-chunks", "fewer-chunks-than-cpus",
            "past-twice-the-cpus", "one-short-chunk", "cheap-grid",
            "one-cpu", "one-chunk",
        ],
    )
    def test_pool_width(self, costs, cpus, width):
        assert pool_width(costs, cpus) == width

    def test_fig06_montecarlo_gets_one_worker_per_cell(self, monkeypatch):
        """On 2 CPUs, fig06's three multi-second cells get 3 workers
        (not 2 + 1); its 45 analytical curve cells stay in-process."""
        from repro.report.planner import build_figure
        from repro.sim import pool as pool_module

        monkeypatch.setattr(pool_module, "available_cpu_count", lambda: 2)
        _, figure = build_figure("fig06")
        curves, montecarlo = (
            sized_pool(PoolTask(list(enumerate(plan_cells(spec))), None, None))
            for spec in figure.specs
        )
        assert isinstance(curves, SerialPool)
        assert isinstance(montecarlo, ProcessPool)
        assert montecarlo.max_workers == 3

    def test_default_width_matches_serial_and_pooled_bits(
        self, monkeypatch, tmp_path
    ):
        """fig06's Monte-Carlo grid, its probe cut to 2M windows per
        cell (a small bank keeps 2M the floor): serial, two workers and
        the default width (3 on 2 CPUs) write identical JSON and store
        entries."""
        from repro.report.planner import build_figure
        from repro.sim import pool as pool_module

        monkeypatch.setattr(pool_module, "available_cpu_count", lambda: 2)
        _, figure = build_figure("fig06")
        spec = figure.specs[1]
        spec = dataclasses.replace(
            spec,
            base_params=dataclasses.replace(
                spec.base_params,
                rows_per_bank=8192,
                probe_windows=2_000_000,
                iterations=2_000,
            ),
        )
        runs, stores, widths = {}, {}, {}
        for label, pool in (
            ("serial", SerialPool()),
            ("pooled", ProcessPool(2)),
            ("default", None),
        ):
            store_dir = tmp_path / label
            results = run_grid(spec, store=str(store_dir), pool=pool)
            runs[label] = results.to_json()
            stores[label] = {
                name: (store_dir / name).read_text()
                for name in entry_files(store_dir)
            }
            widths[label] = results.run_stats.workers
        assert runs["pooled"] == runs["serial"] == runs["default"]
        assert stores["pooled"] == stores["serial"] == stores["default"]
        assert len(stores["serial"]) == 3
        assert widths == {"serial": 1, "pooled": 2, "default": 3}

    def test_grid_swap_keeps_two_workers(self, monkeypatch):
        """The benchmark grid's real cell costs size it at the CPU count."""
        from repro.sim import pool as pool_module

        monkeypatch.setattr(pool_module, "available_cpu_count", lambda: 2)
        pool = sized_pool(
            PoolTask(list(enumerate(plan_cells(GRID_SWAP))), None, None)
        )
        assert isinstance(pool, ProcessPool)
        assert pool.max_workers == 2

    def test_explicit_workers_are_honoured(self):
        """max_workers bypasses the cost rule: a cheap grid still pools."""
        assert run_grid(SPEC).run_stats.workers == 1
        assert run_grid(SPEC, max_workers=2).run_stats.workers == 2

    @pytest.mark.parametrize(
        "cpus, max_workers, break_even, priced",
        [
            (1, None, None, 0),
            (2, None, None, 1),
            (2, None, 0.0, 1),
            (2, 2, None, 1),
        ],
        ids=["one-cpu-default", "default", "default-pooled", "explicit-pool"],
    )
    def test_each_cell_priced_at_most_once(
        self, monkeypatch, cpus, max_workers, break_even, priced
    ):
        """Sizing and dispatch share one pricing and one workload keying
        per run; on one CPU the default dispatch is serial without
        pricing or keying anything."""
        from repro.sim import pool as pool_module

        calls = []
        keyed = []
        real = pool_module.cell_cost
        real_key = plane.cell_workload_key
        monkeypatch.setattr(pool_module, "available_cpu_count", lambda: cpus)
        if break_even is not None:
            monkeypatch.setattr(pool_module, "SERIAL_BREAK_EVEN", break_even)
        monkeypatch.setattr(
            pool_module, "cell_cost", lambda cell: calls.append(cell) or real(cell)
        )
        monkeypatch.setattr(
            plane,
            "cell_workload_key",
            lambda cell: keyed.append(cell) or real_key(cell),
        )
        results = run_grid(SPEC, max_workers=max_workers)
        if break_even is not None:
            assert results.run_stats.workers == 2
        cells = plan_cells(SPEC)
        assert len(calls) == priced * len(cells)
        assert len({id(cell) for cell in calls}) == len(calls)
        assert len(keyed) == priced * len(cells)
        assert len({id(cell) for cell in keyed}) == len(keyed)

    def test_grid_swap_affinity_order_is_pinned(self):
        """The cost hint's engine and mitigation factors keep the
        benchmark grid's submission order: per workload, the six swap
        cells in plan order, then the baseline."""
        pending = list(enumerate(plan_cells(GRID_SWAP)))
        assert [position for position, _, _ in dispatch_order(pending)] == [
            3, 4, 5, 6, 7, 8, 0,
            9, 10, 11, 12, 13, 14, 1,
            15, 16, 17, 18, 19, 20, 2,
        ]

    def test_unkeyed_cells_start_longest_first(self):
        """Non-perf cells share one group, ordered by cost: fig06's
        1100-round cell (the shortest probe) is submitted last."""
        from repro.report.planner import build_figure

        _, figure = build_figure("fig06")
        pending = list(enumerate(plan_cells(figure.specs[1])))
        rounds = [cell.params.rounds for _, cell, _ in dispatch_order(pending)]
        assert rounds == [1200, 1300, 1100]


class TestFailurePaths:
    def test_serial_and_parallel_wrap_failures_identically(
        self, flaky_kind, tmp_path
    ):
        """A failing cell raises the same RuntimeError (naming the
        cell) whether the backend was serial or a process pool."""
        messages = {}
        for label, workers in (("serial", 1), ("parallel", 2)):
            with pytest.raises(RuntimeError) as info:
                run_grid(flaky_kind, max_workers=workers,
                         store=str(tmp_path / label))
            messages[label] = str(info.value)
            assert "pool-kind" in messages[label]
            assert "'boom'" in messages[label]
            assert "pool boom" in messages[label]
        assert messages["serial"] == messages["parallel"]

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pooled"])
    def test_progress_prefix_stops_at_failure(
        self, flaky_kind, tmp_path, workers
    ):
        """Mid-plan failure: progress reports the contiguous prefix up
        to the failed cell only. Pooled, completed later cells still
        reach the store; serial stops at the failure, so the store
        holds exactly the prefix."""
        seen = []
        store_dir = tmp_path / "store"
        with pytest.raises(RuntimeError, match="pool boom"):
            run_grid(
                flaky_kind,
                max_workers=workers,
                store=str(store_dir),
                progress=lambda done, total, result: seen.append(
                    (done, total)
                ),
            )
        # Plan order is [ok, boom, also-ok]: only the first cell forms
        # a completed prefix. Pooled, also-ok completed but is never
        # reported; serial never runs it.
        assert seen == [(1, 3)]
        pooled = workers > 1
        assert len(entry_files(store_dir)) == (2 if pooled else 1)
        # The resume recomputes exactly what never finished.
        ok_only = dataclasses.replace(
            flaky_kind, mitigations=["ok", "also-ok"]
        )
        resumed = run_grid(ok_only, max_workers=1, store=str(store_dir))
        assert resumed.run_stats.executed == (0 if pooled else 1)

    def test_interrupt_drains_completed_cells(self, interrupt_kind, tmp_path):
        """Ctrl-C mid-grid: the pool cancels queued cells, keeps every
        completed result, and re-raises — resume recomputes only the
        genuinely unfinished cells."""
        spec = ExperimentSpec(
            kind="pool-interrupt",
            mitigations=["ok", "also-ok", "boom"],
            base_params=PoolParams(),
        )
        store_dir = tmp_path / "store"
        with pytest.raises(KeyboardInterrupt):
            run_grid(spec, max_workers=2, store=str(store_dir))
        assert len(entry_files(store_dir)) == 2
        ok_only = dataclasses.replace(spec, mitigations=["ok", "also-ok"])
        resumed = run_grid(ok_only, max_workers=1, store=str(store_dir))
        assert resumed.run_stats.executed == 0
        assert resumed.run_stats.reused == 2

    def test_interrupt_cancels_queued_cells(self, interrupt_kind, tmp_path):
        """With one worker and the interrupting cell first, the queued
        cells never launch (cancel_futures) and the store stays empty."""
        spec = ExperimentSpec(
            kind="pool-interrupt",
            mitigations=["boom", "ok", "also-ok"],
            base_params=PoolParams(),
        )
        store_dir = tmp_path / "store"
        with pytest.raises(KeyboardInterrupt):
            run_grid(spec, store=str(store_dir), pool=ProcessPool(1))
        assert entry_files(store_dir) == []


class TestSerialPoolContract:
    def test_serial_pool_runs_in_process(self, tmp_path, monkeypatch):
        """SerialPool never forks: a monkeypatched cell runner is seen
        by every cell (the property the test suite itself leans on)."""
        import repro.sim.experiment as experiment

        calls = []
        original = experiment._run_cell

        def counting(cell):
            calls.append(cell.mitigation)
            return original(cell)

        monkeypatch.setattr(experiment, "_run_cell", counting)
        results = run_grid(SPEC, store=str(tmp_path / "s"), pool=SerialPool())
        assert len(calls) == len(results)


def run_kb_cell(cell):
    """A perf-cell runner that simulates Ctrl-C reaching a worker."""
    raise KeyboardInterrupt


def shm_names():
    """Current ``repro-`` shared-memory segment names."""
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith("repro-")}


class TestWorkloadPlane:
    """Plane accounting through the pools; no backend leaves a
    ``repro-`` shared-memory segment behind."""

    SPEC = ExperimentSpec(
        workloads=["povray"],
        mitigations=["rrs", "srs"],
        base_params=SimulationParams(
            trh=1200, num_cores=1, requests_per_core=600, time_scale=32
        ),
    )

    @pytest.mark.parametrize(
        "make_pool",
        [SerialPool, lambda: ProcessPool(2), lambda: None],
        ids=["serial", "pooled", "default"],
    )
    def test_every_perf_cell_is_one_generation_or_hit(self, make_pool):
        """A swap-design x TRH grid: each executed cell materializes its
        workload once — generated or served by its process's trace LRU —
        and pooled workers report their counts back with each chunk."""
        before = shm_names()
        spec = dataclasses.replace(
            self.SPEC,
            mitigations=["rrs", "srs", "scale-srs"],
            grid={"trh": [2400, 1200]},
        )
        run_stats = run_grid(spec, pool=make_pool()).run_stats
        stats = run_stats.workloads
        assert stats.generated >= 1
        assert stats.generated + stats.trace_hits == run_stats.executed
        assert stats.decode_hits >= 1
        assert shm_names() == before

    def test_serial_run_hits_caches(self):
        """Serial cells over one workload hit the trace (and, under the
        batched engine, decode) caches; the accounting lands in
        RunStats."""
        spec = dataclasses.replace(
            self.SPEC,
            base_params=dataclasses.replace(
                self.SPEC.base_params, engine="auto"
            ),
        )
        results = run_grid(spec, pool=SerialPool())
        stats = results.run_stats.workloads
        assert stats is not None
        assert stats.generated == 1
        assert stats.trace_hits >= 1
        assert stats.decode_hits >= 1

    def test_no_shm_leak_after_cell_failure(self, tmp_path):
        """A failing cell leaves no shared-memory segment behind."""
        before = shm_names()
        spec = dataclasses.replace(
            self.SPEC,
            workloads=["povray", f"trace:{tmp_path / 'missing'}"],
        )
        with pytest.raises(RuntimeError):
            run_grid(spec, pool=ProcessPool(2))
        assert shm_names() == before

    def test_no_shm_leak_after_interrupt(self):
        """Ctrl-C mid-run: the drain path leaves no segment behind."""
        from repro.sim.experiment import plan_cells
        from repro.sim.pool import PoolTask

        before = shm_names()
        pending = list(enumerate(plan_cells(self.SPEC)))
        pool = ProcessPool(2)
        task = PoolTask(
            pending=pending, run_cell=run_kb_cell,
            record=lambda batch: None,
        )
        with pytest.raises(KeyboardInterrupt):
            pool.run(task)
        # The drained chunks' plane deltas still reach the pool.
        assert pool.plane_stats is not None
        assert shm_names() == before


@dataclasses.dataclass(frozen=True)
class ChunkCell:
    """Minimal cell stand-in for partition-policy tests."""

    kind: str = "no-such-kind"
    workload: str = "w"
    mitigation: str = "m"
    params: object = None


class TestChunking:
    """Chunk-scheduled dispatch: partition policy and failure paths."""

    @staticmethod
    def items(count, key=None, kind="no-such-kind"):
        """Affinity-ordered (position, cell, key) triples of unit cost."""
        return [
            (i, ChunkCell(kind=kind, mitigation=f"m{i}", params=PoolParams()), key)
            for i in range(count)
        ]

    def test_budget_packs_cheap_cells(self):
        """Unit-cost cells pack to roughly total/workers per chunk."""
        from repro.sim.pool import chunk_plan

        chunks = chunk_plan(self.items(100), max_workers=4)
        assert 4 <= len(chunks) <= 5
        flat = [position for chunk in chunks for position, _, _ in chunk]
        assert flat == list(range(100))

    def test_key_change_flushes_a_chunk(self):
        """A chunk never spans two workload keys (one workload per chunk)."""
        from repro.sim.pool import chunk_plan

        ordered = (
            self.items(2, key="ka")
            + [(2, ChunkCell(), "kb")]
            + [(3, ChunkCell(), None), (4, ChunkCell(), None)]
        )
        chunks = chunk_plan(ordered, max_workers=1)
        keys = [{key for _, _, key in chunk} for chunk in chunks]
        assert keys == [{"ka"}, {"kb"}, {None}]

    def test_registered_cost_hint_isolates_heavy_cells(self):
        """A kind whose cost hint exceeds the budget dispatches solo."""
        from repro.sim.pool import CHUNK_BUDGET, cell_cost, chunk_plan

        register_evaluation(
            "pool-heavy",
            params_cls=PoolParams,
            result_cls=PoolResult,
            subjects=("ok",),
            cell_cost=lambda params: 10 * CHUNK_BUDGET,
        )(run_pool_cell)
        try:
            heavy = self.items(4, kind="pool-heavy")
            assert cell_cost(heavy[0][1]) == 10 * CHUNK_BUDGET
            assert [len(c) for c in chunk_plan(heavy, 2)] == [1, 1, 1, 1]
        finally:
            EVALUATIONS.remove("pool-heavy")

    def test_unknown_kind_costs_one_unit(self):
        from repro.sim.pool import cell_cost

        assert cell_cost(self.items(1)[0][1]) == 1.0

    @pytest.mark.parametrize("engine", ["scalar", "auto"])
    def test_chunked_runs_are_bit_identical(self, engine, tmp_path):
        """Serial and chunked pooled runs produce the same result JSON
        and the same store entries, on both engines."""
        spec = dataclasses.replace(
            SPEC,
            mitigations=["rrs", "srs"],
            base_params=dataclasses.replace(SPEC.base_params, engine=engine),
        )
        runs = {}
        stores = {}
        for label, pool in (
            ("serial", SerialPool()),
            ("chunked", ProcessPool(2)),
        ):
            store_dir = tmp_path / label
            runs[label] = run_grid(
                spec, store=str(store_dir), pool=pool
            ).to_json()
            stores[label] = {
                name: (store_dir / name).read_text()
                for name in entry_files(store_dir)
            }
        assert runs["chunked"] == runs["serial"]
        assert stores["chunked"] == stores["serial"]

    def test_run_stats_report_chunks(self, flaky_kind, tmp_path):
        ok_only = dataclasses.replace(flaky_kind, mitigations=["ok", "also-ok"])
        pooled = run_grid(ok_only, pool=ProcessPool(2))
        assert pooled.run_stats.chunks >= 1
        assert pooled.run_stats.workers == 2
        serial = run_grid(ok_only, max_workers=1)
        assert serial.run_stats.chunks is None
        assert serial.run_stats.workers == 1

    def test_partial_chunk_failure_records_prefix(self, flaky_kind, tmp_path):
        """When a cell mid-chunk raises, the chunk's completed prefix
        still reaches the store; the rest of the chunk reruns later."""
        store_dir = tmp_path / "store"
        with pytest.raises(RuntimeError, match="pool boom"):
            # One worker, unit costs: the whole [ok, boom, also-ok] plan
            # lands in a single chunk.
            run_grid(flaky_kind, store=str(store_dir), pool=ProcessPool(1))
        assert len(entry_files(store_dir)) == 1
        ok_only = dataclasses.replace(
            flaky_kind, mitigations=["ok", "also-ok"]
        )
        resumed = run_grid(ok_only, max_workers=1, store=str(store_dir))
        assert resumed.run_stats.reused == 1
        assert resumed.run_stats.executed == 1

    def test_interrupt_mid_chunk_keeps_prefix_and_shm_clean(
        self, interrupt_kind, tmp_path
    ):
        """A KeyboardInterrupt inside a chunk still delivers the chunk's
        completed prefix to the store, and no shm segment survives."""
        before = shm_names()
        spec = ExperimentSpec(
            kind="pool-interrupt",
            mitigations=["ok", "boom", "also-ok"],
            base_params=PoolParams(),
        )
        store_dir = tmp_path / "store"
        with pytest.raises(KeyboardInterrupt):
            run_grid(spec, store=str(store_dir), pool=ProcessPool(1))
        # Single chunk [ok, boom, also-ok]: ok completed before the
        # interrupt and must survive; the rest resumes later.
        assert len(entry_files(store_dir)) == 1
        assert shm_names() == before
        ok_only = dataclasses.replace(spec, mitigations=["ok", "also-ok"])
        resumed = run_grid(ok_only, max_workers=1, store=str(store_dir))
        assert resumed.run_stats.reused == 1
        assert resumed.run_stats.executed == 1
