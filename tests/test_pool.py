"""Tests for the execution backends (:mod:`repro.sim.pool`)."""

import dataclasses
import os
import time
from concurrent.futures import Future
from typing import ClassVar

import pytest

from repro.registry import EVALUATIONS, FIGURES, register_evaluation
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
from repro.sim import pool as pool_module
from repro.sim.pool import (
    LONG_CELL,
    SERIAL_BREAK_EVEN,
    CellOutcome,
    PoolTask,
    cell_cost,
    dispatch_order,
    pool_width,
    price,
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


def assert_one_cell_per_future(pool, pending, monkeypatch):
    """Run ``pool`` over ``pending`` on an executor that completes each
    submission at once without running it, and check that every cell
    went out as its own future and was recorded."""
    submitted, recorded = [], []

    class RecordingExecutor:
        def __init__(self, max_workers, initializer):
            pass

        def submit(self, fn, run_cell, cell):
            submitted.append((fn, cell))
            future = Future()
            future.set_result(CellOutcome(result=cell))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(pool_module, "ProcessPoolExecutor", RecordingExecutor)
    pool.run(PoolTask(pending, None, recorded.extend))
    assert [fn for fn, _ in submitted] == [pool_module._run_chunk] * len(
        pending
    )
    assert sorted(id(cell) for _, cell in submitted) == sorted(
        id(cell) for _, cell in pending
    )
    assert sorted(position for position, _ in recorded) == [
        position for position, _ in pending
    ]


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
    # An ok cell the executor hands a worker after the interrupt must
    # not finish before the coordinator drains.
    time.sleep(0.2)
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
def heavy_kind():
    """Three cells of a kind whose registered cost hint makes each one
    long (:data:`LONG_CELL`), far above the pool's break-even."""
    register_evaluation(
        "pool-heavy",
        params_cls=PoolParams,
        result_cls=PoolResult,
        subjects=("ok", "also-ok", "third-ok"),
        cell_cost=lambda cell: LONG_CELL,
    )(run_pool_cell)
    yield ExperimentSpec(
        kind="pool-heavy",
        mitigations=["ok", "also-ok", "third-ok"],
        base_params=PoolParams(),
    )
    EVALUATIONS.remove("pool-heavy")


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
        """The benchmark grid's real cell costs size it at the CPU count,
        one cell per future."""
        monkeypatch.setattr(pool_module, "available_cpu_count", lambda: 2)
        pending = list(enumerate(plan_cells(GRID_SWAP)))
        pool = sized_pool(PoolTask(pending, None, None))
        assert isinstance(pool, ProcessPool)
        assert pool.max_workers == 2
        assert_one_cell_per_future(pool, pending, monkeypatch)

    def test_explicit_workers_are_honoured(self, heavy_kind, monkeypatch):
        """max_workers caps the cost-sized width: three long cells get
        3 workers on 2 CPUs, 2 under --jobs 2 and none under --jobs 1,
        while cells below the floor stay in-process under --jobs 2."""
        monkeypatch.setattr(pool_module, "available_cpu_count", lambda: 2)
        assert run_grid(heavy_kind).run_stats.workers == 3
        assert run_grid(heavy_kind, max_workers=2).run_stats.workers == 2
        assert run_grid(heavy_kind, max_workers=1).run_stats.workers == 1
        assert run_grid(SPEC).run_stats.workers == 1
        assert run_grid(SPEC, max_workers=2).run_stats.workers == 1

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
        pricing or keying anything, and a serial run keys nothing."""
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
        pooled = results.run_stats.workers > 1
        assert len(keyed) == (len(cells) if pooled else 0)
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
        for label, pool in (
            ("serial", SerialPool()), ("parallel", ProcessPool(2))
        ):
            with pytest.raises(RuntimeError) as info:
                run_grid(flaky_kind, pool=pool, store=str(tmp_path / label))
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
                pool=SerialPool() if workers == 1 else ProcessPool(workers),
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
            run_grid(spec, store=str(store_dir), pool=ProcessPool(2))
        assert len(entry_files(store_dir)) == 2
        ok_only = dataclasses.replace(spec, mitigations=["ok", "also-ok"])
        resumed = run_grid(ok_only, max_workers=1, store=str(store_dir))
        assert resumed.run_stats.executed == 0
        assert resumed.run_stats.reused == 2

    def test_interrupt_cancels_queued_cells(self, interrupt_kind, tmp_path):
        """With one worker and the interrupting cell first, nothing
        completes before the interrupt: still-queued cells are
        cancelled (cancel_futures), the coordinator does not wait for
        the one the executor already handed on, and the store stays
        empty."""
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
        and pooled workers report their counts back with each cell."""
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
        # The drained cells' plane deltas still reach the pool.
        assert pool.plane_stats is not None
        assert shm_names() == before


@dataclasses.dataclass(frozen=True)
class StandInCell:
    """Minimal cell stand-in for cost-hint tests."""

    kind: str = "no-such-kind"
    workload: str = "w"
    mitigation: str = "m"
    params: object = None


class TestChunking:
    """One-cell dispatch: cost hints, bit-identity and the pooled
    failure paths against a real process pool."""

    def test_registered_cost_hint_isolates_heavy_cells(
        self, heavy_kind, monkeypatch
    ):
        """A kind's registered cost hint prices its cells, and cells
        above the floor leave the coordinator: each one its own
        future on a process pool."""
        monkeypatch.setattr(pool_module, "available_cpu_count", lambda: 2)
        cells = plan_cells(heavy_kind)
        assert [cell_cost(cell) for cell in cells] == [LONG_CELL] * 3
        pool = sized_pool(PoolTask(list(enumerate(cells)), None, None))
        assert isinstance(pool, ProcessPool)
        results = run_grid(heavy_kind, pool=pool)
        assert [r.mitigation for r in results] == ["ok", "also-ok", "third-ok"]

    def test_unknown_kind_costs_one_unit(self):
        assert cell_cost(StandInCell()) == 1.0

    @pytest.mark.parametrize("engine", ["scalar", "auto"])
    def test_chunked_runs_are_bit_identical(self, engine, tmp_path):
        """Serial and pooled runs produce the same result JSON and the
        same store entries, on both engines."""
        spec = dataclasses.replace(
            SPEC,
            mitigations=["rrs", "srs"],
            base_params=dataclasses.replace(SPEC.base_params, engine=engine),
        )
        runs = {}
        stores = {}
        for label, pool in (
            ("serial", SerialPool()),
            ("pooled", ProcessPool(2)),
        ):
            store_dir = tmp_path / label
            runs[label] = run_grid(
                spec, store=str(store_dir), pool=pool
            ).to_json()
            stores[label] = {
                name: (store_dir / name).read_text()
                for name in entry_files(store_dir)
            }
        assert runs["pooled"] == runs["serial"]
        assert stores["pooled"] == stores["serial"]

    def test_partial_chunk_failure_records_prefix(self, flaky_kind, tmp_path):
        """On one worker, a cell failing mid-plan does not stop the
        drain: the cells before and after it reach the store before
        the error propagates, so the resume recomputes nothing."""
        store_dir = tmp_path / "store"
        with pytest.raises(RuntimeError, match="pool boom"):
            run_grid(flaky_kind, store=str(store_dir), pool=ProcessPool(1))
        assert len(entry_files(store_dir)) == 2
        ok_only = dataclasses.replace(
            flaky_kind, mitigations=["ok", "also-ok"]
        )
        resumed = run_grid(ok_only, max_workers=1, store=str(store_dir))
        assert resumed.run_stats.reused == 2
        assert resumed.run_stats.executed == 0

    def test_interrupt_mid_chunk_keeps_prefix_and_shm_clean(
        self, interrupt_kind, tmp_path
    ):
        """A KeyboardInterrupt in a worker mid-plan still delivers the
        cells completed before it to the store, and no shm segment
        survives."""
        before = shm_names()
        spec = ExperimentSpec(
            kind="pool-interrupt",
            mitigations=["ok", "boom", "also-ok"],
            base_params=PoolParams(),
        )
        store_dir = tmp_path / "store"
        with pytest.raises(KeyboardInterrupt):
            run_grid(spec, store=str(store_dir), pool=ProcessPool(1))
        # One worker runs [ok, boom, also-ok] in turn: ok completed
        # before the interrupt and must survive; also-ok resumes later.
        assert len(entry_files(store_dir)) == 1
        assert shm_names() == before
        ok_only = dataclasses.replace(spec, mitigations=["ok", "also-ok"])
        resumed = run_grid(ok_only, max_workers=1, store=str(store_dir))
        assert resumed.run_stats.reused == 1
        assert resumed.run_stats.executed == 1


#: The dispatch census on 2 CPUs: each ``perf`` figure's one grid runs
#: 2 workers, the other figures' grids run at these widths (fig06's
#: curves then its Monte-Carlo grid; half-double's double-sided rig
#: then its two half-double grids), and every other grid is serial.
PERF_FIGURES = {"fig01b", "fig04", "fig12", "fig14", "fig15", "fig16"}
POOLED_GRIDS = {"fig06": [1, 3], "motiv-half-double": [1, 2, 2]}


class TestDispatchCensus:
    """Every registered report grid, priced on 2 CPUs at the proxy
    (3000 x 2) and default (25000 x 4) report scales: each one's
    serial-or-pooled choice and width, one cell per future, and no grid
    straddling the floor."""

    @staticmethod
    def grids(requests, cores):
        """``(figure, kind, pending cells)`` of every report grid."""
        from repro.report.planner import build_figure
        from repro.report.spec import ReportConfig

        config = ReportConfig(requests=requests, cores=cores)
        for name in FIGURES.names():
            _, figure = build_figure(name, config)
            for spec in figure.specs:
                yield name, spec.kind, list(enumerate(plan_cells(spec)))

    @pytest.mark.parametrize(
        "requests, cores", [(3000, 2), (25_000, 4)], ids=["proxy", "default"]
    )
    def test_report_grids(self, monkeypatch, requests, cores):
        monkeypatch.setattr(pool_module, "available_cpu_count", lambda: 2)
        widths, perf = {}, set()
        for name, kind, pending in self.grids(requests, cores):
            costs = list(price(pending).values())
            # No grid mixes cells below and above the floor.
            above = [cost >= SERIAL_BREAK_EVEN for cost in costs]
            assert all(above) or not any(above), (name, sorted(set(costs)))
            if kind == "perf":
                perf.add(name)
                # Proxy-scale perf cells cost 18 000 units: a cost-hint
                # retune that drops them below the floor must fail here
                # rather than silently serialize every perf figure.
                assert min(costs) >= SERIAL_BREAK_EVEN, (name, min(costs))
            pool = sized_pool(PoolTask(pending, None, None))
            if isinstance(pool, ProcessPool):
                assert_one_cell_per_future(pool, pending, monkeypatch)
            else:
                assert isinstance(pool, SerialPool)
            widths.setdefault(name, []).append(pool.max_workers)
        assert perf == PERF_FIGURES
        expected = {name: [1] * len(got) for name, got in widths.items()}
        expected.update(POOLED_GRIDS)
        expected.update({name: [2] for name in PERF_FIGURES})
        assert widths == expected
