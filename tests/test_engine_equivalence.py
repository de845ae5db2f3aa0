"""Differential harness: the batched engine must be bit-identical to scalar.

The batched engine is a faster schedule of the same arithmetic, never a
different model — so for every registered mitigation, every tracker, and
both page policies, the two engines must produce *equal-to-the-last-bit*
``SimulationResult``s (IPC, swaps, pins, busy time, activation peaks,
per-core float clocks). Span-cut edge cases (refresh-window straddles,
write-queue watermarks, pinned rows, empty traces) get dedicated
scenarios, and the engine's span counters prove the fast path actually
engaged where it should.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cpu.core import TraceCore
from repro.dram.commands import PagePolicy
from repro.registry import MITIGATIONS, mitigation_names, tracker_names
from repro.sim.engine import (
    ENGINE_NAMES,
    BatchedEngine,
    ScalarEngine,
    make_engine,
    resolve_engine_name,
)
from repro.sim.experiment import resolve_workload, result_to_dict
from repro.sim.simulator import PerformanceSimulation, SimulationParams
from repro.workloads.columnar import ColumnarTrace
from repro.trackers.base import ExactTracker
from repro.trackers.hydra import HydraTracker
from repro.trackers.misra_gries import MisraGriesTracker

BASE = SimulationParams(
    num_cores=2,
    requests_per_core=1200,
    time_scale=64,
    rows_per_bank=16_384,
    trh=400,
)


class ArrayWorkload:
    """Ad-hoc workload source over explicit per-core columnar traces."""

    suite = "ADHOC"

    def __init__(self, name, traces):
        self.name = name
        self._traces = traces

    def arrays_for_core(self, core_id, params, organization):
        return self._traces[core_id]


def hammer_trace(records, rows, gap=8):
    """A single-bank read stream hammering ``rows`` round-robin."""
    return ColumnarTrace(
        gaps=np.full(records, gap, dtype=np.int64),
        is_write=np.zeros(records, dtype=bool),
        channel=np.zeros(records, dtype=np.int16),
        rank=np.zeros(records, dtype=np.int16),
        bank=np.zeros(records, dtype=np.int16),
        row=np.array(
            [rows[i % len(rows)] for i in range(records)], dtype=np.int32
        ),
        column=np.zeros(records, dtype=np.int32),
    )


def comparable(result):
    """Result as a dict with the parameter record (which names the
    engine) removed, so engine runs can be compared for equality."""
    data = result_to_dict(result)
    data.pop("params")
    return data


def run_both(workload, mitigation, params):
    """Run one cell under both engines; returns (scalar, batched, engine).
    ``workload`` is a name or a workload object."""
    spec = resolve_workload(workload) if isinstance(workload, str) else workload
    scalar = PerformanceSimulation(
        spec, mitigation, replace(params, engine="scalar")
    ).run()
    engine = BatchedEngine()
    batched = PerformanceSimulation(
        spec, mitigation, replace(params, engine="auto")
    ).run(engine=engine)
    return scalar, batched, engine


def matrix():
    """Every registered mitigation x tracker x page policy (tracker-free
    designs run once per policy)."""
    cases = []
    for mitigation in mitigation_names():
        trackers = (
            tracker_names()
            if MITIGATIONS.get(mitigation).uses_tracker
            else ("misra-gries",)
        )
        for tracker in trackers:
            for policy in (PagePolicy.CLOSED, PagePolicy.OPEN):
                cases.append(
                    pytest.param(
                        mitigation, tracker, policy,
                        id=f"{mitigation}-{tracker}-{policy.value}",
                    )
                )
    return cases


class TestBitIdentity:
    @pytest.mark.parametrize("mitigation,tracker,policy", matrix())
    def test_full_matrix(self, mitigation, tracker, policy):
        params = replace(BASE, tracker=tracker, policy=policy)
        scalar, batched, _ = run_both("gcc", mitigation, params)
        assert comparable(scalar) == comparable(batched)

    def test_identity_holds_on_memory_bound_workload(self):
        scalar, batched, _ = run_both("gups", "rrs", BASE)
        assert comparable(scalar) == comparable(batched)

    def test_single_core(self):
        params = replace(BASE, num_cores=1)
        scalar, batched, _ = run_both("lbm", "baseline", params)
        assert comparable(scalar) == comparable(batched)

    def test_empty_trace(self):
        workload = ArrayWorkload("empty", [ColumnarTrace.empty()])
        params = replace(BASE, num_cores=1)
        scalar, batched, engine = run_both(workload, "baseline", params)
        assert comparable(scalar) == comparable(batched)
        assert scalar.total_memory_accesses == 0
        assert engine.counters["fast_accesses"] == 0
        assert engine.counters["scalar_accesses"] == 0


class TestSpanCuts:
    """The four span-ending events, each provoked and checked."""

    def test_window_boundary_straddle(self):
        # A huge time_scale shrinks the refresh window so every core
        # straddles many boundaries; the straddling accesses take the
        # full path, everything else stays fused — and numbers match.
        params = replace(BASE, time_scale=2048, requests_per_core=3000)
        scalar, batched, engine = run_both("gcc", "baseline", params)
        assert comparable(scalar) == comparable(batched)
        assert engine.counters["window_rolls"] > 0
        assert engine.counters["fast_accesses"] > 0

    def test_write_queue_watermark(self):
        # gcc posts ~25% writes: watermark drains must fire and be
        # serviced inside the fused loop.
        scalar, batched, engine = run_both("gcc", "baseline", BASE)
        assert comparable(scalar) == comparable(batched)
        assert engine.counters["drains"] > 0
        assert engine.counters["fast_accesses"] > 0
        assert scalar.total_memory_accesses == (
            engine.counters["fast_accesses"]
            + engine.counters["scalar_accesses"]
        )

    def test_pinned_rows_fuse_as_llc_hits(self):
        # Scale-SRS pins hammered rows into the LLC. The fused loop
        # checks the live pinned-row view per access, so accesses to a
        # pinned row are absorbed *inside* the span (counted by
        # ``pinned_fast_hits``) instead of forcing the scalar path.
        workload = ArrayWorkload("hammer", [hammer_trace(6000, [5, 9])])
        params = replace(BASE, num_cores=1, trh=100)
        scalar, batched, engine = run_both(workload, "scale-srs", params)
        assert comparable(scalar) == comparable(batched)
        assert scalar.pins > 0, "scenario must actually pin rows"
        assert scalar.llc_pin_hits > 0
        assert engine.counters["pinned_fast_hits"] > 0
        assert engine.counters["fast_accesses"] > 0
        assert scalar.total_memory_accesses == (
            engine.counters["fast_accesses"]
            + engine.counters["scalar_accesses"]
        )

    def test_baseline_runs_fused(self):
        _, _, engine = run_both("povray", "baseline", BASE)
        assert engine.counters["scalar_accesses"] == 0
        assert engine.counters["fast_accesses"] > 0

    def test_horizon_exhaustion_hands_over_cleanly(self, monkeypatch):
        # A contract-conformant finite horizon that runs dry mid-run:
        # each bank grants 250 accesses once, then declares 0 forever.
        # The engine must fuse the first stretch, then hand the rest to
        # the scalar loop with every core's hoisted state written back.
        from repro.core.mitigation import BaselineMitigation

        def finite_once(self):
            # Granted for the engine's eligibility gate and its initial
            # recompute; dry from the first mid-run refresh onwards.
            calls = getattr(self, "_horizon_calls", 0)
            self._horizon_calls = calls + 1
            return 250 if calls < 2 else 0

        monkeypatch.setattr(BaselineMitigation, "batch_horizon", finite_once)
        scalar, batched, engine = run_both("gcc", "baseline", BASE)
        assert comparable(scalar) == comparable(batched)
        assert engine.counters["fast_accesses"] > 0
        assert engine.counters["scalar_accesses"] > 0
        assert engine.counters["horizon_refreshes"] >= 1

    @pytest.mark.parametrize("tracker", ["exact", "misra-gries"])
    def test_tracker_delegated_batching_end_to_end(self, tracker):
        # Register a test-only design that is both tracked and
        # batchable — an integration consumer of the deferred
        # observe_batch commit. Tracker ceilings saturate mid-window,
        # but the per-row rescue (row_headroom under batch_slack) keeps
        # the fused loop alive: saturated accesses go scoped one by
        # one, window rolls reset the ceilings, and fusing resumes
        # without ever dropping back to the driver.
        from repro.core.mitigation import BaselineMitigation
        from repro.registry import MITIGATIONS, register_mitigation

        name = "tracked-baseline-test"
        register_mitigation(
            name,
            description="test-only: tracked, batchable, never mitigates",
            uses_tracker=True,
            builder=lambda ctx: BaselineMitigation(ctx.bank, ctx.tracker),
        )(BaselineMitigation)
        try:
            params = replace(
                BASE, tracker=tracker, time_scale=2048, requests_per_core=3000
            )
            scalar, batched, engine = run_both("gcc", name, params)
            assert comparable(scalar) == comparable(batched)
            assert engine.counters["fast_accesses"] > 0
            assert engine.counters["scalar_accesses"] > 0
            assert engine.counters["window_rolls"] > 0
            # Deferred observations were committed with span proofs,
            # and horizon state was recomputed along the way.
            assert engine.counters["span_checks"] > 0
            assert engine.counters["horizon_refreshes"] > 0
            # The per-row rescue keeps the loop fused end to end.
            assert engine.counters["fused_entries"] == 1
        finally:
            MITIGATIONS.remove(name)

    def test_swap_cells_stay_mostly_fused(self):
        # The point of the batched swap path: a cell that actually
        # swaps must still fuse the majority of its accesses, with the
        # triggering accesses serviced scoped (single-bank write-back)
        # rather than by abandoning the fused loop.
        params = replace(BASE, tracker="exact")
        scalar, batched, engine = run_both("gcc", "rrs", params)
        assert comparable(scalar) == comparable(batched)
        assert scalar.swaps > 0, "scenario must actually swap"
        assert engine.counters["fast_accesses"] > (
            engine.counters["scalar_accesses"]
        )
        assert engine.counters["span_checks"] > 0

    def test_stale_horizon_recomputed_after_every_scoped_access(self):
        # Regression: a swap resets tracker state, so a horizon value
        # computed *before* a scoped excursion must never survive it —
        # the engine recomputes horizon/slack/quiet on every re-hoist.
        # A single-bank hammer maximises triggers per window, so a
        # stale horizon would admit over-threshold ACTs and break
        # bit-identity (or trip the engine's trigger assertion).
        workload = ArrayWorkload(
            "hammer", [hammer_trace(8000, [3, 7, 11, 13])]
        )
        params = replace(BASE, num_cores=1, trh=120, tracker="exact")
        scalar, batched, engine = run_both(workload, "rrs", params)
        assert comparable(scalar) == comparable(batched)
        assert scalar.swaps > 0, "scenario must actually swap"
        assert engine.counters["fast_accesses"] > 0
        assert engine.counters["scoped_accesses"] > 0
        assert engine.counters["horizon_refreshes"] >= (
            engine.counters["scoped_accesses"]
        )

    def test_engine_grid_axis_is_rejected(self):
        # Engines are bit-identical and a cell's identity drops the
        # engine, so an engine axis would plan one cell twice.
        from repro.sim.experiment import ExperimentSpec, plan_cells

        spec = ExperimentSpec(
            workloads=["gcc"],
            mitigations=["rrs"],
            base_params=BASE,
            grid={"engine": ["scalar", "auto"]},
        )
        with pytest.raises(ValueError, match="base_params.engine"):
            plan_cells(spec)

    def test_baseline_cells_keep_requested_engine(self):
        from repro.sim.experiment import ExperimentSpec, plan_cells

        spec = ExperimentSpec(
            workloads=["gcc"],
            mitigations=["rrs"],
            base_params=replace(BASE, engine="auto"),
        )
        cells = plan_cells(spec)
        baselines = [c for c in cells if c.mitigation == "baseline"]
        assert len(baselines) == 1
        assert baselines[0].params.engine == "auto"


class TestEngineSelection:
    def test_auto_picks_batched_for_baseline(self):
        assert resolve_engine_name("auto", "baseline", "misra-gries") == "batched"

    def test_auto_picks_batched_for_swap_designs(self):
        for mitigation in mitigation_names():
            for tracker in tracker_names():
                assert (
                    resolve_engine_name("auto", mitigation, tracker)
                    == "batched"
                )

    @pytest.mark.parametrize(
        "mitigation,tracker",
        [("rrs", "hydra"), ("aqua", "misra-gries"),
         ("blockhammer", "misra-gries")],
    )
    def test_auto_matches_scalar_where_nothing_fuses(
        self, mitigation, tracker
    ):
        # No bank of these cells can fuse (Hydra may cost DRAM time on
        # any observation; AQUA and BlockHammer grant no horizon), so
        # auto's batched engine runs the shared per-access step for
        # every access and must match scalar bit for bit.
        spec = resolve_workload("gcc")
        params = replace(BASE, tracker=tracker)
        scalar = PerformanceSimulation(spec, mitigation, params).run()
        engine = make_engine("auto")
        auto = PerformanceSimulation(
            spec, mitigation, replace(params, engine="auto")
        ).run(engine=engine)
        assert comparable(scalar) == comparable(auto)
        assert engine.counters["fast_accesses"] == 0
        assert engine.counters["scalar_accesses"] == (
            scalar.total_memory_accesses
        )

    def test_explicit_names_pass_through(self):
        assert resolve_engine_name("scalar", "baseline", "exact") == "scalar"
        assert resolve_engine_name("scalar", "rrs", "hydra") == "scalar"

    def test_unknown_engine_rejected(self):
        for name in ("vectorized", "batched"):
            with pytest.raises(ValueError, match="unknown engine"):
                resolve_engine_name(name, "baseline", "exact")

    def test_make_engine_builds_the_resolved_engine(self):
        assert isinstance(make_engine("auto"), BatchedEngine)
        assert isinstance(make_engine("scalar"), ScalarEngine)
        assert ENGINE_NAMES == ("scalar", "auto")

    def test_counters_reset_between_drives(self):
        engine = BatchedEngine()
        spec = resolve_workload("povray")
        params = replace(BASE, engine="auto")
        first = PerformanceSimulation(spec, "baseline", params).run(engine=engine)
        fast_first = engine.counters["fast_accesses"]
        PerformanceSimulation(spec, "baseline", params).run(engine=engine)
        assert engine.counters["fast_accesses"] == fast_first
        assert fast_first == first.total_memory_accesses


class TestBatchHooks:
    """The Mitigation/Tracker batching contract in isolation."""

    def rows(self, n=4000, universe=50, seed=7):
        rng = np.random.default_rng(seed)
        return rng.integers(0, universe, n).tolist()

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ExactTracker(64),
            lambda: MisraGriesTracker(64, 16),
            lambda: HydraTracker(64),
        ],
        ids=["exact", "misra-gries", "hydra"],
    )
    def test_observe_batch_equals_sequential_observes(self, factory):
        sequential, batched = factory(), factory()
        rows = self.rows()
        # Commit in safe chunks, exactly as the engine does: never more
        # than the declared horizon at a time (one by one when the
        # tracker declares none).
        position = 0
        for row in rows:
            sequential.observe(row)
        while position < len(rows):
            chunk = max(1, batched.batch_horizon())
            batched.observe_batch(rows[position:position + chunk])
            position += chunk
        assert sequential.observations == batched.observations
        assert sequential.triggers == batched.triggers
        for row in set(rows):
            assert sequential.count(row) == batched.count(row)
        if isinstance(sequential, MisraGriesTracker):
            self.assert_same_summary(sequential, batched)

    @staticmethod
    def assert_same_summary(sequential, batched):
        """Misra-Gries internals, in iteration order: the floor-pool
        ``pop`` that picks an eviction victim depends on the set's
        history, so equal counts alone do not pin it."""
        assert list(sequential._counts.items()) == list(batched._counts.items())
        assert list(sequential._floor_pool) == list(batched._floor_pool)
        assert list(sequential._rows_at_count.items()) == list(
            batched._rows_at_count.items()
        )
        assert sequential.spillover == batched.spillover
        assert sequential.spillover_increments == batched.spillover_increments

    def test_misra_gries_saturated_table_matches_sequential(self):
        """A universe far above the table size keeps the table full:
        arrivals evict floor-pool victims and raise the spillover, so
        victim order and the floor's rise are exercised throughout. The
        threshold sits above the spillover's reach, so every eviction
        runs on ``observe_batch``'s own path, not a delegated
        ``observe``."""
        sequential = MisraGriesTracker(4096, 16)
        batched = MisraGriesTracker(4096, 16)
        rows = self.rows(n=20000, universe=4000, seed=11)
        for row in rows:
            sequential.observe(row)
        position = 0
        while position < len(rows):
            chunk = max(1, batched.batch_horizon())
            batched.observe_batch(rows[position:position + chunk])
            position += chunk
        assert sequential.spillover_increments > 0
        assert sequential.observations == batched.observations == len(rows)
        assert sequential.triggers == batched.triggers == 0
        self.assert_same_summary(sequential, batched)
        sequential.check_invariants()

    @pytest.mark.parametrize(
        "factory",
        [lambda: ExactTracker(32), lambda: MisraGriesTracker(32, 8)],
        ids=["exact", "misra-gries"],
    )
    def test_horizon_never_admits_a_trigger(self, factory):
        tracker = factory()
        rows = self.rows(n=600, universe=6, seed=3)
        position = 0
        while position < len(rows):
            horizon = tracker.batch_horizon()
            for row in rows[position:position + max(1, horizon)]:
                observation = tracker.observe(row)
                if horizon > 0:
                    assert not observation.triggered, (
                        "trigger within a declared horizon"
                    )
                    assert observation.extra_dram_accesses == 0
            position += max(1, horizon)

    def test_hydra_declares_no_horizon(self):
        assert HydraTracker(64).batch_horizon() == 0

    def test_horizon_resets_with_the_window(self):
        tracker = ExactTracker(16)
        for _ in range(10):
            tracker.observe(3)
        assert tracker.batch_horizon() == 15 - 10
        tracker.end_window()
        assert tracker.batch_horizon() == 15
