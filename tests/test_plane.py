"""Tests for the workload plane (:mod:`repro.workloads.plane`).

The plane's contract has three legs, each pinned here:

- **keys** — the cache key mirrors the store's fingerprint-free digest
  ingredients, folds ``store_fingerprint()`` in for file-backed
  workloads (re-recording invalidates), and refuses to key ad-hoc
  workload objects (they can never alias a cached entry);
- **bit-identity** — the plane serves exactly what the direct
  per-core ``arrays_for_core`` loop generates, and a grid run produces
  byte-identical results from cold caches, warm caches and a process
  pool, on both engines;
- **accounting** — every executed ``perf`` cell is one generation or
  one trace hit, serial or pooled, and cached traces are read-only.
"""

import dataclasses
import time

import numpy as np
import pytest

from repro.cpu.core import TraceCore
from repro.sim.experiment import (
    ExperimentSpec,
    resolve_workload,
    run_grid,
)
from repro.sim.pool import ProcessPool, SerialPool
from repro.sim.recorder import record_workload
from repro.sim.simulator import PerformanceSimulation, SimulationParams
from repro.workloads import plane
from repro.workloads.columnar import ColumnarTrace

PARAMS = SimulationParams(
    trh=1200, num_cores=2, requests_per_core=600, time_scale=32
)


def small_spec(workload="povray", **overrides):
    return ExperimentSpec(
        workloads=[workload],
        mitigations=["rrs", "srs"],
        base_params=dataclasses.replace(PARAMS, **overrides),
    )


def record_rate_trace(tmp_path, requests=3000):
    """A single-file (rate-mode) recording every core replays."""
    out = tmp_path / "recorded"
    record_workload(
        resolve_workload("gcc"),
        SimulationParams(num_cores=1, requests_per_core=requests),
        out_dir=str(out),
    )
    return str(out)


def count_trace_loads(monkeypatch):
    """Record the path of every trace-file parse a replay makes."""
    from repro.workloads import sources

    loads = []
    original = sources.load_trace_columns

    def counting(path, *args, **kwargs):
        loads.append(path)
        return original(path, *args, **kwargs)

    monkeypatch.setattr(sources, "load_trace_columns", counting)
    return loads


class TestWorkloadKey:
    def test_stable_and_generation_sensitive(self):
        spec = resolve_workload("povray")
        org = PARAMS.make_organization()
        key = plane.workload_key(spec, PARAMS, org)
        assert key == plane.workload_key(spec, PARAMS, org)
        assert key != plane.workload_key(
            spec, dataclasses.replace(PARAMS, seed=1), org
        )
        assert key != plane.workload_key(
            spec, dataclasses.replace(PARAMS, requests_per_core=601), org
        )
        assert key != plane.workload_key(
            resolve_workload("gcc"), PARAMS, org
        )

    def test_trace_key_folds_store_fingerprint(self, tmp_path):
        """Regression: re-recording a trace under the same path must
        change the plane key (same invalidation the store uses)."""
        trace_dir = record_rate_trace(tmp_path)
        workload = resolve_workload(f"trace:{trace_dir}")
        org = PARAMS.make_organization()
        before = plane.workload_key(workload, PARAMS, org)
        assert before is not None
        time.sleep(0.01)  # ensure a distinct mtime_ns on coarse clocks
        record_workload(
            resolve_workload("povray"),
            SimulationParams(num_cores=1, requests_per_core=3000),
            out_dir=trace_dir,
        )
        after = plane.workload_key(workload, PARAMS, org)
        assert after is not None
        assert before != after

    def test_rerecorded_trace_regenerates(self, tmp_path):
        """The in-process cache must not serve stale bytes after the
        backing file changed."""
        trace_dir = record_rate_trace(tmp_path)
        workload = resolve_workload(f"trace:{trace_dir}")
        org = PARAMS.make_organization()
        first = plane.traces_for(workload, PARAMS, org)
        time.sleep(0.01)
        record_workload(
            resolve_workload("povray"),
            SimulationParams(num_cores=1, requests_per_core=3000),
            out_dir=trace_dir,
        )
        second = plane.traces_for(workload, PARAMS, org)
        assert not first[0].equals(second[0])

    def test_missing_trace_keys_to_none(self, tmp_path):
        workload = resolve_workload(f"trace:{tmp_path / 'nope'}")
        assert (
            plane.workload_key(workload, PARAMS, PARAMS.make_organization())
            is None
        )

    def test_adhoc_workload_is_uncacheable(self):
        class AdHoc:
            def arrays_for_core(self, core_id, params, organization):
                return ColumnarTrace.empty()

        org = PARAMS.make_organization()
        workload = AdHoc()
        assert plane.workload_key(workload, PARAMS, org) is None
        first = plane.traces_for(workload, PARAMS, org)
        second = plane.traces_for(workload, PARAMS, org)
        assert first[0] is not second[0]
        assert not plane.local_stats()


class TestTracesFor:
    @pytest.mark.parametrize("source", ["synthetic", "trace"])
    def test_matches_direct_generation(self, source, tmp_path):
        """The plane returns exactly the reference generator's arrays."""
        name = "povray" if source == "synthetic" else (
            f"trace:{record_rate_trace(tmp_path)}"
        )
        workload = resolve_workload(name)
        org = PARAMS.make_organization()
        direct = [
            workload.arrays_for_core(core_id, PARAMS, org)
            for core_id in range(PARAMS.num_cores)
        ]
        for _ in range(2):  # generated, then served from the cache
            served = plane.traces_for(workload, PARAMS, org)
            assert len(served) == len(direct)
            assert all(a.equals(b) for a, b in zip(served, direct))
        stats = plane.local_stats()
        assert (stats.generated, stats.trace_hits) == (1, 1)

    def test_memoizes_within_a_process(self):
        spec = resolve_workload("povray")
        org = PARAMS.make_organization()
        first = plane.traces_for(spec, PARAMS, org)
        second = plane.traces_for(spec, PARAMS, org)
        assert all(a is b for a, b in zip(first, second))
        stats = plane.local_stats()
        assert stats.generated == 1
        assert stats.trace_hits == 1

    def test_plane_holds_one_workload(self):
        """A new workload replaces the slot: A, B, then A again
        materializes three times."""
        org = PARAMS.make_organization()
        for name in ("povray", "gcc", "povray"):
            plane.traces_for(resolve_workload(name), PARAMS, org)
        stats = plane.local_stats()
        assert (stats.generated, stats.trace_hits) == (3, 0)

    def test_rate_mode_decodes_once(self, tmp_path, monkeypatch):
        """A single-file recording is parsed and decoded once for all
        cores, and the per-core traces share one array set."""
        trace_dir = record_rate_trace(tmp_path)
        loads = count_trace_loads(monkeypatch)
        workload = resolve_workload(f"trace:{trace_dir}")
        params = dataclasses.replace(PARAMS, num_cores=4)
        traces = plane.traces_for(workload, params, params.make_organization())
        assert len(traces) == 4
        assert all(t is traces[0] for t in traces)
        assert len(loads) == 1

    def test_serial_trace_grid_parses_each_file_once(self, tmp_path, monkeypatch):
        """Every cell of a serial grid over one per-core recording
        (several mitigations x TRHs) after the first is served by the
        plane, so each backing file is parsed exactly once."""
        out = tmp_path / "per-core"
        paths = record_workload(
            resolve_workload("gcc"),
            SimulationParams(num_cores=2, requests_per_core=600),
            out_dir=str(out),
        )
        loads = count_trace_loads(monkeypatch)
        spec = ExperimentSpec(
            workloads=[f"trace:{out}"],
            mitigations=["rrs", "srs", "scale-srs"],
            base_params=PARAMS,
            grid={"trh": [1200, 2400]},
        )
        results = run_grid(spec, pool=SerialPool())
        assert results.run_stats.executed > len(paths)
        assert sorted(loads) == sorted(paths)


class TestReadOnly:
    @pytest.mark.parametrize("source", ["synthetic", "trace"])
    def test_plane_served_columns_are_readonly(self, source, tmp_path):
        """Cached traces are shared by later cells: writing raises."""
        name = "povray" if source == "synthetic" else (
            f"trace:{record_rate_trace(tmp_path)}"
        )
        workload = resolve_workload(name)
        org = PARAMS.make_organization()
        for _ in range(2):  # generated, then served from the cache
            trace = plane.traces_for(workload, PARAMS, org)[0]
            for field in ColumnarTrace._FIELDS:
                with pytest.raises(ValueError):
                    getattr(trace, field)[0] = 1

    def test_uncacheable_traces_stay_writable(self):
        class AdHoc:
            def arrays_for_core(self, core_id, params, organization):
                return resolve_workload("povray").arrays_for_core(
                    core_id, params, organization
                )

        org = PARAMS.make_organization()
        trace = plane.traces_for(AdHoc(), PARAMS, org)[0]
        trace.gaps[0] = 1
        assert trace.gaps[0] == 1


class TestBitIdentity:
    @pytest.mark.parametrize("source", ["synthetic", "trace"])
    @pytest.mark.parametrize("engine", ["scalar", "auto"])
    def test_grid_identical_cold_warm_pooled(self, engine, source, tmp_path):
        """Cold caches, warm caches, a process pool (workers build the
        workload themselves) and a run after ``reset()`` all agree."""
        workload = "povray" if source == "synthetic" else (
            f"trace:{record_rate_trace(tmp_path, requests=1500)}"
        )
        spec = small_spec(workload=workload, engine=engine)
        cold = run_grid(spec, pool=SerialPool())
        warm = run_grid(spec, pool=SerialPool())
        assert cold.run_stats.workloads.generated == 1
        assert warm.run_stats.workloads.generated == 0
        pooled = run_grid(spec, pool=ProcessPool(2))
        stats = pooled.run_stats.workloads
        assert stats.generated + stats.trace_hits == pooled.run_stats.executed
        plane.reset()
        again = run_grid(spec, pool=SerialPool())
        reference = cold.to_json()
        assert warm.to_json() == reference
        assert pooled.to_json() == reference
        assert again.to_json() == reference

    def test_decode_cache_hits_under_batched_engine(self):
        """Back-to-back batched cells over one workload share a decode."""
        spec = resolve_workload("povray")
        params = dataclasses.replace(PARAMS, engine="auto")
        for mitigation in ("baseline", "rrs"):
            PerformanceSimulation(spec, mitigation, params).run()
        stats = plane.local_stats()
        assert stats.decode_hits >= 1
        assert stats.generated == 1


class TestDecodeSlot:
    def test_rate_mode_cores_share_one_decode(self, tmp_path):
        """Cores holding one trace object share one decoded list, kept
        in the slot for the next cell."""
        from repro.sim.engine.base import decode_traces

        params = dataclasses.replace(PARAMS, num_cores=4)
        workload = resolve_workload(f"trace:{record_rate_trace(tmp_path)}")
        simulation = PerformanceSimulation(workload, "baseline", params)
        cores = [
            TraceCore(core_id, simulation.config) for core_id in range(4)
        ]
        traces = plane.traces_for(
            workload, params, simulation.config.organization
        )
        first = decode_traces(cores, traces, simulation.memory)
        assert all(d is first[0] for d in first)
        assert plane.local_stats().decode_hits == 3
        second = decode_traces(cores, traces, simulation.memory)
        assert second[0] is first[0]
        assert plane.local_stats().decode_hits == 7

    def test_uncacheable_traces_decode_per_call(self):
        from repro.sim.engine.base import decode_traces

        simulation = PerformanceSimulation(
            resolve_workload("povray"), "baseline", PARAMS
        )
        cores = [TraceCore(0, simulation.config)]
        trace = resolve_workload("povray").arrays_for_core(
            0, PARAMS, simulation.config.organization
        )
        first = decode_traces(cores, [trace], simulation.memory)
        second = decode_traces(cores, [trace], simulation.memory)
        assert first[0] is not second[0]
        assert not plane.local_stats()


class TestFuzzUnderPlane:
    def test_fuzz_seeds_share_plane_caches(self):
        """Extra differential-fuzzer seeds stay scalar/batched
        bit-identical when the batched run reads the traces and decodes
        the scalar run cached (each seed starts from a cold plane)."""
        from test_engine_fuzz import check_seed

        for seed in (11, 12, 13):
            plane.reset()
            check_seed(seed)
