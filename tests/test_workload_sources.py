"""Workload-name resolution, trace replay, and record→replay determinism."""

import numpy as np
import pytest

from repro.sim import ExperimentSpec, SimulationParams, record_workload, run_grid
from repro.sim.experiment import resolve_workload
from repro.sim.simulator import PerformanceSimulation
from repro.workloads.sources import TraceWorkload
from repro.workloads.suites import WorkloadSpec


PARAMS = SimulationParams(num_cores=2, requests_per_core=1200, time_scale=32)


class TestResolution:
    def test_plain_name_resolves_to_suite_spec(self):
        spec = resolve_workload("gcc")
        assert isinstance(spec, WorkloadSpec) and spec.name == "gcc"

    def test_synthetic_prefix_equivalent_to_plain_name(self):
        assert resolve_workload("synthetic:gcc") is resolve_workload("gcc")

    def test_trace_prefix_resolves_to_trace_workload(self):
        workload = resolve_workload("trace:/some/dir")
        assert isinstance(workload, TraceWorkload)
        assert workload.path == "/some/dir"
        assert workload.name == "trace:/some/dir"
        assert workload.suite == "TRACE"

    def test_unknown_prefix_raises_with_options(self):
        """A one-line error naming the string and both prefixes."""
        with pytest.raises(ValueError) as error:
            resolve_workload("bogus:x")
        message = str(error.value)
        assert "\n" not in message
        assert "'bogus:x'" in message
        assert "'synthetic'" in message and "'trace'" in message

    def test_unknown_plain_name_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown workload"):
            resolve_workload("not-a-workload")


class TestTraceWorkloadFiles:
    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            TraceWorkload(path="/does/not/exist").core_files()

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no trace files"):
            TraceWorkload(path=str(tmp_path)).core_files()

    def test_natural_sort_orders_core10_after_core2(self, tmp_path):
        for i in (0, 2, 10):
            (tmp_path / f"core{i}.trace").write_text("0 R 0x0\n")
        files = TraceWorkload(path=str(tmp_path)).core_files()
        assert [f.rsplit("/", 1)[-1] for f in files] == [
            "core0.trace", "core2.trace", "core10.trace",
        ]

    def test_single_file_serves_every_core(self, tmp_path):
        path = tmp_path / "only.trace"
        path.write_text("1 R 0x40\n2 W 0x80\n")
        workload = TraceWorkload(path=str(path))
        org = PARAMS.make_organization()
        a = workload.arrays_for_core(0, PARAMS, org)
        b = workload.arrays_for_core(3, PARAMS, org)
        assert a.equals(b) and len(a) == 2

    def test_requests_per_core_truncates_long_recordings(self, tmp_path):
        record_workload(resolve_workload("povray"), PARAMS, out_dir=str(tmp_path))
        short = SimulationParams(num_cores=2, requests_per_core=100, time_scale=32)
        workload = TraceWorkload(path=str(tmp_path))
        arrays = workload.arrays_for_core(0, short, short.make_organization())
        assert len(arrays) == 100


class TestRecordReplay:
    def test_recorded_arrays_match_synthetic_exactly(self, tmp_path):
        workload = resolve_workload("gcc")
        paths = record_workload(workload, PARAMS, out_dir=str(tmp_path))
        assert len(paths) == PARAMS.num_cores
        replay = TraceWorkload(path=str(tmp_path))
        org = PARAMS.make_organization()
        for core_id in range(PARAMS.num_cores):
            original = workload.arrays_for_core(core_id, PARAMS, org)
            replayed = replay.arrays_for_core(core_id, PARAMS, org)
            assert original.equals(replayed)

    def test_gzip_recording_replays_identically(self, tmp_path):
        workload = resolve_workload("povray")
        paths = record_workload(
            workload, PARAMS, out_dir=str(tmp_path), compress=True
        )
        assert all(p.endswith(".gz") for p in paths)
        replay = TraceWorkload(path=str(tmp_path))
        org = PARAMS.make_organization()
        assert workload.arrays_for_core(0, PARAMS, org).equals(
            replay.arrays_for_core(0, PARAMS, org)
        )

    def test_replay_reproduces_swaps_and_slowdown(self, tmp_path):
        """The acceptance-criterion determinism test: a trace recorded from
        a synthetic workload replays to the same swap/slowdown numbers."""
        workload = resolve_workload("gcc")
        record_workload(workload, PARAMS, out_dir=str(tmp_path))

        original = PerformanceSimulation(workload, "rrs", PARAMS).run()
        replayed = PerformanceSimulation(
            resolve_workload(f"trace:{tmp_path}"), "rrs", PARAMS
        ).run()

        assert original.swaps > 0  # gcc actually exercises the mitigation
        assert replayed.swaps == original.swaps
        assert replayed.sum_ipc == pytest.approx(original.sum_ipc, abs=0.0)
        assert replayed.mitigation_busy_ns == original.mitigation_busy_ns

    def test_replay_through_grid_engine(self, tmp_path):
        record_workload(resolve_workload("povray"), PARAMS, out_dir=str(tmp_path))
        spec = ExperimentSpec(
            workloads=[f"trace:{tmp_path}"],
            mitigations=["rrs"],
            base_params=PARAMS,
        )
        results = run_grid(spec, max_workers=1)
        assert set(results.workloads) == {f"trace:{tmp_path}"}
        (rrs,) = [r for r in results if r.mitigation == "rrs"]
        assert rrs.suite == "TRACE"
        assert 0.0 < results.normalized(rrs) <= 1.5
