"""Tests for the simulation layer: factories, results, simulator, runner."""

import pytest

from repro.core.rrs import RandomizedRowSwap
from repro.core.scale_srs import ScaleSecureRowSwap
from repro.core.srs import SecureRowSwap
from repro.cpu.core import CoreResult
from repro.dram.bank import Bank
from repro.dram.config import DRAMTiming
from repro.sim.factory import (
    make_mitigation_factory,
    make_tracker,
    swap_threshold,
)
from repro.sim.results import (
    SimulationResult,
    geometric_mean,
    normalized_performance,
    slowdown_percent,
)
from repro.sim.experiment import ExperimentSpec, ResultSet, resolve_workload, run_grid
from repro.sim.simulator import PerformanceSimulation, SimulationParams
from repro.trackers.hydra import HydraTracker
from repro.trackers.misra_gries import MisraGriesTracker
from repro.workloads.suites import ALL_WORKLOADS

FAST = SimulationParams(
    trh=1200, num_cores=2, requests_per_core=4000, time_scale=32, seed=11
)


def run_workload(name, mitigation, params):
    return PerformanceSimulation(resolve_workload(name), mitigation, params).run()


def compare_mitigations(name, mitigations, params):
    """The baseline plus each mitigation, keyed by name."""
    return {
        mitigation: run_workload(name, mitigation, params)
        for mitigation in ("baseline", *mitigations)
    }


class TestFactory:
    def test_swap_threshold(self):
        assert swap_threshold(1200, 6) == 200
        assert swap_threshold(1200, 3) == 400
        assert swap_threshold(10, 6) == 2  # floor at 2

    def test_tracker_construction(self):
        timing = DRAMTiming()
        assert isinstance(make_tracker("misra-gries", 200, timing), MisraGriesTracker)
        assert isinstance(make_tracker("hydra", 200, timing), HydraTracker)
        with pytest.raises(ValueError):
            make_tracker("nope", 200, timing)

    def test_misra_gries_sized_from_act_max(self):
        timing = DRAMTiming()
        tracker = make_tracker("misra-gries", 800, timing)
        assert tracker.num_entries == pytest.approx(1700, rel=0.02)

    def test_factory_builds_each_engine(self):
        timing = DRAMTiming(refresh_window=1e6)
        bank = Bank(1024, timing)
        for name, cls in (
            ("rrs", RandomizedRowSwap),
            ("srs", SecureRowSwap),
            ("scale-srs", ScaleSecureRowSwap),
        ):
            factory = make_mitigation_factory(name, trh=120, timing=timing)
            engine = factory(Bank(1024, timing), (0, 0, 0))
            assert isinstance(engine, cls)
        del bank

    def test_default_swap_rates(self):
        timing = DRAMTiming(refresh_window=1e6)
        rrs = make_mitigation_factory("rrs", trh=120, timing=timing)(
            Bank(1024, timing), (0, 0, 0)
        )
        scale = make_mitigation_factory("scale-srs", trh=120, timing=timing)(
            Bank(1024, timing), (0, 0, 0)
        )
        assert rrs.tracker.threshold == 20  # rate 6
        assert scale.tracker.threshold == 40  # rate 3

    def test_no_unswap_variant(self):
        timing = DRAMTiming(refresh_window=1e6)
        engine = make_mitigation_factory("rrs-no-unswap", trh=120, timing=timing)(
            Bank(1024, timing), (0, 0, 0)
        )
        assert isinstance(engine, RandomizedRowSwap)
        assert not engine.immediate_unswap

    def test_unknown_mitigation(self):
        with pytest.raises(ValueError):
            make_mitigation_factory("nope", trh=120, timing=DRAMTiming())


class TestResults:
    def _result(self, ipcs, **kwargs):
        cores = [
            CoreResult(i, 1000, 10, 5, 100.0, 320.0, ipc)
            for i, ipc in enumerate(ipcs)
        ]
        defaults = dict(
            workload="w", suite="S", mitigation="rrs", trh=1200,
            swap_rate=6.0, tracker="misra-gries", cores=cores,
        )
        defaults.update(kwargs)
        return SimulationResult(**defaults)

    def test_sum_ipc(self):
        assert self._result([1.0, 2.0]).sum_ipc == 3.0

    def test_normalized_performance(self):
        base = self._result([2.0])
        mit = self._result([1.5])
        assert normalized_performance(base, mit) == 0.75
        assert slowdown_percent(0.75) == 25.0

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([0.0])

    def test_group_by_suite(self):
        results = []
        for workload, suite, ipc in (("a", "S1", 1.8), ("b", "S1", 1.6), ("c", "S2", 2.0)):
            results.append(
                self._result([2.0], workload=workload, suite=suite, mitigation="baseline")
            )
            results.append(self._result([ipc], workload=workload, suite=suite))
        grouped = ResultSet(results).suite_geomeans()
        assert grouped["S2"]["rrs"] == 1.0
        assert grouped["S1"]["rrs"] == pytest.approx(geometric_mean([0.9, 0.8]))
        assert grouped["ALL"]["rrs"] == pytest.approx(geometric_mean([0.9, 0.8, 1.0]))

    def test_summary_string(self):
        text = self._result([1.0]).summary()
        assert "rrs" in text and "TRH=1200" in text


class TestSimulator:
    def test_scaled_timing_preserves_ratios(self):
        params = SimulationParams(time_scale=16)
        scaled = params.scaled_timing()
        base = DRAMTiming()
        assert scaled.refresh_window == base.refresh_window / 16
        assert scaled.t_swap == base.t_swap / 16
        assert scaled.t_swap / scaled.refresh_window == pytest.approx(
            base.t_swap / base.refresh_window
        )
        assert scaled.t_rc == base.t_rc  # demand timing untouched

    def test_scale_one_is_identity(self):
        assert SimulationParams(time_scale=1).scaled_timing() == DRAMTiming()

    def test_scaled_trh(self):
        assert SimulationParams(trh=1200, time_scale=32).scaled_trh == 38
        assert SimulationParams(trh=64, time_scale=32).scaled_trh == 8  # floor

    def test_baseline_run_produces_ipc(self):
        result = run_workload("povray", "baseline", FAST)
        assert result.sum_ipc > 0
        assert result.swaps == 0
        assert result.total_instructions > 0

    def test_deterministic_given_seed(self):
        a = run_workload("gcc", "rrs", FAST)
        b = run_workload("gcc", "rrs", FAST)
        assert a.sum_ipc == b.sum_ipc
        assert a.swaps == b.swaps

    def test_mitigations_slow_hot_workloads(self):
        results = compare_mitigations("gcc", ["rrs", "scale-srs"], FAST)
        base = results["baseline"]
        rrs = normalized_performance(base, results["rrs"])
        scale = normalized_performance(base, results["scale-srs"])
        assert rrs < 1.0
        assert scale < 1.005
        assert scale > rrs  # Scale-SRS cheaper than RRS

    def test_streaming_workload_unaffected(self):
        results = compare_mitigations("lbm", ["rrs"], FAST)
        normalized = normalized_performance(results["baseline"], results["rrs"])
        assert normalized == pytest.approx(1.0, abs=0.01)

    def test_mix_uses_different_profiles_per_core(self):
        spec = next(w for w in ALL_WORKLOADS if w.name == "mix1")
        sim = PerformanceSimulation(spec, "baseline", FAST)
        result = sim.run()
        # Different per-core profiles -> different instruction counts.
        instr = [c.instructions for c in result.cores]
        assert len(set(instr)) > 1

    def test_invalid_time_scale(self):
        with pytest.raises(ValueError):
            SimulationParams(time_scale=0).scaled_timing()

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            resolve_workload("not-a-benchmark")


class TestRunner:
    def test_sweep_trh_shape(self):
        spec = ExperimentSpec(
            workloads=["hmmer"],
            mitigations=["rrs"],
            base_params=FAST,
            grid={"trh": [4800, 1200]},
        )
        sweep = run_grid(spec, max_workers=1).sweep("hmmer", "rrs")
        assert set(sweep) == {4800, 1200}
        # Lower threshold -> more swaps -> worse (or equal) performance.
        assert sweep[1200] <= sweep[4800] + 0.02

    def test_compare_includes_baseline_once(self):
        spec = ExperimentSpec(
            workloads=["povray"], mitigations=["baseline", "rrs"],
            base_params=FAST,
        )
        results = run_grid(spec, max_workers=1)
        assert sorted(r.mitigation for r in results) == ["baseline", "rrs"]
