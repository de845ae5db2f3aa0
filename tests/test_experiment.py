"""Tests for the declarative Experiment API and the parallel grid engine."""

import dataclasses
from types import SimpleNamespace

import pytest

import repro.sim.experiment as experiment
from repro.sim.experiment import (
    ExperimentCell,
    ExperimentSpec,
    ResultSet,
    baseline_view,
    plan_cells,
    resolve_workload,
    run_grid,
)
from repro.sim.pool import ProcessPool
from repro.sim.results import geometric_mean, normalized_performance
from repro.sim.simulator import PerformanceSimulation, SimulationParams

FAST = SimulationParams(
    trh=1200, num_cores=2, requests_per_core=3000, time_scale=32, seed=11
)


class TestSpecExpansion:
    def test_param_grid_cross_product(self):
        spec = ExperimentSpec(
            workloads=["gcc"],
            mitigations=["rrs"],
            base_params=FAST,
            grid={"trh": [4800, 1200], "tracker": ["misra-gries", "hydra"]},
        )
        combos = spec.param_grid()
        assert len(combos) == 4
        assert {(p.trh, p.tracker) for p in combos} == {
            (4800, "misra-gries"), (4800, "hydra"),
            (1200, "misra-gries"), (1200, "hydra"),
        }
        # Non-axis fields ride along from base_params (dataclasses.replace).
        assert all(p.requests_per_core == FAST.requests_per_core for p in combos)
        assert all(p.seed == FAST.seed for p in combos)

    def test_cells_cover_workloads_and_mitigations(self):
        spec = ExperimentSpec(
            workloads=["gcc", "lbm"],
            mitigations=["rrs", "scale-srs"],
            base_params=FAST,
            grid={"trh": [4800, 1200]},
        )
        cells = spec.cells()
        assert len(cells) == 2 * 2 * 2
        assert {(c.workload, c.mitigation, c.params.trh) for c in cells} == {
            (w, m, t)
            for w in ("gcc", "lbm")
            for m in ("rrs", "scale-srs")
            for t in (4800, 1200)
        }

    def test_baseline_in_mitigations_not_duplicated(self):
        spec = ExperimentSpec(
            workloads=["gcc"], mitigations=["baseline", "rrs"], base_params=FAST
        )
        assert spec.mitigation_names() == ["rrs"]

    def test_unknown_grid_axis_rejected(self):
        spec = ExperimentSpec(
            workloads=["gcc"], mitigations=["rrs"], grid={"not_a_field": [1]}
        )
        with pytest.raises(ValueError, match="unknown grid axis"):
            spec.validate()

    def test_empty_axis_rejected(self):
        spec = ExperimentSpec(
            workloads=["gcc"], mitigations=["rrs"], grid={"trh": []}
        )
        with pytest.raises(ValueError, match="no values"):
            spec.validate()

    def test_unknown_mitigation_rejected_before_running(self):
        spec = ExperimentSpec(workloads=["gcc"], mitigations=["not-a-design"])
        with pytest.raises(ValueError, match="unknown mitigation"):
            spec.validate()

    def test_unknown_workload_rejected(self):
        spec = ExperimentSpec(workloads=["not-a-benchmark"], mitigations=["rrs"])
        with pytest.raises(KeyError):
            spec.validate()

    @pytest.mark.parametrize("kind", ["perf", "security"])
    def test_non_string_workload_rejected(self, kind):
        spec = ExperimentSpec(
            kind=kind,
            workloads=[resolve_workload("gcc")],
            mitigations=["rrs"],
        )
        with pytest.raises(ValueError, match="not WorkloadSpec") as error:
            spec.validate()
        assert "\n" not in str(error.value)

    def test_repeated_workloads_plan_one_set_of_cells(self):
        """`gcc`, `synthetic:gcc` and a repeated `gcc` are one workload."""
        spec = ExperimentSpec(
            workloads=["gcc", "synthetic:gcc", "lbm", "gcc"],
            mitigations=["rrs"],
            base_params=FAST,
        )
        cells = plan_cells(spec)
        assert [(c.workload, c.mitigation) for c in cells] == [
            ("gcc", "baseline"), ("lbm", "baseline"),
            ("gcc", "rrs"), ("lbm", "rrs"),
        ]

    def test_repeated_axis_values_plan_each_point_once(self):
        spec = ExperimentSpec(
            workloads=["gcc"],
            mitigations=["rrs"],
            base_params=FAST,
            grid={"trh": [2400, 1200, 2400, 1200], "swap_rate": [6, 6.0]},
        )
        assert [p.trh for p in spec.param_grid()] == [2400, 1200]
        assert [c.params.trh for c in spec.cells()] == [2400, 1200]
        assert len(plan_cells(spec)) == 1 + 2

    def test_repeated_values_plan_each_cell_once_for_every_kind(self):
        spec = ExperimentSpec(
            kind="security",
            workloads=["a", "a"],
            mitigations=["rrs", "rrs"],
            grid={"trh": [4800, 4800], "swap_rate": [6, 6]},
        )
        cells = plan_cells(spec)
        assert [(c.workload, c.mitigation, c.params.trh) for c in cells] == [
            ("a", "rrs", 4800)
        ]

    def test_baseline_only_experiment_still_runs(self):
        results = run_grid(
            ExperimentSpec(
                workloads=["povray"],
                mitigations=["baseline"],
                base_params=dataclasses.replace(FAST, requests_per_core=1500),
            ),
            max_workers=1,
        )
        assert len(results) == 1
        assert results.results[0].mitigation == "baseline"
        assert results.results[0].sum_ipc > 0


class TestBaselineDedup:
    def test_baseline_view_resets_mitigation_fields_only(self):
        params = dataclasses.replace(
            FAST, trh=4800, swap_rate=8.0, tracker="hydra"
        )
        view = baseline_view(params)
        defaults = SimulationParams()
        assert view.trh == defaults.trh
        assert view.swap_rate == defaults.swap_rate
        assert view.tracker == defaults.tracker
        # Everything that shapes a baseline simulation is preserved.
        assert view.seed == params.seed
        assert view.num_cores == params.num_cores
        assert view.requests_per_core == params.requests_per_core
        assert view.time_scale == params.time_scale

    def test_baseline_for_matches_on_baseline_view(self):
        """The first baseline with an equal baseline view wins; a
        baseline without params is the fallback, used only when no
        baseline matches."""
        def record(mitigation, params, workload="gcc"):
            return SimpleNamespace(
                kind="perf", workload=workload, mitigation=mitigation,
                params=params,
            )

        seed_11 = dataclasses.replace(FAST, seed=11)
        seed_12 = dataclasses.replace(FAST, seed=12)
        loose = record("baseline", None)
        other_workload = record("baseline", seed_12, workload="lbm")
        first = record("baseline", dataclasses.replace(seed_12, trh=4800))
        second = record("baseline", dataclasses.replace(seed_12, engine="auto"))
        results = ResultSet(
            [loose, other_workload, record("baseline", seed_11), first, second]
        )
        swap = dataclasses.replace(seed_12, trh=1200, tracker="hydra")
        assert results.baseline_for(record("rrs", swap)) is first
        assert results.baseline_for(
            record("rrs", dataclasses.replace(FAST, seed=13))
        ) is loose
        assert ResultSet([loose, second]).baseline_for(
            record("rrs", seed_12)
        ) is second

    def test_trh_sweep_plans_one_baseline_per_workload(self):
        spec = ExperimentSpec(
            workloads=["gcc", "lbm"],
            mitigations=["rrs"],
            base_params=FAST,
            grid={"trh": [4800, 2400, 1200]},
        )
        jobs = plan_cells(spec)
        baselines = [c for c in jobs if c.mitigation == "baseline"]
        assert len(baselines) == 2  # one per workload, not one per TRH
        assert {c.workload for c in baselines} == {"gcc", "lbm"}
        assert len(jobs) == 2 + 2 * 3

    def test_trh_sweep_runs_baseline_exactly_once_per_workload(self, monkeypatch):
        """The satellite requirement: a 3-point TRH sweep must *execute*
        the baseline once per workload."""
        runs = []
        original = experiment._run_cell

        def counting(cell):
            runs.append((cell.workload, cell.mitigation))
            return original(cell)

        monkeypatch.setattr(experiment, "_run_cell", counting)
        spec = ExperimentSpec(
            workloads=["povray"],
            mitigations=["rrs"],
            base_params=FAST,
            grid={"trh": [4800, 2400, 1200]},
        )
        results = run_grid(spec, max_workers=1)
        assert runs.count(("povray", "baseline")) == 1
        assert runs.count(("povray", "rrs")) == 3
        # ...and every sweep point still normalizes against it.
        assert set(results.sweep("povray", "rrs")) == {4800, 2400, 1200}

    def test_distinct_seeds_keep_distinct_baselines(self):
        spec = ExperimentSpec(
            workloads=["povray"],
            mitigations=["rrs"],
            base_params=FAST,
            grid={"seed": [11, 12]},
        )
        jobs = plan_cells(spec)
        baselines = [c for c in jobs if c.mitigation == "baseline"]
        assert len(baselines) == 2  # seed shapes the trace: no dedup


class TestEngineParity:
    def test_grid_matches_legacy_compare(self):
        """Acceptance: the engine reproduces a direct simulation's
        normalized numbers."""
        results = run_grid(
            ExperimentSpec(
                workloads=["gcc"], mitigations=["rrs"], base_params=FAST
            ),
            max_workers=1,
        )
        gcc = resolve_workload("gcc")
        expected = normalized_performance(
            PerformanceSimulation(gcc, "baseline", FAST).run(),
            PerformanceSimulation(gcc, "rrs", FAST).run(),
        )
        assert results.normalized_table()["gcc"]["rrs"] == expected

    def test_parallel_equals_serial(self):
        spec = ExperimentSpec(
            workloads=["povray"],
            mitigations=["rrs"],
            base_params=dataclasses.replace(FAST, requests_per_core=1500),
            grid={"trh": [2400, 1200]},
        )
        serial = run_grid(spec, max_workers=1)
        parallel = run_grid(spec, pool=ProcessPool(2))
        assert serial.to_csv() == parallel.to_csv()

    def test_progress_callback_sees_every_job(self):
        seen = []
        spec = ExperimentSpec(
            workloads=["povray"], mitigations=["rrs"], base_params=FAST
        )
        run_grid(spec, max_workers=1, progress=lambda d, t, r: seen.append((d, t)))
        assert seen == [(1, 2), (2, 2)]


class TestResultSet:
    @pytest.fixture(scope="class")
    def results(self):
        spec = ExperimentSpec(
            workloads=["gcc", "lbm"],
            mitigations=["rrs", "scale-srs"],
            base_params=FAST,
            grid={"trh": [2400, 1200]},
        )
        return run_grid(spec, max_workers=1)

    def test_lengths_and_properties(self, results):
        assert len(results) == 2 + 2 * 2 * 2
        assert results.workloads == ["gcc", "lbm"]
        assert results.mitigations == ["rrs", "scale-srs"]
        assert {r.trh for r in results if r.mitigation != "baseline"} == {
            2400, 1200,
        }

    def test_filter_keeps_baselines(self, results):
        subset = results.filter(trh=1200, mitigation="rrs")
        non_base = [r for r in subset if r.mitigation != "baseline"]
        assert len(non_base) == 2
        # Normalization still works after filtering.
        table = subset.normalized_table()
        assert set(table) == {"gcc", "lbm"}
        assert set(table["gcc"]) == {"rrs"}

    def test_normalized_table_requires_unique_points(self, results):
        with pytest.raises(ValueError, match="filter"):
            results.normalized_table()

    def test_geomean_matches_manual(self, results):
        at_1200 = results.filter(trh=1200)
        table = at_1200.normalized_table()
        manual = geometric_mean([table["gcc"]["rrs"], table["lbm"]["rrs"]])
        assert at_1200.suite_geomeans()["ALL"]["rrs"] == pytest.approx(manual)

    def test_suite_geomeans_has_all_row(self, results):
        means = results.filter(trh=1200).suite_geomeans()
        assert "ALL" in means
        assert set(means["ALL"]) == {"rrs", "scale-srs"}

    def test_json_round_trip(self, results):
        reloaded = ResultSet.from_json(results.to_json())
        assert len(reloaded) == len(results)
        assert (
            reloaded.filter(trh=1200).normalized_table()
            == results.filter(trh=1200).normalized_table()
        )
        # Parameter records survive, enabling baseline pairing.
        assert all(r.params is not None for r in reloaded)
        assert reloaded.results[0].params == results.results[0].params

    def test_csv_export_shape(self, results):
        lines = results.to_csv().strip().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["workload", "suite", "mitigation", "trh"]
        assert "normalized_perf" in header
        assert len(lines) == 1 + len(results)

    def test_save_and_load(self, results, tmp_path):
        path = tmp_path / "results.json"
        results.save(str(path))
        assert ResultSet.load(str(path)).to_csv() == results.to_csv()

    def test_baseline_lookup_failure_is_loud(self, results):
        # A set holding mitigation results without their baselines.
        results = ResultSet([r for r in results if r.mitigation != "baseline"])
        only = results.results[0]
        with pytest.raises(LookupError, match="baseline"):
            results.normalized(only)
