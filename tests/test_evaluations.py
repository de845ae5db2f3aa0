"""Tests for the evaluation-kind registry and the non-perf kinds."""

import dataclasses
import json
import math

import pytest

from repro.analysis.power import PowerModel
from repro.analysis.storage import StorageModel
from repro.attacks.analytical import AttackParameters
from repro.attacks.montecarlo import MonteCarloJuggernaut, derive_seed
from repro.registry import EVALUATIONS, register_evaluation
from repro.report.spec import model_spec
from repro.sim import (
    ExperimentSpec,
    HammerParams,
    ModelParams,
    ModelResult,
    ResultSet,
    SecurityParams,
    plan_cells,
    run_grid,
)
from repro.sim.evaluations import MODELS, TABLE_TRH_VALUES
from repro.sim.pool import cell_cost

SECURITY = ExperimentSpec(
    kind="security",
    mitigations=["rrs", "srs"],
    base_params=SecurityParams(step=200),
    grid={"trh": [4800, 2400], "swap_rate": [6.0, 8.0]},
)

# A Monte-Carlo point cheap enough for the fast tier: a small bank makes
# random guesses land often, so the probe needs few windows.
MC_PARAMS = SecurityParams(
    trh=4800, swap_rate=6.0, rows_per_bank=4096,
    iterations=2000, probe_windows=5000, step=200,
)


class TestEvaluationRegistry:
    def test_builtin_kinds_registered(self):
        assert EVALUATIONS.names() == ("perf", "security", "hammer", "model")
        assert EVALUATIONS.get("perf").subjects is None
        assert EVALUATIONS.get("security").subjects == ("rrs", "srs")

    def test_duplicate_kind_rejected(self):
        @dataclasses.dataclass(frozen=True)
        class P:
            x: int = 0

        @dataclasses.dataclass
        class R:
            workload: str = "-"
            mitigation: str = "-"
            trh: int = 0
            params: object = None

        decorator = register_evaluation(
            "test-kind", params_cls=P, result_cls=R
        )
        decorator(lambda cell: R())
        try:
            with pytest.raises(ValueError, match="duplicate"):
                register_evaluation("test-kind", params_cls=P, result_cls=R)(
                    lambda cell: R()
                )
        finally:
            EVALUATIONS.remove("test-kind")

    def test_generic_serializers_need_result_cls(self):
        with pytest.raises(ValueError, match="result_cls"):
            register_evaluation("broken-kind", params_cls=SecurityParams)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown evaluation kind"):
            ExperimentSpec(kind="not-a-kind", mitigations=["rrs"])


class TestSpecValidation:
    def test_unknown_subject_rejected(self):
        spec = ExperimentSpec(
            kind="security",
            mitigations=["scale-srs"],  # not a security subject
            base_params=SecurityParams(),
        )
        with pytest.raises(ValueError, match="unknown security subject"):
            spec.validate()

    def test_axes_validated_against_kind_params(self):
        spec = ExperimentSpec(
            kind="security",
            mitigations=["rrs"],
            base_params=SecurityParams(),
            grid={"engine": ["scalar"]},  # a SimulationParams field
        )
        with pytest.raises(ValueError, match="unknown grid axis"):
            spec.validate()

    def test_base_params_type_checked(self):
        spec = ExperimentSpec(
            kind="security",
            mitigations=["rrs"],
            base_params=HammerParams(),
        )
        with pytest.raises(ValueError, match="SecurityParams"):
            spec.validate()

    def test_subject_required(self):
        spec = ExperimentSpec(kind="security", base_params=SecurityParams())
        with pytest.raises(ValueError, match="subject"):
            spec.validate()

    def test_default_base_params_from_kind(self):
        spec = ExperimentSpec(kind="security", mitigations=["rrs"])
        assert isinstance(spec.base_params, SecurityParams)

    def test_scenario_label_defaults(self):
        cells = ExperimentSpec(
            kind="security", mitigations=["rrs"],
            base_params=SecurityParams(step=200),
        ).cells()
        assert [c.workload for c in cells] == ["juggernaut"]
        assert all(c.kind == "security" for c in cells)


class TestSecurityKind:
    @pytest.fixture(scope="class")
    def results(self):
        return run_grid(SECURITY, max_workers=1)

    def test_grid_covers_designs_and_axes(self, results):
        points = {(r.mitigation, r.trh, r.swap_rate) for r in results}
        assert points == {
            (m, t, s)
            for m in ("rrs", "srs")
            for t in (4800, 2400)
            for s in (6.0, 8.0)
        }
        assert all(r.kind == "security" for r in results)

    def test_plan_has_no_baselines(self):
        assert all(c.mitigation in ("rrs", "srs") for c in plan_cells(SECURITY))

    def test_biasing_makes_rrs_weaker_than_srs(self, results):
        for trh in (4800, 2400):
            for rate in (6.0, 8.0):
                rrs = next(r for r in results
                           if (r.mitigation, r.trh, r.swap_rate) == ("rrs", trh, rate))
                srs = next(r for r in results
                           if (r.mitigation, r.trh, r.swap_rate) == ("srs", trh, rate))
                assert rrs.days < srs.days

    def test_result_order_is_plan_order(self, results):
        cells = plan_cells(SECURITY)
        assert [(r.mitigation, r.trh, r.swap_rate) for r in results] == [
            (c.mitigation, c.params.trh, c.params.swap_rate) for c in cells
        ]

    def test_parallel_equals_serial(self):
        serial = run_grid(SECURITY, max_workers=1)
        parallel = run_grid(SECURITY, max_workers=2)
        assert serial.to_json() == parallel.to_json()

    def test_srs_step_override(self):
        """The attack CLI shim keeps its historical max(100, step) SRS
        scan via the explicit srs_step knob; a finer scan can only find
        an equal-or-better (smaller) time-to-break for the attacker."""
        def days(srs_step):
            spec = ExperimentSpec(
                kind="security",
                mitigations=["srs"],
                base_params=SecurityParams(
                    trh=4800, step=50, srs_step=srs_step
                ),
            )
            (result,) = run_grid(spec, max_workers=1)
            return result.days

        assert days(100) <= days(500)  # srs_step honored over 10*step

    def test_json_round_trip(self, results):
        reloaded = ResultSet.from_json(results.to_json())
        assert reloaded.to_json() == results.to_json()
        assert all(isinstance(r.params, SecurityParams) for r in reloaded)

    def test_csv_export(self, results):
        lines = results.to_csv().strip().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["workload", "mitigation", "trh", "swap_rate"]
        assert "days" in header
        assert len(lines) == 1 + len(results)

    def test_filter(self, results):
        subset = results.filter(mitigation="rrs", trh=2400)
        assert len(subset) == 2
        assert {r.swap_rate for r in subset} == {6.0, 8.0}


class TestSecurityMonteCarlo:
    def test_mc_runs_and_matches_analytical_roughly(self):
        spec = ExperimentSpec(
            kind="security", mitigations=["rrs"], base_params=MC_PARAMS
        )
        (result,) = run_grid(spec, max_workers=1)
        assert result.mc_days_mean is not None
        assert result.mc_seed is not None
        # The MC estimate should land within a factor of two of the
        # analytical model at this (easy) design point.
        assert 0.5 < result.mc_days_mean / result.days < 2.0

    def test_mc_cells_reproduce_bit_identically(self):
        spec = ExperimentSpec(
            kind="security", mitigations=["rrs", "srs"], base_params=MC_PARAMS
        )
        first = run_grid(spec, max_workers=1)
        second = run_grid(spec, max_workers=2)
        assert first.to_json() == second.to_json()

    def test_distinct_cells_draw_independent_streams(self):
        spec = ExperimentSpec(
            kind="security",
            mitigations=["rrs"],
            base_params=MC_PARAMS,
            grid={"swap_rate": [6.0, 8.0]},
        )
        results = list(run_grid(spec, max_workers=1))
        assert results[0].mc_seed != results[1].mc_seed

    def test_mc_cells_are_priced_by_their_probe(self):
        """Figure 6's validation cells cost their probe windows: the
        1100-round cell probes 42.6M windows, the others the 5e7 cap."""
        from repro.report.planner import build_figure
        from repro.sim.pool import LONG_CHUNK

        _, figure = build_figure("fig06")
        costs = {
            cell.params.rounds: cell_cost(cell)
            for cell in plan_cells(figure.specs[1])
        }
        assert costs[1100] < costs[1200] == costs[1300]
        assert min(costs.values()) > 10 * LONG_CHUNK
        # Without iterations the same point is a cheap analytical cell.
        analytic = dataclasses.replace(figure.specs[1], base_params=SecurityParams())
        assert max(cell_cost(cell) for cell in plan_cells(analytic)) == 50.0

    def test_default_seed_derived_from_params(self):
        params = AttackParameters(trh=4800, ts=800)
        assert MonteCarloJuggernaut(params).seed == derive_seed(params)
        other = AttackParameters(trh=2400, ts=400)
        assert derive_seed(params) != derive_seed(other)
        assert derive_seed(params, salt="a") != derive_seed(params, salt="b")


class TestTableModels:
    """Tables IV and V are ``model`` cells holding the closed-form
    storage and power models' numbers."""

    @pytest.fixture(scope="class")
    def values(self):
        results = run_grid(
            ExperimentSpec(kind="model", mitigations=["storage", "power"]),
            max_workers=1,
        )
        return {r.mitigation: r.values for r in results}

    def test_storage_matches_direct_model(self, values):
        model = StorageModel()
        breakdown = values["storage"]["breakdown"]
        assert list(breakdown) == list(TABLE_TRH_VALUES)
        for trh in TABLE_TRH_VALUES:
            for design in ("rrs", "scale-srs"):
                expected = model.breakdown(trh, design)
                row = breakdown[trh][design]
                assert row["total_bytes"] == expected.total_bytes
                assert row["rit_bytes"] == expected.rit_bytes
                assert row["pin_buffer_bytes"] == expected.pin_buffer_bytes
        assert (
            values["storage"]["dram_counter_fraction"]
            == model.dram_counter_overhead_fraction()
        )

    def test_power_matches_direct_model(self, values):
        model = PowerModel()
        breakdown = values["power"]["breakdown"]
        for trh in TABLE_TRH_VALUES:
            for design in ("rrs", "scale-srs"):
                expected = model.breakdown(trh, design)
                row = breakdown[trh][design]
                assert row == {
                    "dram_overhead_percent": expected.dram_overhead_percent,
                    "sram_power_mw": expected.sram_power_mw,
                }


HAMMER = ExperimentSpec(
    kind="hammer",
    mitigations=["trr", "para", "scale-srs"],
    base_params=HammerParams(hammers=3000),
    grid={"pattern": ["double-sided", "half-double"], "radius": [1, 2]},
)
MODEL = ExperimentSpec(kind="model", mitigations=list(MODELS))


def strict_round_trip(result):
    """``result`` through its kind's serializers and strict JSON text."""
    info = EVALUATIONS.get(result.kind)
    text = json.dumps(info.result_to_dict(result), allow_nan=False)
    return info.result_from_dict(json.loads(text))


class TestHammerAndModelKinds:
    @pytest.fixture(scope="class")
    def results(self):
        return run_grid(HAMMER, max_workers=1).extend(
            run_grid(MODEL, max_workers=1)
        )

    def test_every_record_round_trips(self, results):
        assert results.kinds == ["hammer", "model"]
        assert len(results) == 12 + len(MODELS)
        for result in results:
            assert strict_round_trip(result) == result

    def test_non_finite_floats_and_int_keys_round_trip(self):
        result = ModelResult(
            "paper",
            "synthetic",
            {
                "days": math.inf,
                "bounds": [-math.inf, 1.5],
                "series": {1200: [0.1], 4800: {"never": math.inf}},
            },
            ModelParams(),
        )
        back = strict_round_trip(result)
        assert back == result
        assert list(back.values["series"]) == [1200, 4800]

    def test_resume_from_store_serves_identical_records(
        self, results, tmp_path
    ):
        path = str(tmp_path / "store")

        def resolve():
            sets = [
                run_grid(spec, max_workers=1, store=path)
                for spec in (HAMMER, MODEL)
            ]
            executed = sum(s.run_stats.executed for s in sets)
            return sets[0].extend(sets[1]).results, executed

        assert resolve() == (results.results, len(results))
        assert resolve() == (results.results, 0)

    def test_hammer_cost_is_the_activation_count(self):
        assert {cell_cost(cell) for cell in plan_cells(HAMMER)} == {3000.0}

    def test_unknown_pattern_rejected(self):
        spec = dataclasses.replace(
            HAMMER, base_params=HammerParams(pattern="many-sided"), grid={}
        )
        with pytest.raises(RuntimeError, match="unknown hammer pattern"):
            run_grid(spec, max_workers=1)


class TestHeterogeneousResultSets:
    @pytest.fixture(scope="class")
    def mixed(self):
        security = run_grid(
            ExperimentSpec(
                kind="security", mitigations=["rrs"],
                base_params=SecurityParams(step=200),
            ),
            max_workers=1,
        )
        model = run_grid(model_spec("storage"), max_workers=1)
        return security.merge(model)

    def test_kinds_and_of_kind(self, mixed):
        assert mixed.kinds == ["security", "model"]
        assert len(mixed.of_kind("model")) == 1
        assert mixed.of_kind("perf").results == []

    def test_merge_deduplicates_identical_cells(self, mixed):
        assert len(mixed.merge(mixed)) == len(mixed)

    def test_mixed_csv_refuses(self, mixed):
        with pytest.raises(ValueError, match="single evaluation kind"):
            mixed.to_csv()

    @pytest.mark.parametrize("kind", ["hammer", "model"])
    def test_csv_of_a_kind_without_columns_points_to_json(self, kind):
        spec = HAMMER if kind == "hammer" else model_spec("trh-history")
        results = run_grid(
            dataclasses.replace(spec, mitigations=spec.mitigations[:1], grid={}),
            max_workers=1,
        )
        with pytest.raises(ValueError, match=f"kind '{kind}'.*to_json"):
            results.to_csv()
        assert ResultSet.from_json(results.to_json()).kinds == [kind]

    def test_mixed_json_round_trip(self, mixed):
        reloaded = ResultSet.from_json(mixed.to_json())
        assert reloaded.to_json() == mixed.to_json()
        assert reloaded.kinds == mixed.kinds

    def test_sentinel_like_string_labels_survive_round_trip(self):
        """A workload label that *looks* like a float sentinel ('inf')
        must come back as the string it is — only float-annotated
        fields are sentinel-restored."""
        spec = ExperimentSpec(
            kind="security",
            workloads=["inf"],
            mitigations=["rrs"],
            base_params=SecurityParams(step=200),
        )
        results = run_grid(spec, max_workers=1)
        reloaded = ResultSet.from_json(results.to_json())
        assert reloaded.results[0].workload == "inf"
        assert reloaded.to_json() == results.to_json()

    def test_infinite_days_export_strict_json(self):
        """Infeasible cells hold float('inf'); exports must stay strict
        RFC-8259 JSON (no bare Infinity token) and round-trip exactly."""
        import math

        spec = ExperimentSpec(
            kind="security",
            mitigations=["srs"],
            base_params=SecurityParams(trh=4800, rounds=10**6),  # infeasible
        )
        results = run_grid(spec, max_workers=1)
        assert math.isinf(results.results[0].days)
        text = results.to_json()
        assert "Infinity" not in text and '"inf"' in text
        reloaded = ResultSet.from_json(text)
        assert math.isinf(reloaded.results[0].days)
        assert reloaded.to_json() == text
