"""Tests for the declarative report pipeline (``repro.report``)."""

import contextlib
import dataclasses
import io
import os
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.registry import FIGURES, figure_names, register_figure
from repro.report import (
    Artifact,
    ReportConfig,
    Table,
    build_figure,
    format_value,
    render_figure,
    reproduce_figure,
    resolve_figure,
    write_artifact,
)
from repro.report.spec import DETAILED_WORKLOADS, FigureSpec, model_spec
from repro.sim import ExperimentSpec, ProcessPool, ResultStore

EXPECTED_FIGURES = (
    "table1",
    "fig01a",
    "motiv-half-double",
    "fig01b",
    "fig04",
    "fig06",
    "fig07",
    "fig10",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "sec3c-multibank",
    "table4",
    "table5",
    "sec5c-llc",
    "disc-open-page",
    "relwork-comparators",
)

TABLE1_MD = """\
## Table I: demonstrated Row Hammer thresholds, 2014-2021

| generation | trh |
| --- | --- |
| DDR3 (old) | 139000 |
| DDR3 (new) | 22400 |
| DDR4 (old) | 17500 |
| DDR4 (new) | 10000 |
| LPDDR4 (old) | 16800 |
| LPDDR4 (new) | 4800 |

- DDR3(old) -> LPDDR4(new) scaling: 29.0x
"""

TABLE4_MD = """\
## Table IV: on-chip storage per bank, RRS vs Scale-SRS

| trh | rrs_rit_kb | rrs_total_kb | scale_rit_kb | scale_total_kb | ratio |
| --- | --- | --- | --- | --- | --- |
| 4800 | 34.9453 | 35.9453 | 8.74072 | 18.025 | 1.99419 |
| 2400 | 69.8643 | 70.8643 | 17.4727 | 26.8851 | 2.63582 |
| 1200 | 139.711 | 140.711 | 34.9321 | 44.3446 | 3.17312 |

- DRAM swap-counter overhead: 0.049% of capacity
"""

TABLE4_CSV = """\
trh,rrs_rit_kb,rrs_total_kb,scale_rit_kb,scale_total_kb,ratio\r
4800,34.9453,35.9453,8.74072,18.025,1.99419\r
2400,69.8643,70.8643,17.4727,26.8851,2.63582\r
1200,139.711,140.711,34.9321,44.3446,3.17312\r
"""

TABLE5_CSV = """\
trh,design,dram_overhead_percent,sram_power_mw\r
4800,rrs,0.5,902.368\r
4800,scale-srs,0.2,695.197\r
2400,rrs,1,1306.06\r
2400,scale-srs,0.4,797.626\r
1200,rrs,2,2113.53\r
1200,scale-srs,0.8,999.469\r
"""


class TestRegistry:
    def test_builtin_figures_registered(self):
        names = figure_names()
        for expected in EXPECTED_FIGURES:
            assert expected in names
        assert len(names) >= len(EXPECTED_FIGURES)

    def test_every_builder_round_trips(self):
        """Every registered builder is cheap and yields a well-formed
        spec: experiment specs plus a render hook."""
        config = ReportConfig()
        for name in figure_names():
            info, spec = build_figure(name, config)
            assert info.name == name
            assert info.artifact in ("figure", "table")
            assert info.title
            assert isinstance(spec, FigureSpec)
            assert spec.specs
            assert callable(spec.render)
            assert spec.config is config
            for experiment in spec.specs:
                assert isinstance(experiment, ExperimentSpec)

    def test_register_figure_round_trip(self):
        @register_figure("test-fig", title="A test", artifact="table",
                         description="registry round-trip")
        def build(config):
            return FigureSpec(render=lambda data: Artifact())

        try:
            assert "test-fig" in figure_names()
            info = FIGURES.get("test-fig")
            assert info.builder is build
            assert info.title == "A test"
            assert info.artifact == "table"
        finally:
            FIGURES.remove("test-fig")
        assert "test-fig" not in figure_names()

    def test_register_rejects_bad_artifact_kind(self):
        with pytest.raises(ValueError, match="artifact"):
            register_figure("bad-fig", artifact="chart")

    def test_build_unknown_figure_raises(self):
        with pytest.raises(ValueError, match="unknown figure"):
            build_figure("no-such-figure")


class TestConfig:
    def test_cli_config_ignores_bench_env(self, monkeypatch):
        """``repro report`` takes its scale from its flags only: the
        benchmark tier's ``REPRO_BENCH_*`` knobs do not reach it."""
        from repro.cli import _report_config, build_parser

        monkeypatch.setenv("REPRO_BENCH_REQUESTS", "123")
        monkeypatch.setenv("REPRO_BENCH_CORES", "2")
        monkeypatch.setenv("REPRO_BENCH_FULL", "1")
        parser = build_parser()
        bare = parser.parse_args(["report", "--all"])
        assert _report_config(bare) == ReportConfig()
        flagged = parser.parse_args(
            ["report", "--all", "--requests", "300", "--cores", "1"]
        )
        assert _report_config(flagged) == ReportConfig().scaled(
            requests=300, cores=1
        )
        full = parser.parse_args(["report", "--all", "--full"])
        assert _report_config(full) == ReportConfig().scaled(full=True)

    def test_perf_workloads_detailed_vs_full(self):
        assert ReportConfig().perf_workloads() == list(DETAILED_WORKLOADS)
        full = ReportConfig(full=True).perf_workloads()
        assert set(DETAILED_WORKLOADS) < set(full)

    def test_perf_params_and_scaled(self):
        config = ReportConfig(requests=1000, cores=2, seed=5)
        params = config.perf_params(2400)
        assert params.trh == 2400
        assert params.requests_per_core == 1000
        assert params.num_cores == 2
        assert params.seed == 5
        smaller = config.scaled(requests=10)
        assert smaller.requests == 10
        assert smaller.cores == 2


class TestResolve:
    def test_second_resolve_executes_zero(self, tmp_path):
        store = str(tmp_path / "store")
        info, spec = build_figure("fig07")
        fresh = resolve_figure(spec, store=store)
        assert fresh.stats.planned == 87  # 3 TRH x 29 round budgets
        assert fresh.stats.executed == 87
        assert fresh.stats.reused == 0
        again = resolve_figure(spec, store=store)
        assert again.stats.executed == 0
        assert again.stats.reused == 87
        assert again.results.to_json() == fresh.results.to_json()

    def test_store_backed_artifact_matches_storeless(self, tmp_path):
        data, storeless = reproduce_figure("table4")
        _, stored = reproduce_figure("table4", store=str(tmp_path / "s"))
        assert stored.to_markdown() == storeless.to_markdown()
        assert data.model("storage")["dram_counter_fraction"] > 0

    def test_shards_merge_to_full_artifact(self, tmp_path):
        """Two shard runs against one store cover every cell, a model
        cell included; the final unsharded pass executes nothing and
        renders the exact artifact a storeless run would."""
        store = str(tmp_path / "store")
        info, spec = build_figure("fig07")
        mixed = dataclasses.replace(
            spec, specs=[*spec.specs, model_spec("storage")]
        )
        executed = 0
        for index in range(2):
            part = resolve_figure(mixed, store=store, shard=(index, 2))
            assert part.stats.shard == (index, 2)
            assert 0 < part.stats.executed < 88
            executed += part.stats.executed
        assert executed == 88
        final = resolve_figure(mixed, store=store)
        assert final.stats.executed == 0
        assert final.stats.reused == 88
        assert final.model("storage")["dram_counter_fraction"] > 0
        _, reference = reproduce_figure("fig07")
        security = dataclasses.replace(
            final, results=final.results.of_kind("security")
        )
        artifact = render_figure(info, spec, security)
        assert artifact.to_markdown() == reference.to_markdown()

    def test_render_hook_must_return_artifact(self):
        info = FIGURES.get("table1")
        spec = FigureSpec(render=lambda data: {"not": "an artifact"})
        data = resolve_figure(spec)
        with pytest.raises(TypeError, match="expected Artifact"):
            render_figure(info, spec, data)


class TestGoldenArtifacts:
    def test_table1_markdown(self):
        _, artifact = reproduce_figure("table1")
        assert artifact.kind == "table"
        assert artifact.to_markdown() == TABLE1_MD

    def test_table4_markdown_and_csv(self, tmp_path):
        _, artifact = reproduce_figure("table4", store=str(tmp_path / "s"))
        assert artifact.to_markdown() == TABLE4_MD
        assert artifact.table().to_csv() == TABLE4_CSV

    def test_table5_csv(self, tmp_path):
        _, artifact = reproduce_figure("table5", store=str(tmp_path / "s"))
        assert artifact.table().to_csv() == TABLE5_CSV
        assert artifact.notes == [
            "Scale-SRS on-chip power saving at TRH=4800: 23.0%"
        ]


class TestRender:
    def test_format_value(self):
        assert format_value(None) == ""
        assert format_value(True) == "yes"
        assert format_value(False) == "no"
        assert format_value(0.123456789) == "0.123457"
        assert format_value(4800) == "4800"
        assert format_value("gcc") == "gcc"

    def test_artifact_table_lookup(self):
        main = Table(columns=["a"], rows=[[1]])
        named = Table(columns=["b"], rows=[[2]], name="means")
        artifact = Artifact(tables=[main, named], name="fig")
        assert artifact.table() is main
        assert artifact.table("means") is named
        with pytest.raises(LookupError, match="no table"):
            artifact.table("missing")

    def test_write_artifact_emits_md_and_csv(self, tmp_path):
        artifact = Artifact(
            tables=[
                Table(columns=["x", "y"], rows=[[1, 2.5]]),
                Table(columns=["w"], rows=[["gcc"]], name="means"),
            ],
            notes=["a note"],
            name="figX",
            title="Figure X",
        )
        paths = write_artifact(artifact, str(tmp_path))
        names = sorted(os.path.basename(p) for p in paths)
        assert names == ["figX.csv", "figX.md", "figX.means.csv"]
        for path in paths:
            assert os.path.exists(path)
        text = open(paths[0], encoding="utf-8").read()
        assert text.startswith("## Figure X")
        assert "### means" in text
        assert "- a note" in text


class TestBenchmarkStoreSharing:
    def test_overlapping_figures_share_cells(self, tmp_path):
        """table4 (a model cell) and fig07 (security cells) draw
        disjoint kinds — one store serves a mixed report
        incrementally."""
        store = ResultStore(str(tmp_path / "store"))
        first, _ = reproduce_figure("table4", store=store)
        second, _ = reproduce_figure("fig07", store=store)
        assert first.stats.executed == 1
        assert second.stats.executed == 87
        third, _ = reproduce_figure("table4", store=store)
        assert third.stats.executed == 0
        assert len(store) == 88


TINY_REPORT = ("report", "--all", "--requests", "300", "--cores", "1")
REPORT_LINE = re.compile(
    r"^report: executed (\d+), reused (\d+) of (\d+) cells", re.M
)


def run_report(*argv):
    """``repro report --all`` at tiny scale: (executed, reused, planned)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main([*TINY_REPORT, *argv]) == 0
    return tuple(int(n) for n in REPORT_LINE.search(buffer.getvalue()).groups())


def artifact_tree(path):
    """``{file name: bytes}`` of an artifact directory."""
    return {entry.name: entry.read_bytes() for entry in Path(path).iterdir()}


@pytest.mark.slow
class TestReportResume:
    """Every figure's data are store cells — the hammer rig and the
    one-off models included — so a resumed report does no work and
    shard runs cover the whole report."""

    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("report")
        store, out = str(root / "store"), str(root / "cold")
        executed, reused, planned = run_report("--store", store, "--out", out)
        assert executed > 0 and executed + reused == planned
        return store, out, executed, planned

    def test_resume_executes_nothing(self, cold, tmp_path, monkeypatch):
        store, out, _, planned = cold

        def recomputed(*args, **kwargs):
            raise AssertionError("a resumed report recomputed a rig")

        monkeypatch.setattr("repro.attacks.harness.hammer_pattern", recomputed)
        monkeypatch.setattr(
            "repro.core.blockhammer.dos_false_positive_delay", recomputed
        )
        again = str(tmp_path / "again")
        assert run_report("--store", store, "--out", again) == (
            0, planned, planned
        )
        assert artifact_tree(again) == artifact_tree(out)

    def test_shards_cover_every_figure(self, cold, tmp_path):
        _, out, cold_executed, planned = cold
        store = str(tmp_path / "store")
        shards = [
            run_report("--store", store, "--shard", f"{index}/2")
            for index in range(2)
        ]
        assert sum(part[2] for part in shards) == planned
        # Figures share cells, so the shards together execute exactly
        # the cold pass's distinct cells.
        assert sum(part[0] for part in shards) == cold_executed
        final = str(tmp_path / "final")
        assert run_report("--store", store, "--out", final) == (
            0, planned, planned
        )
        assert artifact_tree(final) == artifact_tree(out)


@pytest.mark.slow
@pytest.mark.parametrize("name", ["motiv-half-double", "relwork-comparators"])
def test_serial_and_pooled_artifacts_are_byte_identical(name, tmp_path):
    _, serial = reproduce_figure(name, jobs=1)
    _, pooled = reproduce_figure(name, pool=ProcessPool(2))
    write_artifact(serial, str(tmp_path / "serial"))
    write_artifact(pooled, str(tmp_path / "pooled"))
    assert artifact_tree(tmp_path / "serial") == artifact_tree(
        tmp_path / "pooled"
    )
