"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main
from repro.registry import MITIGATIONS, TRACKERS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in (
            ["list-workloads"],
            ["list-mitigations"],
            ["run", "gcc"],
            ["sweep", "gcc"],
            ["grid"],
            ["trace", "record", "gcc", "--out", "x"],
            ["trace", "info", "x"],
            ["attack"],
            ["security-sweep"],
            ["outliers"],
            ["storage"],
            ["power"],
        ):
            args = parser.parse_args(command)
            assert callable(args.func)

    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_grid_workload_singular_alias(self):
        args = build_parser().parse_args(["grid", "--workload", "trace:/x"])
        assert args.workloads == ["trace:/x"]

    def test_engine_flag(self):
        for command in (["run", "gcc"], ["sweep", "gcc"], ["grid"]):
            args = build_parser().parse_args(command)
            assert args.engine == "scalar"
            args = build_parser().parse_args(command + ["--engine", "auto"])
            assert args.engine == "auto"
        for engine in ("warp", "batched"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run", "gcc", "--engine", engine])

    def test_mitigation_choices_derived_from_registry(self):
        parser = build_parser()
        for name in MITIGATIONS.names():
            if name == "baseline":
                continue  # always included implicitly
            args = parser.parse_args(["run", "gcc", "--mitigations", name])
            assert args.mitigations == [name]
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "gcc", "--mitigations", "unregistered"])

    def test_tracker_choices_derived_from_registry(self):
        parser = build_parser()
        for name in TRACKERS.names():
            args = parser.parse_args(["grid", "--tracker", name])
            assert args.tracker == name

    def test_jobs_must_be_positive(self, capsys):
        """--jobs 0 and negatives are rejected up front, not silently
        clamped to serial execution deep in the engine."""
        parser = build_parser()
        for command in (
            ["grid", "--jobs", "0"],
            ["grid", "--jobs", "-2"],
            ["attack", "--jobs", "0"],
            ["report", "--jobs", "0"],
        ):
            with pytest.raises(SystemExit):
                parser.parse_args(command)
            assert "positive worker count" in capsys.readouterr().err
        assert parser.parse_args(["grid", "--jobs", "1"]).jobs == 1

    @pytest.mark.parametrize(
        "flag, commands",
        [
            ("--trh", [["run", "gcc", "--trh", "0"],
                       ["grid", "--trh", "-1200"],
                       ["storage", "--trh", "0"],
                       ["storage", "--trh", "-5"],
                       ["power", "--trh", "0"],
                       ["attack", "--trh", "0"]]),
            ("--cores", [["run", "gcc", "--cores", "0"],
                         ["report", "--cores", "0"]]),
            ("--requests", [["run", "gcc", "--requests", "0"],
                            ["trace", "record", "gcc", "--out", "x",
                             "--requests", "-1"]]),
            ("--time-scale", [["grid", "--time-scale", "0"]]),
            ("--swap-rate", [["attack", "--swap-rate", "0"],
                             ["outliers", "--swap-rate", "-3"]]),
            ("--rates", [["security-sweep", "--rates", "6,x"],
                         ["security-sweep", "--rates", "6,0"]]),
            ("--iterations", [["attack", "--iterations", "-5"],
                              ["security-sweep", "--iterations", "-1"]]),
            ("--step", [["attack", "--step", "0"],
                        ["attack", "--step", "-3"]]),
        ],
    )
    def test_non_positive_values_are_one_line_errors(
        self, flag, commands, capsys
    ):
        """Sizes, thresholds and rates must be positive: a zero or
        negative value ends the command at parse time with one error
        line naming the flag, never a simulation or a traceback."""
        for command in commands:
            with pytest.raises(SystemExit) as exit_info:
                main(command)
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
            (error,) = [line for line in err.splitlines() if "error:" in line]
            assert f"error: argument {flag}: " in error

    def test_zero_iterations_keeps_the_analytical_model(self):
        parser = build_parser()
        for command in ("attack", "security-sweep"):
            args = parser.parse_args([command, "--iterations", "0"])
            assert args.iterations == 0


class TestCommands:
    def test_list_workloads(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "gcc" in out and "gups" in out and "mix1" in out

    def test_list_workloads_suite_filter(self, capsys):
        assert main(["list-workloads", "--suite", "GAP"]) == 0
        out = capsys.readouterr().out
        assert "pr" in out and "gcc " not in out

    def test_attack(self, capsys):
        assert main(["attack", "--trh", "4800", "--swap-rate", "6"]) == 0
        out = capsys.readouterr().out
        assert "RRS" in out and "SRS" in out and "days" in out

    def test_security_sweep(self, capsys):
        assert main(["security-sweep", "--trh", "4800", "--rates", "6,8"]) == 0
        out = capsys.readouterr().out
        assert "6.0" in out and "8.0" in out

    def test_outliers(self, capsys):
        assert main(["outliers", "--trh", "4800", "--swap-rate", "3"]) == 0
        out = capsys.readouterr().out
        assert "outlier row(s)" in out

    def test_storage(self, capsys):
        assert main(["storage"]) == 0
        out = capsys.readouterr().out
        assert "4800" in out and "ratio" in out

    def test_storage_direction_bit_cheaper(self, capsys):
        main(["storage"])
        plain = capsys.readouterr().out
        main(["storage", "--direction-bit"])
        optimised = capsys.readouterr().out
        plain_1200 = float(plain.splitlines()[-1].split()[2])
        opt_1200 = float(optimised.splitlines()[-1].split()[2])
        assert opt_1200 < plain_1200

    def test_power(self, capsys):
        assert main(["power", "--trh", "4800"]) == 0
        out = capsys.readouterr().out
        assert "mW" in out and "saving" in out

    def test_run_small(self, capsys):
        code = main([
            "run", "povray", "--trh", "1200", "--cores", "1",
            "--requests", "2000", "--mitigations", "rrs",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "rrs" in out

    def test_list_mitigations(self, capsys):
        assert main(["list-mitigations"]) == 0
        out = capsys.readouterr().out
        for name in ("baseline", "rrs", "scale-srs", "misra-gries", "hydra"):
            assert name in out

    def test_sweep_small(self, capsys):
        code = main([
            "sweep", "povray", "--trh", "2400", "1200", "--cores", "1",
            "--requests", "2000", "--mitigations", "rrs", "--jobs", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2400" in out and "1200" in out and "rrs" in out

    def test_sweep_prefixed_name_prints_its_results(self, capsys):
        """``synthetic:povray`` names ``povray``; its row is not NaN."""
        code = main([
            "sweep", "synthetic:povray", "--trh", "1200", "--cores", "1",
            "--requests", "500", "--mitigations", "rrs", "--jobs", "1",
        ])
        assert code == 0
        assert "nan" not in capsys.readouterr().out

    def test_trace_record_info_and_replay(self, capsys, tmp_path):
        out_dir = tmp_path / "rec"
        code = main([
            "trace", "record", "povray", "--out", str(out_dir),
            "--cores", "2", "--requests", "1500",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "core0.trace" in out and "core1.trace" in out

        assert main(["trace", "info", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "core0.trace" in out and "TOTAL" in out and "1500" in out

        code = main([
            "grid", "--workload", f"trace:{out_dir}", "--trh", "1200",
            "--cores", "2", "--requests", "1500", "--mitigations", "rrs",
            "--jobs", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"trace:{out_dir}" in out and "GEOMEAN" in out

    def test_trace_info_malformed_line_is_one_line_error(self, capsys, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("1 R 0x40\n2 X 0x80\n")
        with pytest.raises(SystemExit, match=r"bad.trace: line 2: op must be"):
            main(["trace", "info", str(path)])
        assert "file" not in capsys.readouterr().out  # no table started

    def test_trace_info_missing_path_is_one_line_error(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            main(["trace", "info", str(tmp_path / "missing")])

    def test_trace_info_directory_without_traces_is_one_line_error(self, tmp_path):
        with pytest.raises(SystemExit, match="contains no trace files"):
            main(["trace", "info", str(tmp_path)])

    def test_trace_info_address_beyond_organization_is_one_line_error(
        self, capsys, tmp_path
    ):
        path = tmp_path / "huge.trace"
        path.write_text("1 R 0x7fffffffffffffff\n")
        with pytest.raises(SystemExit, match=r"huge.trace: .*out of range"):
            main(["trace", "info", str(path)])
        assert "file" not in capsys.readouterr().out  # no table started

    def test_trace_replay_writes_nothing_under_home(self, tmp_path, monkeypatch):
        """Recording and replaying (pooled) leave ``$HOME`` untouched:
        parsed traces are kept in memory only."""
        home = tmp_path / "home"
        home.mkdir()
        monkeypatch.setenv("HOME", str(home))
        out_dir = tmp_path / "rec"
        main(["trace", "record", "gcc", "--out", str(out_dir),
              "--cores", "2", "--requests", "600"])
        code = main([
            "grid", "--workload", f"trace:{out_dir}", "--trh", "1200",
            "--cores", "2", "--requests", "600", "--mitigations", "rrs",
            "--jobs", "2",
        ])
        assert code == 0
        assert list(home.iterdir()) == []


    def test_attack_with_monte_carlo(self, capsys):
        code = main([
            "attack", "--trh", "4800", "--swap-rate", "6",
            "--iterations", "500",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Monte-Carlo (500 iters)" in out

    def test_security_sweep_jobs_and_export(self, capsys, tmp_path):
        csv_path = tmp_path / "sec.csv"
        json_path = tmp_path / "sec.json"
        code = main([
            "security-sweep", "--trh", "4800", "--rates", "8,6",
            "--jobs", "2", "--csv", str(csv_path), "--json", str(json_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip()]
        # Rows follow the requested rate order, not completion order.
        rate_rows = [l.split()[0] for l in lines[1:3]]
        assert rate_rows == ["8.0", "6.0"]
        from repro.sim import ResultSet
        reloaded = ResultSet.load(str(json_path))
        assert reloaded.kinds == ["security"]
        assert len(reloaded) == 4  # 2 designs x 2 rates
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("workload,mitigation,trh,swap_rate")

    def test_security_sweep_multiple_trh(self, capsys):
        code = main([
            "security-sweep", "--trh", "4800", "2400", "--rates", "6",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "TRH = 4800" in out and "TRH = 2400" in out

    @pytest.mark.parametrize("command", ["storage", "power"])
    @pytest.mark.parametrize(
        "flag",
        [["--jobs", "2"], ["--csv", "x.csv"], ["--json", "x.json"],
         ["--store", "s"], ["--resume"], ["--shard", "0/2"]],
    )
    def test_model_commands_take_no_engine_flags(self, command, flag, capsys):
        """``storage`` and ``power`` print their models directly; the
        tables' CSVs come from ``repro report --figure table4 table5``."""
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, *flag])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_security_sweep_store_resume(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        argv = ["security-sweep", "--trh", "4800", "--rates", "6,8",
                "--store", store]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "executed 4, reused 0" in first
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "executed 0, reused 4" in second

    def test_resume_requires_store(self):
        with pytest.raises(SystemExit, match="--resume needs --store"):
            main(["security-sweep", "--resume"])

    def test_analytical_parallel_matches_serial(self, capsys):
        """A 200-cell analytical grid prints identical output under
        --jobs 2 and --jobs 1 — dispatch is bit-identical and
        plan-ordered (its cells are below the pool's break-even, so
        --jobs 2 caps a serial run)."""
        argv = [
            "security-sweep",
            "--trh", "1200", "1600", "2000", "2400", "2800",
            "3200", "3600", "4000", "4400", "4800",
            "--rates", "2,2.5,3,3.5,4,4.5,5,5.5,6,6.5",
        ]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert serial.count("\n") > 100  # 2 designs x 100 points
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_shard_flag_parsed_and_validated(self):
        args = build_parser().parse_args(["grid", "--shard", "1/4"])
        assert args.shard == (1, 4)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["grid", "--shard", "4/4"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["grid", "--shard", "nope"])

    def test_grid_store_resume_and_shard(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        argv = [
            "grid", "--workloads", "povray", "--trh", "1200", "--cores", "1",
            "--requests", "1500", "--mitigations", "rrs", "--jobs", "1",
            "--store", store,
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "executed 2, reused 0" in first
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "executed 0, reused 2" in second
        # A shard run prints raw summaries (its baseline may live in
        # another shard) and touches only its own slice.
        assert main(argv + ["--resume", "--shard", "0/2"]) == 0
        shard_out = capsys.readouterr().out
        assert "shard 0/2" in shard_out and "executed 0" in shard_out
        assert "GEOMEAN" not in shard_out

    @pytest.mark.parametrize("repeated", [
        ["--workloads", "povray", "--trh", "1200", "1200",
         "--mitigations", "rrs"],
        ["--workloads", "povray", "povray", "--trh", "1200",
         "--mitigations", "rrs"],
        ["--workloads", "povray", "synthetic:povray", "--trh", "1200",
         "--mitigations", "rrs"],
        ["--workloads", "povray", "--trh", "1200",
         "--mitigations", "rrs", "rrs"],
    ], ids=["trh", "workloads", "synthetic-prefix", "mitigations"])
    def test_grid_repeated_values_plan_each_cell_once(
        self, repeated, capsys, tmp_path
    ):
        argv = [
            "grid", *repeated, "--cores", "1", "--requests", "500",
            "--jobs", "1", "--store", str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("=== TRH = 1200") == 1
        rows = [line for line in out.splitlines() if line.startswith("povray")]
        assert len(rows) == 1 and len(rows[0].split()) == 2
        assert "executed 2, reused 0" in out

    def test_security_sweep_repeated_values_print_each_row_once(
        self, capsys, tmp_path
    ):
        argv = ["security-sweep", "--trh", "4800", "4800", "--rates", "6,6",
                "--store", str(tmp_path / "store")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "=== TRH" not in out
        rows = [line for line in out.splitlines() if line.strip().startswith("6.0")]
        assert len(rows) == 1
        assert "executed 2, reused 0" in out

    def test_grid_small_with_export(self, capsys, tmp_path):
        csv_path = tmp_path / "grid.csv"
        json_path = tmp_path / "grid.json"
        code = main([
            "grid", "--workloads", "povray", "lbm", "--trh", "1200",
            "--cores", "1", "--requests", "2000", "--mitigations", "rrs",
            "--jobs", "1", "--csv", str(csv_path), "--json", str(json_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "TRH = 1200" in out and "GEOMEAN" in out
        assert "povray" in out and "lbm" in out
        assert csv_path.exists() and json_path.exists()
        from repro.sim import ResultSet
        reloaded = ResultSet.load(str(json_path))
        assert set(reloaded.workloads) == {"povray", "lbm"}


BAD_WORKLOAD_COMMANDS = {
    "run": lambda w, tmp: ["run", w, "--mitigations", "rrs"],
    "sweep": lambda w, tmp: ["sweep", w, "--trh", "1200", "--mitigations", "rrs"],
    "grid": lambda w, tmp: ["grid", "--workloads", "povray", w, "--trh", "1200",
                            "--mitigations", "rrs"],
    "trace record": lambda w, tmp: ["trace", "record", w, "--out", str(tmp / "out")],
}


@pytest.mark.parametrize("command", sorted(BAD_WORKLOAD_COMMANDS))
class TestBadWorkload:
    """A workload string that names nothing ends the command, before
    any cell is planned, with a one-line error naming the string."""

    def check(self, command, workload, tmp_path, message):
        argv = BAD_WORKLOAD_COMMANDS[command](workload, tmp_path)
        argv += ["--cores", "1", "--requests", "100"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        text = str(excinfo.value.code)
        assert "\n" not in text
        assert repr(workload) in text and message in text
        assert not (tmp_path / "out").exists()

    def test_unknown_name(self, command, tmp_path):
        self.check(command, "nosuch", tmp_path, "unknown workload")

    def test_unknown_prefix(self, command, tmp_path):
        self.check(command, "nosuch:gcc", tmp_path, "unknown workload source")

    def test_missing_trace_path(self, command, tmp_path):
        missing = f"trace:{tmp_path / 'missing'}"
        self.check(command, missing, tmp_path, "does not exist")


@pytest.mark.parametrize("command", [
    ["grid", "--workloads", "povray", "--trh", "1200", "--cores", "1",
     "--requests", "800", "--mitigations", "rrs"],
    ["attack"],
    ["security-sweep", "--rates", "6"],
    ["report", "--figure", "table4"],
], ids=lambda argv: argv[0])
class TestBadStore:
    """A ``--store`` path that cannot be a result store ends every
    store-backed command with a one-line error, before any cell runs."""

    def test_regular_file(self, command, tmp_path):
        path = tmp_path / "not-a-dir"
        path.write_text("x")
        with pytest.raises(SystemExit, match="cannot create result store directory"):
            main(command + ["--store", str(path)])

    def test_old_packed_store(self, command, tmp_path):
        (tmp_path / "pack.seg").write_bytes(b"")
        with pytest.raises(SystemExit, match="no longer read"):
            main(command + ["--store", str(tmp_path)])


class TestReportCommand:
    def test_parser_registers_report_and_store(self):
        parser = build_parser()
        for command in (
            ["report", "--list"],
            ["report", "--figure", "table1"],
            ["report", "--all"],
            ["store", "ls", "x"],
            ["store", "prune", "x"],
        ):
            assert callable(parser.parse_args(command).func)
        with pytest.raises(SystemExit):
            parser.parse_args(["store", "pack", "x"])
        args = parser.parse_args(
            ["report", "--figure", "table4", "fig13", "--shard", "0/2"]
        )
        assert args.figures == ["table4", "fig13"]
        assert args.shard == (0, 2)

    def test_list_names_every_figure(self, capsys):
        from repro.registry import figure_names

        assert main(["report", "--list"]) == 0
        out = capsys.readouterr().out
        for name in figure_names():
            assert name in out

    def test_requires_figures_or_all(self):
        with pytest.raises(SystemExit, match="pick figures"):
            main(["report"])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit, match="unknown figures: nope"):
            main(["report", "--figure", "nope"])

    def test_resume_requires_store(self):
        with pytest.raises(SystemExit, match="--resume needs --store"):
            main(["report", "--figure", "table1", "--resume"])

    def test_shard_requires_store(self, capsys):
        with pytest.raises(SystemExit, match="--shard needs --store"):
            main(["report", "--figure", "table1", "--shard", "0/2"])
        assert "executed" not in capsys.readouterr().out

    def test_model_figure_prints_markdown(self, capsys):
        assert main(["report", "--figure", "table1"]) == 0
        out = capsys.readouterr().out
        assert "table1: executed 1, reused 0 of 1 cells" in out
        assert "## Table I" in out
        assert "| LPDDR4 (new) | 4800 |" in out
        assert "report: executed 1, reused 0 of 1 cells" in out

    def test_store_makes_second_run_execute_zero(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        out_dir = str(tmp_path / "report")
        argv = ["report", "--figure", "table4", "table5",
                "--store", store, "--out", out_dir]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "report: executed 2, reused 0 of 2 cells" in first
        assert os.path.exists(os.path.join(out_dir, "table4.md"))
        assert os.path.exists(os.path.join(out_dir, "table4.csv"))
        assert os.path.exists(os.path.join(out_dir, "table5.csv"))
        # The store makes the rerun free — no --resume flag needed.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "report: executed 0, reused 2 of 2 cells" in second
        # --no-resume forces recomputation against the same store.
        assert main(argv + ["--no-resume"]) == 0
        third = capsys.readouterr().out
        assert "report: executed 2, reused 0 of 2 cells" in third

    def test_plain_report_shares_cells_across_figures(self, capsys, tmp_path):
        """Without --store, figures share the cells they have in common
        (through a temporary store) and write the artifacts a --store
        run writes."""
        argv = ["report", "--figure", "fig15", "fig16", "--requests", "300",
                "--cores", "1"]
        plain = str(tmp_path / "plain")
        assert main(argv + ["--out", plain]) == 0
        assert "fig16: executed 42, reused 49 of 91" in capsys.readouterr().out
        stored = str(tmp_path / "stored")
        assert main(
            argv + ["--store", str(tmp_path / "store"), "--out", stored]
        ) == 0
        assert "fig16: executed 42, reused 49 of 91" in capsys.readouterr().out
        assert sorted(os.listdir(plain)) == sorted(os.listdir(stored))
        for name in os.listdir(plain):
            with open(os.path.join(plain, name), "rb") as one, open(
                os.path.join(stored, name), "rb"
            ) as other:
                assert one.read() == other.read(), name

    def test_shard_runs_skip_artifacts(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        out_dir = str(tmp_path / "report")
        argv = ["report", "--figure", "table4", "--store", store,
                "--out", out_dir]
        for index in range(2):
            assert main(argv + ["--shard", f"{index}/2"]) == 0
            out = capsys.readouterr().out
            assert f"shard {index}/2" in out
            assert not os.path.exists(os.path.join(out_dir, "table4.md"))
        # Final unsharded pass: everything reused, artifact written.
        assert main(argv) == 0
        final = capsys.readouterr().out
        assert "report: executed 0, reused 1 of 1 cells" in final
        assert os.path.exists(os.path.join(out_dir, "table4.md"))


class TestStoreCommand:
    def test_ls_and_prune(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["security-sweep", "--rates", "6,8,10",
                     "--store", store]) == 0
        capsys.readouterr()
        assert main(["store", "ls", store]) == 0
        out = capsys.readouterr().out
        assert "security" in out and "v1" in out
        assert "total 6 entries: 6 live, 0 stale, 0 corrupt" in out
        assert "prune" not in out  # nothing to clean, no hint
        # Corrupt one entry; ls flags it, prune --dry-run keeps it.
        victim = os.path.join(
            store, sorted(os.listdir(store))[0]
        )
        with open(victim, "w", encoding="utf-8") as handle:
            handle.write("{ nope")
        assert main(["store", "ls", store, "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "5 live, 0 stale, 1 corrupt" in out
        assert "unreadable or truncated payload" in out
        assert "repro store prune" in out
        assert main(["store", "prune", store, "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would remove 1 entries" in out
        assert os.path.exists(victim)
        assert main(["store", "prune", store]) == 0
        out = capsys.readouterr().out
        assert "removed 1 entries" in out
        assert not os.path.exists(victim)
        assert main(["store", "ls", store]) == 0
        assert "5 live, 0 stale, 0 corrupt" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["ls", "prune"])
    def test_missing_store_is_an_error_not_created(self, command, tmp_path):
        missing = str(tmp_path / "typo")
        with pytest.raises(SystemExit, match="no result store at"):
            main(["store", command, missing])
        assert not os.path.exists(missing)
