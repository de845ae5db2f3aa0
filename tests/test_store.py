"""Tests for the content-addressed result store and grid sharding."""

import dataclasses
import json
import os
from typing import ClassVar

import pytest

import repro.sim.experiment as experiment
from repro.registry import EVALUATIONS, register_evaluation
from repro.sim import (
    ExperimentSpec,
    ResultStore,
    SecurityParams,
    SecurityResult,
    SimulationParams,
    cell_digest,
    parse_shard,
    plan_cells,
    run_grid,
    shard_of,
)

# Six analytical security cells: a few milliseconds to compute.
SECURITY = ExperimentSpec(
    kind="security",
    mitigations=["rrs", "srs"],
    base_params=SecurityParams(iterations=0),
    grid={"trh": [4800, 2400, 1200]},
)

PERF = ExperimentSpec(
    workloads=["povray"],
    mitigations=["rrs"],
    base_params=SimulationParams(
        trh=1200, num_cores=1, requests_per_core=1500, time_scale=32, seed=7
    ),
)


# Module-level (picklable) pieces for the parallel-failure test: a kind
# whose "boom" subject always raises.
@dataclasses.dataclass(frozen=True)
class FlakyParams:
    trh: int = 0


@dataclasses.dataclass
class FlakyResult:
    kind: ClassVar[str] = "flaky-kind"

    workload: str
    mitigation: str
    trh: int
    params: object = None


def run_flaky_cell(cell):
    if cell.mitigation == "boom":
        raise RuntimeError("boom")
    return FlakyResult(cell.workload, cell.mitigation, cell.params.trh,
                       cell.params)


def entry_files(store_dir):
    return sorted(
        name for name in os.listdir(str(store_dir)) if name.endswith(".json")
    )


class TestDigest:
    def test_digest_is_stable_and_param_sensitive(self):
        cells = plan_cells(SECURITY)
        assert cell_digest(cells[0]) == cell_digest(cells[0])
        digests = {cell_digest(c) for c in cells}
        assert len(digests) == len(cells)  # every cell gets its own key

    def test_digest_ignores_the_perf_engine(self):
        """Engines are bit-identical by contract, so a store filled
        under one engine must serve resumes under the other."""
        def cell_for(engine):
            spec = dataclasses.replace(
                PERF, base_params=dataclasses.replace(
                    PERF.base_params, engine=engine
                )
            )
            return plan_cells(spec)[-1]

        scalar, batched = cell_for("scalar"), cell_for("auto")
        assert cell_digest(scalar) == cell_digest(batched)

    def test_store_serves_across_engines(self, tmp_path):
        store = str(tmp_path / "store")
        run_grid(PERF, max_workers=1, store=store)
        other = dataclasses.replace(
            PERF, base_params=dataclasses.replace(
                PERF.base_params, engine="auto"
            )
        )
        resumed = run_grid(other, max_workers=1, store=store)
        assert resumed.run_stats.executed == 0

    def test_merge_dedups_across_engines(self):
        scalar = run_grid(PERF, max_workers=1)
        batched = run_grid(
            dataclasses.replace(
                PERF, base_params=dataclasses.replace(
                    PERF.base_params, engine="auto"
                )
            ),
            max_workers=1,
        )
        assert len(scalar.merge(batched)) == len(scalar)

    def test_trace_recording_changes_invalidate_stored_cells(self, tmp_path):
        """Re-recording a trace under the same path must change the cell
        digest — otherwise --resume would silently serve results for the
        old contents."""
        from repro.sim import SimulationParams, record_workload
        from repro.sim.experiment import resolve_workload

        out_dir = str(tmp_path / "rec")
        record_params = SimulationParams(
            num_cores=1, requests_per_core=400, seed=3
        )
        record_workload(resolve_workload("povray"), record_params,
                        out_dir=out_dir)
        spec = ExperimentSpec(
            workloads=[f"trace:{out_dir}"],
            mitigations=["rrs"],
            base_params=dataclasses.replace(
                PERF.base_params, requests_per_core=400
            ),
        )
        before = [cell_digest(c) for c in plan_cells(spec)]
        assert before == [cell_digest(c) for c in plan_cells(spec)]
        shards_before = [shard_of(c, 4) for c in plan_cells(spec)]
        record_workload(
            resolve_workload("povray"),
            dataclasses.replace(record_params, seed=4),
            out_dir=out_dir,
        )
        after = [cell_digest(c) for c in plan_cells(spec)]
        assert all(a != b for a, b in zip(after, before))
        # ...but shard membership is fingerprint-free: machines holding
        # the trace under different mtimes agree on the partition.
        assert [shard_of(c, 4) for c in plan_cells(spec)] == shards_before

    def test_digest_covers_the_kind(self):
        """Two kinds sharing a parameter class, subject and scenario
        still key their cells apart."""
        register_evaluation(
            "security-twin",
            params_cls=SecurityParams,
            result_cls=SecurityResult,
            subjects=("rrs",),
            scenario="juggernaut",
        )(lambda cell: None)
        try:
            security_cell = plan_cells(SECURITY)[0]
            twin_cell = dataclasses.replace(security_cell, kind="security-twin")
            assert cell_digest(security_cell) != cell_digest(twin_cell)
        finally:
            EVALUATIONS.remove("security-twin")


class TestSharding:
    def test_partition_complete_and_disjoint(self):
        cells = plan_cells(SECURITY)
        for count in (1, 2, 3, 5):
            shards = [
                [c for c in cells if shard_of(c, count) == i]
                for i in range(count)
            ]
            assert sum(len(s) for s in shards) == len(cells)
            digests = [cell_digest(c) for shard in shards for c in shard]
            assert len(set(digests)) == len(cells)

    def test_partition_is_axis_stable(self):
        """Extending a grid axis never migrates existing cells between
        shards (the digest depends on the cell alone)."""
        small = plan_cells(SECURITY)
        grown = plan_cells(
            dataclasses.replace(SECURITY, grid={"trh": [4800, 2400, 1200, 600]})
        )
        before = {cell_digest(c): shard_of(c, 4) for c in small}
        after = {cell_digest(c): shard_of(c, 4) for c in grown}
        for digest, shard in before.items():
            assert after[digest] == shard

    def test_shard_runs_merge_into_the_full_grid(self, tmp_path):
        full = run_grid(SECURITY, max_workers=1)
        store = str(tmp_path / "store")
        parts = [
            run_grid(SECURITY, max_workers=1, store=store, shard=(i, 3))
            for i in range(3)
        ]
        assert sum(len(p) for p in parts) == len(full)
        merged = parts[0].merge(*parts[1:])
        assert {cell_digest(c) for c in plan_cells(SECURITY)} == {
            name[: -len(".json")] for name in entry_files(store)
        }
        # A final resume pass collects everything without executing.
        collected = run_grid(SECURITY, max_workers=1, store=store)
        assert collected.run_stats.executed == 0
        assert collected.to_json() == full.to_json()
        assert len(merged) == len(full)

    def test_bad_shard_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            run_grid(SECURITY, max_workers=1, shard=(3, 3))

    def test_parse_shard(self):
        assert parse_shard("0/4") == (0, 4)
        assert parse_shard("3/4") == (3, 4)
        for bad in ("4/4", "x/4", "2", "-1/4", "0/0"):
            with pytest.raises(ValueError):
                parse_shard(bad)


class TestResultStore:
    def test_round_trip_bit_identical(self, tmp_path):
        store = str(tmp_path / "store")
        first = run_grid(SECURITY, max_workers=1, store=store)
        assert first.run_stats.executed == len(first)
        second = run_grid(SECURITY, max_workers=1, store=store)
        assert second.run_stats.executed == 0
        assert second.run_stats.reused == len(first)
        assert second.to_json() == first.to_json()

    def test_resume_after_kill_executes_only_missing_cells(
        self, tmp_path, monkeypatch
    ):
        """The acceptance pin: kill a grid partway, rerun with the same
        store — only the missing cells execute, and the final set is
        bit-identical to an uninterrupted run."""
        uninterrupted = run_grid(SECURITY, max_workers=1)
        store_dir = tmp_path / "store"
        run_grid(SECURITY, max_workers=1, store=str(store_dir))
        # Simulate the kill: drop some completed cells from the store.
        killed = entry_files(store_dir)[::2]
        for name in killed:
            os.unlink(str(store_dir / name))

        executed = []
        original = experiment._run_cell

        def counting(cell):
            executed.append(cell_digest(cell))
            return original(cell)

        monkeypatch.setattr(experiment, "_run_cell", counting)
        resumed = run_grid(SECURITY, max_workers=1, store=str(store_dir))
        assert sorted(executed) == sorted(n[: -len(".json")] for n in killed)
        assert resumed.run_stats.executed == len(killed)
        assert resumed.to_json() == uninterrupted.to_json()

    def test_corrupt_entry_is_a_miss_and_heals(self, tmp_path):
        store_dir = tmp_path / "store"
        first = run_grid(SECURITY, max_workers=1, store=str(store_dir))
        victim = str(store_dir / entry_files(store_dir)[0])
        with open(victim, "w", encoding="utf-8") as handle:
            handle.write('{"kind": "security", truncated')
        healed = run_grid(SECURITY, max_workers=1, store=str(store_dir))
        assert healed.run_stats.executed == 1
        assert healed.to_json() == first.to_json()
        # The rewritten entry parses again.
        with open(victim, encoding="utf-8") as handle:
            assert json.load(handle)["kind"] == "security"

    def test_schema_version_mismatch_is_a_miss(self, tmp_path):
        store_dir = tmp_path / "store"
        run_grid(SECURITY, max_workers=1, store=str(store_dir))
        victim = str(store_dir / entry_files(store_dir)[0])
        with open(victim, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["schema_version"] = 999
        with open(victim, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        rerun = run_grid(SECURITY, max_workers=1, store=str(store_dir))
        assert rerun.run_stats.executed == 1

    def test_parallel_run_persists_every_cell(self, tmp_path):
        """Parallel execution writes each result as it completes (not in
        plan order), so every completed cell survives a kill; the
        returned set still equals the serial run bit-for-bit."""
        store_dir = tmp_path / "store"
        parallel = run_grid(SECURITY, max_workers=2, store=str(store_dir))
        assert len(entry_files(store_dir)) == len(parallel)
        assert parallel.to_json() == run_grid(SECURITY, max_workers=1).to_json()

    def test_parallel_failure_still_persists_completed_cells(self, tmp_path):
        """One failing cell must not discard in-flight successes: the
        run raises (naming the cell), but every completed cell reaches
        the store, so a later resume recomputes only the failure."""
        register_evaluation(
            "flaky-kind",
            params_cls=FlakyParams,
            result_cls=FlakyResult,
            subjects=("ok", "boom", "also-ok"),
        )(run_flaky_cell)
        try:
            spec = ExperimentSpec(
                kind="flaky-kind",
                mitigations=["ok", "boom", "also-ok"],
                base_params=FlakyParams(),
            )
            store_dir = tmp_path / "store"
            with pytest.raises(RuntimeError, match="boom"):
                run_grid(spec, max_workers=2, store=str(store_dir))
            assert len(entry_files(store_dir)) == 2
        finally:
            EVALUATIONS.remove("flaky-kind")

    def test_reuse_false_recomputes(self, tmp_path):
        store = str(tmp_path / "store")
        run_grid(SECURITY, max_workers=1, store=store)
        rerun = run_grid(SECURITY, max_workers=1, store=store, reuse=False)
        assert rerun.run_stats.executed == len(rerun)

    def test_store_accepts_instance(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        results = run_grid(SECURITY, max_workers=1, store=store)
        assert len(store) == len(results)
        assert plan_cells(SECURITY)[0] in store

    def test_perf_results_round_trip_bit_identically(self, tmp_path):
        """Simulation results (floats, per-core records) must come back
        from the store exactly — reuse may never perturb numbers."""
        store_dir = tmp_path / "store"
        store = str(store_dir)
        fresh = run_grid(PERF, max_workers=1, store=store)
        assert fresh.run_stats.executed == 2  # baseline + rrs
        reused = run_grid(PERF, max_workers=1, store=store)
        assert reused.run_stats.executed == 0
        assert reused.to_json() == fresh.to_json()
        assert reused.normalized_table() == fresh.normalized_table()
        # Kill simulation on the perf grid itself: drop one completed
        # cell; the resume executes exactly it and stays bit-identical.
        os.unlink(str(store_dir / entry_files(store_dir)[0]))
        resumed = run_grid(PERF, max_workers=1, store=store)
        assert resumed.run_stats.executed == 1
        assert resumed.run_stats.reused == 1
        assert resumed.to_json() == fresh.to_json()

    def test_security_mc_results_round_trip(self, tmp_path):
        store = str(tmp_path / "store")
        spec = ExperimentSpec(
            kind="security",
            mitigations=["rrs"],
            base_params=SecurityParams(
                trh=4800, rows_per_bank=4096, iterations=1000,
                probe_windows=3000, step=200,
            ),
        )
        fresh = run_grid(spec, max_workers=1, store=store)
        reused = run_grid(spec, max_workers=1, store=store)
        assert reused.run_stats.reused == 1
        assert reused.to_json() == fresh.to_json()


class TestCopiedStore:
    """Per-host stores combine by copying ``*.json`` files, because
    every read checks that an entry's ``cell`` record hashes to its
    file name: a copied entry is served only if it is the cell it
    claims to be."""

    def fill(self, store_dir, spec=SECURITY, shard=None):
        run_grid(spec, max_workers=1, store=str(store_dir), shard=shard)
        return store_dir

    def cell_of(self, entry_name):
        """The SECURITY cell stored under ``entry_name``."""
        return {
            cell_digest(cell) + ".json": cell for cell in plan_cells(SECURITY)
        }[entry_name]

    def copy_entries(self, source, dest):
        dest.mkdir(exist_ok=True)
        for name in entry_files(source):
            (dest / name).write_bytes((source / name).read_bytes())

    def test_copied_store_serves_a_resume_with_no_executions(self, tmp_path):
        dest = self.fill(tmp_path / "s0", shard=(0, 2))
        source = self.fill(tmp_path / "s1", shard=(1, 2))
        self.copy_entries(source, dest)
        self.copy_entries(source, dest)  # copying twice changes nothing
        assert len(entry_files(dest)) == 6
        assert ResultStore(str(dest)).inventory().live == {("security", 1): 6}
        resumed = run_grid(SECURITY, max_workers=1, store=str(dest))
        assert resumed.run_stats.executed == 0
        assert resumed.to_json() == run_grid(SECURITY, max_workers=1).to_json()

    def test_renamed_entry_is_a_miss(self, tmp_path):
        """An entry copied in under a name its payload does not hash to
        is never served, and prune deletes it."""
        store_dir = self.fill(tmp_path / "store")
        victim = entry_files(store_dir)[0]
        bogus = "0" * 64 + ".json"
        os.rename(str(store_dir / victim), str(store_dir / bogus))
        store = ResultStore(str(store_dir))
        assert dict(store.inventory().stale) == {
            str(store_dir / bogus): "payload does not hash to its file name"
        }
        assert store.get(self.cell_of(victim)) is None
        resumed = run_grid(SECURITY, max_workers=1, store=store)
        assert (resumed.run_stats.executed, resumed.run_stats.reused) == (1, 5)
        assert [path for path, _ in store.prune()] == [str(store_dir / bogus)]
        assert store.inventory().live == {("security", 1): 6}

    def test_tampered_entry_is_a_miss(self, tmp_path):
        """An entry whose cell record was edited after it was written no
        longer hashes to its file name: it is a miss, and the rerun
        overwrites it with the true cell."""
        store_dir = self.fill(tmp_path / "store")
        victim = entry_files(store_dir)[0]
        with open(str(store_dir / victim), encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["cell"]["params"]["trh"] += 1
        with open(str(store_dir / victim), "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        store = ResultStore(str(store_dir))
        assert dict(store.inventory().stale) == {
            str(store_dir / victim): "payload does not hash to its file name"
        }
        assert store.get(self.cell_of(victim)) is None
        resumed = run_grid(SECURITY, max_workers=1, store=store)
        assert (resumed.run_stats.executed, resumed.run_stats.reused) == (1, 5)
        assert store.prune() == []
        assert store.inventory().live == {("security", 1): 6}

    def test_corrupt_and_stale_entries_are_misses(self, tmp_path):
        store_dir = self.fill(tmp_path / "store")
        names = entry_files(store_dir)
        with open(str(store_dir / names[0]), "w", encoding="utf-8") as handle:
            handle.write("{ truncated")
        with open(str(store_dir / names[1]), encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["schema_version"] = 999
        with open(str(store_dir / names[1]), "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        store = ResultStore(str(store_dir))
        assert store.get(self.cell_of(names[0])) is None
        assert store.get(self.cell_of(names[1])) is None
        resumed = run_grid(SECURITY, max_workers=1, store=store)
        assert (resumed.run_stats.executed, resumed.run_stats.reused) == (2, 4)

    def test_foreign_json_is_a_miss(self, tmp_path):
        """A copied file that is valid JSON but no entry (here an array)
        is a corrupt miss, not a crash."""
        store_dir = self.fill(tmp_path / "store")
        victim = entry_files(store_dir)[0]
        (store_dir / victim).write_text("[]")
        store = ResultStore(str(store_dir))
        assert store.get(self.cell_of(victim)) is None
        assert [path for path, _ in store.inventory().corrupt] == [
            str(store_dir / victim)
        ]
        resumed = run_grid(SECURITY, max_workers=1, store=store)
        assert (resumed.run_stats.executed, resumed.run_stats.reused) == (1, 5)

    def test_copied_trace_entries_verify(self, tmp_path):
        """Trace cells are addressed under a local content fingerprint,
        and the payload carries the same fingerprint-bearing key — so a
        copied trace store verifies and resumes with zero executions."""
        from repro.sim import record_workload
        from repro.sim.experiment import resolve_workload

        out_dir = str(tmp_path / "rec")
        record_workload(
            resolve_workload("povray"),
            SimulationParams(num_cores=1, requests_per_core=400, seed=3),
            out_dir=out_dir,
        )
        spec = ExperimentSpec(
            workloads=[f"trace:{out_dir}"],
            mitigations=["rrs"],
            base_params=dataclasses.replace(
                PERF.base_params, requests_per_core=400
            ),
        )
        source = self.fill(tmp_path / "source", spec=spec)
        dest = tmp_path / "dest"
        self.copy_entries(source, dest)
        inventory = ResultStore(str(dest)).inventory()
        assert inventory.live == {("perf", 1): 2}
        assert inventory.prunable == []
        resumed = run_grid(spec, max_workers=1, store=str(dest))
        assert resumed.run_stats.executed == 0
        assert resumed.run_stats.reused == 2

    def test_swapped_entries_are_misses(self, tmp_path, capsys):
        """Two entries whose contents trade places are both misses —
        never the other cell's result — and a resume rewrites both
        byte-identically."""
        from repro.cli import main

        store_dir = self.fill(tmp_path / "store")
        first, second = entry_files(store_dir)[:2]
        original = {
            name: (store_dir / name).read_bytes() for name in (first, second)
        }
        (store_dir / first).write_bytes(original[second])
        (store_dir / second).write_bytes(original[first])
        store = ResultStore(str(store_dir))
        assert store.get(self.cell_of(first)) is None
        assert store.get(self.cell_of(second)) is None
        assert main(["store", "ls", str(store_dir)]) == 0
        assert "4 live, 2 stale, 0 corrupt" in capsys.readouterr().out
        resumed = run_grid(SECURITY, max_workers=1, store=store)
        assert (resumed.run_stats.executed, resumed.run_stats.reused) == (2, 4)
        for name, data in original.items():
            assert (store_dir / name).read_bytes() == data
        assert resumed.to_json() == run_grid(SECURITY, max_workers=1).to_json()


class TestInventoryAndPrune:
    """Store maintenance: classify every entry, delete the dead ones."""

    def fill(self, tmp_path):
        store_dir = tmp_path / "store"
        run_grid(SECURITY, max_workers=1, store=str(store_dir))
        return store_dir, ResultStore(str(store_dir))

    def corrupt_one(self, store_dir, index=0):
        victim = str(store_dir / entry_files(store_dir)[index])
        with open(victim, "w", encoding="utf-8") as handle:
            handle.write("{ truncated")
        return victim

    def stale_one(self, store_dir, index=1, kind=None, version=999):
        victim = str(store_dir / entry_files(store_dir)[index])
        with open(victim, encoding="utf-8") as handle:
            payload = json.load(handle)
        if kind is not None:
            payload["kind"] = kind
        else:
            payload["schema_version"] = version
        with open(victim, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return victim

    def test_inventory_counts_live_per_kind(self, tmp_path):
        _, store = self.fill(tmp_path)
        report = store.inventory()
        assert report.live == {("security", 1): 6}
        assert report.stale == []
        assert report.corrupt == []
        assert report.total == 6
        assert report.prunable == []

    def test_inventory_flags_stale_and_corrupt(self, tmp_path):
        store_dir, store = self.fill(tmp_path)
        bad = self.corrupt_one(store_dir)
        old = self.stale_one(store_dir, index=1)
        alien = self.stale_one(store_dir, index=2, kind="no-such-kind")
        report = store.inventory()
        assert report.live == {("security", 1): 3}
        assert dict(report.corrupt)[bad] == "unreadable or truncated payload"
        stale = dict(report.stale)
        assert "current v1" in stale[old]
        assert "unknown evaluation kind" in stale[alien]
        assert report.total == 6
        assert {path for path, _ in report.prunable} == {bad, old, alien}

    def test_prune_dry_run_keeps_files(self, tmp_path):
        store_dir, store = self.fill(tmp_path)
        bad = self.corrupt_one(store_dir)
        removals = store.prune(dry_run=True)
        assert [path for path, _ in removals] == [bad]
        assert os.path.exists(bad)
        assert len(store) == 6

    def test_prune_removes_only_dead_entries(self, tmp_path):
        store_dir, store = self.fill(tmp_path)
        bad = self.corrupt_one(store_dir)
        old = self.stale_one(store_dir, index=1)
        removed = store.prune()
        assert {path for path, _ in removed} == {bad, old}
        assert not os.path.exists(bad)
        assert not os.path.exists(old)
        assert len(store) == 4
        assert store.inventory().live == {("security", 1): 4}
        # The grid heals the pruned cells and nothing else.
        rerun = run_grid(SECURITY, max_workers=1, store=store)
        assert rerun.run_stats.executed == 2
        assert rerun.run_stats.reused == 4

    def test_prune_empty_store(self, tmp_path):
        store = ResultStore(str(tmp_path / "empty"))
        assert store.prune() == []
        assert store.inventory().total == 0


class TestLegacyPackedStore:
    """A directory an older version folded into ``pack.seg`` is refused,
    never silently read as empty."""

    def test_pack_segment_is_refused_and_left_alone(self, tmp_path):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        segment = store_dir / "pack.seg"
        data = b"0" * 64 + b' {"kind": "security"}\n'
        segment.write_bytes(data)
        with pytest.raises(ValueError, match="pack.seg"):
            ResultStore(str(store_dir))
        with pytest.raises(ValueError, match="pack.seg"):
            run_grid(SECURITY, max_workers=1, store=str(store_dir))
        assert segment.read_bytes() == data
        assert os.listdir(str(store_dir)) == ["pack.seg"]
