"""Golden reference outputs: the simulator's numbers, pinned to the bit.

``test_engine_equivalence`` and ``test_engine_fuzz`` compare two engines
that share the per-access path (``Bank.access``,
``MemorySystem._service``, the trackers), so an edit to that shared
code shifts both engines together and passes them. These tests pin the
absolute output instead: the sha256 of ``ResultSet.to_json()`` for a
small perf grid run in-process, plus the full record of one ``hammer``
cell (the rig drives ``Bank.access`` directly). The perf digests are
checked under every engine, so a change that moves one engine's numbers
fails here even if the default engine never runs it.

A mismatch means the simulated numbers moved. Update a digest only for
an intended model change, and record the reason in the commit.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np

from repro.dram.commands import PagePolicy
from repro.sim.engine import ENGINE_NAMES
from repro.sim.evaluations import HammerParams
from repro.sim.experiment import ExperimentSpec, ResultSet, run_grid
from repro.sim.simulator import PerformanceSimulation, SimulationParams
from repro.workloads.columnar import ColumnarTrace

#: A 2-core gcc grid over every swap design, both page policies and
#: two trackers. The small window (time_scale 1024) makes every cell
#: roll refresh windows, and SRS/Scale-SRS place rows back; gcc's
#: writes exercise the write-queue drains.
PERF_GRID = ExperimentSpec(
    workloads=["gcc"],
    mitigations=["rrs", "srs", "scale-srs"],
    base_params=SimulationParams(
        num_cores=2,
        requests_per_core=3000,
        time_scale=1024,
        rows_per_bank=16_384,
        trh=4800,
        engine="scalar",
    ),
    grid={
        "policy": [PagePolicy.CLOSED, PagePolicy.OPEN],
        "tracker": ["misra-gries", "exact"],
    },
)
PERF_GRID_SHA256 = (
    "0c177bc19d3213b0565ade4f2a4bfed588fed5f44c3498b594bfba3f210b371a"
)

#: Scale-SRS against a two-row hammer: rows get pinned in the LLC.
PIN_SHA256 = (
    "8e80b564d35439cd13ff85914ff5978e97f1caf0f8b80aafdb5d1394b61e29bf"
)

HAMMER_RECORD = {
    "kind": "hammer",
    "workload": "hammer-rig",
    "mitigation": "scale-srs",
    "trh": 2000,
    "activations": 3000,
    "flipped_rows": [],
    "hottest_row": 100,
    "hottest_disturbance": 1332.0,
    "victim_refreshes": 0,
    "duration_ns": 145968.0,
    "params": {
        "pattern": "double-sided",
        "hammers": 3000,
        "radius": 1,
        "trh": 2000,
        "row": 100,
        "para_seed": 5,
        "swap_seed": 7,
    },
}


class TwoRowHammer:
    """One core reading rows 5 and 9 of bank 0 in turn."""

    name = "hammer"
    suite = "ADHOC"

    def arrays_for_core(self, core_id, params, organization):
        records = 6000
        return ColumnarTrace(
            gaps=np.full(records, 8, dtype=np.int64),
            is_write=np.zeros(records, dtype=bool),
            channel=np.zeros(records, dtype=np.int16),
            rank=np.zeros(records, dtype=np.int16),
            bank=np.zeros(records, dtype=np.int16),
            row=np.array([5, 9] * (records // 2), dtype=np.int32),
            column=np.zeros(records, dtype=np.int32),
        )


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_digest(results):
    """sha256 of the results' JSON as the scalar engine writes it.

    ``to_json()`` records ``params.engine``, the one field engines may
    differ in; it is reset to the recorded value before hashing."""
    return sha256(ResultSet([
        replace(result, params=replace(result.params, engine="scalar"))
        for result in results
    ]).to_json())


def test_perf_grid_digest():
    for engine in ENGINE_NAMES:
        spec = replace(
            PERF_GRID,
            base_params=replace(PERF_GRID.base_params, engine=engine),
        )
        results = run_grid(spec, max_workers=1)
        assert len(results) == 14
        assert sum(r.swaps for r in results) > 0
        assert sum(r.place_backs for r in results) > 0
        assert reference_digest(results) == PERF_GRID_SHA256, engine


def test_pinning_digest():
    for engine in ENGINE_NAMES:
        params = SimulationParams(
            num_cores=1,
            requests_per_core=6000,
            time_scale=64,
            rows_per_bank=16_384,
            trh=100,
            engine=engine,
        )
        result = PerformanceSimulation(TwoRowHammer(), "scale-srs", params).run()
        assert result.pins > 0
        assert result.llc_pin_hits > 0
        assert reference_digest([result]) == PIN_SHA256, engine


def test_hammer_cell_record():
    spec = ExperimentSpec(
        kind="hammer",
        mitigations=["scale-srs"],
        base_params=HammerParams(hammers=3000),
    )
    results = run_grid(spec, max_workers=1)
    assert json.loads(results.to_json())["results"] == [HAMMER_RECORD]
