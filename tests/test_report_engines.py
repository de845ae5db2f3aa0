"""One contract sweep over the whole report plan.

Results depend on parameters alone: every distinct ``perf`` cell that
``repro report --all`` plans must give the same result under the
``scalar`` engine run serially and under the ``auto`` (batched) engine
run on a process pool. The two runs differ in ``params.engine`` only,
so that field is dropped from the comparison; everything else — per-core
clocks and IPC, swaps, busy time, activation peaks — must match to the
last bit.

The plan is swept at two scales. At 300 requests x 1 core (the cheap
store-backed report) no cell lasts more than 6% of a refresh window, so
no window ever rolls. The same plan at 3000 requests and
``time_scale=1024`` (a 62.5 us window, thresholds at their floor) rolls
windows inside the cells, where the batched engine's in-loop window roll
and the designs' epoch work (the no-unswap unravel, the SRS and
Scale-SRS place-backs) run.
"""

from dataclasses import replace

import pytest

import repro.report  # noqa: F401  (registers the figures)
from repro.registry import FIGURES
from repro.report.planner import build_figure
from repro.report.spec import ReportConfig
from repro.sim.experiment import PERF, _run_cell, plan_cells
from repro.sim.pool import PoolTask, ProcessPool, SerialPool

CONFIGS = {
    "report-300x1": ReportConfig(requests=300, cores=1),
    "rolling-windows": ReportConfig(requests=3000, cores=1, time_scale=1024),
}


def report_perf_cells(config):
    """Every distinct ``perf`` cell the report plans under ``config``,
    in first-seen order."""
    cells = {}
    for name in FIGURES.names():
        _, spec = build_figure(name, config)
        for experiment in spec.specs:
            if experiment.kind == PERF:
                cells.update(dict.fromkeys(plan_cells(experiment)))
    return list(cells)


def run_cells(cells, engine, pool):
    """Run ``cells`` under ``engine`` on ``pool``; results in cell order,
    each with ``params.engine`` reset to ``scalar``."""
    pending = [
        (position, replace(cell, params=replace(cell.params, engine=engine)))
        for position, cell in enumerate(cells)
    ]
    recorded = {}
    pool.run(PoolTask(pending, _run_cell, recorded.update))
    return [
        replace(
            recorded[position],
            params=replace(recorded[position].params, engine="scalar"),
        )
        for position in range(len(cells))
    ]


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
def test_every_report_perf_cell_is_engine_and_backend_independent(config):
    cells = report_perf_cells(config)
    # Every figure family is covered: all designs and both trackers.
    assert len(cells) > 150
    assert {cell.mitigation for cell in cells} >= {
        "baseline", "rrs", "rrs-no-unswap", "srs", "scale-srs",
    }
    assert {cell.params.tracker for cell in cells} == {"misra-gries", "hydra"}

    serial = run_cells(cells, "scalar", SerialPool())
    pooled = run_cells(cells, "auto", ProcessPool(2))

    mismatched = [
        (cell.workload, cell.mitigation, cell.params.trh, cell.params.tracker)
        for cell, a, b in zip(cells, serial, pooled)
        if a != b
    ]
    assert mismatched == []
