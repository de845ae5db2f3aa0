"""Shared harness for the figure-reproduction benchmarks.

Every benchmark reproduces one figure registered in
:mod:`repro.report.figures`: the spec declares the experiment grids,
resolution runs only the cells the session's shared store
(``figure_store`` fixture) does not already hold, and the render hook
produces the printed artifact. The benchmark file itself is reduced to
assertions over the resolved :class:`~repro.report.spec.FigureData`.

The harness scales the report config from environment knobs (the
``repro report`` command takes its scale from flags only):

- ``REPRO_BENCH_REQUESTS``: requests per core (default 25000).
- ``REPRO_BENCH_CORES``: simulated cores (default 4).
- ``REPRO_BENCH_FULL``: set to 1 to run every one of the 78 workloads
  (slow; tens of minutes).
- ``REPRO_BENCH_JOBS``: worker processes for the grid engine (default:
  the machine's CPU count).
- ``REPRO_RESULT_STORE``: persistent warm store shared across sessions
  (see ``benchmarks/conftest.py``).
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from repro.report import Artifact, FigureData, ReportConfig, reproduce_figure


def config_from_env() -> ReportConfig:
    """The report config the ``REPRO_BENCH_*`` knobs above describe."""
    values: dict = {}
    if "REPRO_BENCH_REQUESTS" in os.environ:
        values["requests"] = int(os.environ["REPRO_BENCH_REQUESTS"])
    if "REPRO_BENCH_CORES" in os.environ:
        values["cores"] = int(os.environ["REPRO_BENCH_CORES"])
    if os.environ.get("REPRO_BENCH_FULL", "0") == "1":
        values["full"] = True
    return ReportConfig(**values)


#: The session's scaled-down simulation knobs, shared by every figure.
CONFIG = config_from_env()

#: Engine worker processes (None = CPU count).
JOBS: Optional[int] = (
    int(os.environ["REPRO_BENCH_JOBS"])
    if "REPRO_BENCH_JOBS" in os.environ
    else None
)


def reproduce(name: str, store: str) -> Tuple[FigureData, Artifact]:
    """Reproduce the registered figure ``name`` against ``store``.

    Prints the rendered artifact plus the engine's executed/reused cell
    accounting, and returns both halves: ``data`` for assertions,
    ``artifact`` for golden-output checks.
    """
    data, artifact = reproduce_figure(name, CONFIG, store=store, jobs=JOBS)
    print()
    print(artifact.to_markdown())
    stats = data.stats
    print(
        f"{name}: executed {stats.executed}, reused {stats.reused} of "
        f"{stats.planned} cells"
    )
    return data, artifact
