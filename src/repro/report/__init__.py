"""The report pipeline: paper figures/tables as declarative store queries.

Every figure and table of the paper's evaluation is registered once
(:func:`repro.registry.register_figure`) as a builder producing a
:class:`~repro.report.spec.FigureSpec` — experiment grids plus a render
hook. Resolution queries the content-addressed
:class:`~repro.sim.store.ResultStore` and executes only missing cells,
so reproducing the full paper is incremental (rerunning a finished
report executes zero cells), resumable, and shardable across hosts::

    from repro.report import ReportConfig, reproduce_figure

    data, artifact = reproduce_figure(
        "fig14", ReportConfig(requests=5_000, cores=2), store="results/"
    )
    print(artifact.to_markdown())

The same definitions drive the ``repro report`` CLI command and the
``benchmarks/`` pytest tier; :mod:`repro.report.figures` holds the
built-in inventory.
"""

from repro.registry import FIGURES, FigureInfo, figure_names, register_figure
from repro.report.planner import (
    build_figure,
    render_figure,
    reproduce_figure,
    resolve_figure,
    resolve_report,
)
from repro.report.render import (
    Artifact,
    Table,
    format_value,
    write_artifact,
)
from repro.report.spec import (
    DETAILED_WORKLOADS,
    FigureData,
    FigureSpec,
    ReportConfig,
)

__all__ = [
    "FIGURES",
    "FigureInfo",
    "figure_names",
    "register_figure",
    "build_figure",
    "render_figure",
    "reproduce_figure",
    "resolve_figure",
    "resolve_report",
    "Artifact",
    "Table",
    "format_value",
    "write_artifact",
    "DETAILED_WORKLOADS",
    "FigureData",
    "FigureSpec",
    "ReportConfig",
]
