"""Resolving figure specs against the result store.

The planner is the thin layer between the figure registry and the
experiment engine: :func:`build_figure` asks a registered builder for
its :class:`~repro.report.spec.FigureSpec`, :func:`resolve_report`
runs every grid of every figure it is given through one
:func:`~repro.sim.experiment.run_grid` call — one deduplicated plan,
one store scan and one pool, so a cell several figures share runs
once and only cells the :class:`~repro.sim.store.ResultStore` does not
already hold are executed — and :func:`render_figure` hands each
figure's results to the spec's render hook.

Resolution composes with everything the engine already does:

- ``store``/``reuse`` make a repeated report incremental (the second
  run of ``repro report --all`` executes zero cells);
- ``shard=(i, n)`` restricts execution to one digest-stable slice of
  the report's plan, so N hosts split a full-paper reproduction with
  no coordination — every figure's data are cells, so the shards cover
  all of it. The hosts share a store, or each fills its own and the
  ``*.json`` files are copied into one. Rendering needs the full grid,
  so shard runs skip artifacts — a final unsharded pass reads
  everything back and emits them;
- ``jobs`` caps the engine's process pool (:mod:`repro.sim.pool`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.registry import FIGURES, FigureInfo
from repro.report.render import Artifact
from repro.report.spec import FigureData, FigureSpec, ReportConfig
from repro.sim.experiment import ResultSet, RunStats, plan_cells, run_grid
from repro.sim.store import ResultStore


def build_figure(
    name: str, config: Optional[ReportConfig] = None
) -> Tuple[FigureInfo, FigureSpec]:
    """Build the registered figure ``name`` under ``config``.

    Returns the registry record alongside the built spec; unknown
    names raise with the registered options listed.
    """
    info = FIGURES.get(name)
    config = config or ReportConfig()
    spec = info.builder(config)
    if spec.config is None:
        spec.config = config
    return info, spec


def resolve_report(
    specs: Sequence[FigureSpec],
    store: Optional[Union[str, ResultStore]] = None,
    jobs: Optional[int] = None,
    reuse: bool = True,
    shard: Optional[Tuple[int, int]] = None,
) -> List[FigureData]:
    """Execute (only) the missing cells of several figures, as one plan.

    Every grid of every figure goes to one
    :func:`~repro.sim.experiment.run_grid` call, so a cell the figures
    share is looked up and computed once; cells already in ``store``
    are reused bit-identically, new ones persisted as they complete.

    Returns one :class:`FigureData` per spec, in order, holding that
    figure's results in its own plan order and its own
    :class:`~repro.sim.experiment.RunStats`: a cell counts as executed
    by the first figure that plans it, if this run computed it, and as
    reused everywhere else. ``stats.workloads`` and ``stats.workers``
    describe the one run behind every figure. With ``shard`` each
    figure covers its cells in that slice.
    """
    results = run_grid(
        *(grid for spec in specs for grid in spec.specs),
        max_workers=jobs,
        store=store,
        reuse=reuse,
        shard=shard,
    )
    run = results.run_stats
    result_of = dict(zip(run.cells, results))
    seen = set()
    figures = []
    for spec in specs:
        cells = tuple(dict.fromkeys(
            cell
            for grid in spec.specs
            for cell in plan_cells(grid)
            if cell in result_of
        ))
        fresh = run.fresh.intersection(cells).difference(seen)
        seen.update(cells)
        figures.append(FigureData(
            results=ResultSet([result_of[cell] for cell in cells]),
            config=spec.config or ReportConfig(),
            stats=RunStats(
                planned=len(cells),
                executed=len(fresh),
                reused=len(cells) - len(fresh),
                shard=shard,
                workloads=run.workloads,
                workers=run.workers,
                cells=cells,
                fresh=fresh,
            ),
        ))
    return figures


def resolve_figure(
    spec: FigureSpec,
    store: Optional[Union[str, ResultStore]] = None,
    jobs: Optional[int] = None,
    reuse: bool = True,
    shard: Optional[Tuple[int, int]] = None,
) -> FigureData:
    """:func:`resolve_report` for one figure."""
    return resolve_report(
        [spec], store=store, jobs=jobs, reuse=reuse, shard=shard
    )[0]


def render_figure(
    info: FigureInfo, spec: FigureSpec, data: FigureData
) -> Artifact:
    """Render resolved data through the spec's hook, stamped with the
    registry record's name/title/kind."""
    artifact = spec.render(data)
    if not isinstance(artifact, Artifact):
        raise TypeError(
            f"figure {info.name!r}: render hook returned "
            f"{type(artifact).__name__}, expected Artifact"
        )
    artifact.name = info.name
    artifact.title = info.title
    artifact.kind = info.artifact
    return artifact


def reproduce_figure(
    name: str,
    config: Optional[ReportConfig] = None,
    store: Optional[Union[str, ResultStore]] = None,
    jobs: Optional[int] = None,
) -> Tuple[FigureData, Artifact]:
    """Build, resolve, and render one figure — the one-call form the
    benchmark tier uses (``data`` for assertions, ``artifact`` for the
    human-readable reproduction)."""
    info, spec = build_figure(name, config)
    data = resolve_figure(spec, store=store, jobs=jobs)
    return data, render_figure(info, spec, data)
