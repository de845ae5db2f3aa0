"""Resolving figure specs against the result store.

The planner is the thin layer between the figure registry and the
experiment engine: :func:`build_figure` asks a registered builder for
its :class:`~repro.report.spec.FigureSpec`, :func:`resolve_figure`
runs every contained :class:`~repro.sim.experiment.ExperimentSpec`
through :func:`~repro.sim.experiment.run_grid` — with the shared
:class:`~repro.sim.store.ResultStore`, so only cells the store does
not already hold are executed — and :func:`render_figure` hands the
merged results to the spec's render hook.

Resolution composes with everything the engine already does:

- ``store``/``reuse`` make a repeated report incremental (the second
  run of ``repro report --all`` executes zero cells);
- ``shard=(i, n)`` restricts execution to one digest-stable slice of
  every figure's grid, so N hosts split a full-paper reproduction with
  no coordination — every figure's data are cells, so the shards cover
  all of it. The hosts share a store, or each fills its own and the
  ``*.json`` files are copied into one. Rendering needs the full grid,
  so shard runs skip artifacts — a final unsharded pass reads
  everything back and emits them;
- ``jobs`` fans cells out over the engine's process pool
  (:mod:`repro.sim.pool`).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, Union

from repro.registry import FIGURES, FigureInfo
from repro.report.render import Artifact
from repro.report.spec import FigureData, FigureSpec, ReportConfig
from repro.sim.experiment import ResultSet, RunStats, run_grid
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


def resolve_figure(
    spec: FigureSpec,
    store: Optional[Union[str, ResultStore]] = None,
    jobs: Optional[int] = None,
    reuse: bool = True,
    shard: Optional[Tuple[int, int]] = None,
    progress: Optional[Callable[[int, int, object], None]] = None,
) -> FigureData:
    """Execute (only) the missing cells of a figure and collect its data.

    Every experiment spec runs through the engine with the shared
    ``store``: cells already present are reused bit-identically, newly
    computed ones are persisted the moment they complete. The returned
    :class:`FigureData` carries the merged result set and a summed
    :class:`~repro.sim.experiment.RunStats` (``stats.executed == 0``
    means the store served everything; ``stats.workers`` is the widest
    grid's pool).

    With ``shard`` the run covers one slice of each grid.
    """
    if isinstance(store, str):
        store = ResultStore(store)
    sets: List[ResultSet] = []
    planned = executed = reused = 0
    workloads = None
    chunks = workers = None
    for experiment in spec.specs:
        results = run_grid(
            experiment,
            max_workers=jobs,
            progress=progress,
            store=store,
            reuse=reuse,
            shard=shard,
        )
        stats = results.run_stats
        planned += stats.planned
        executed += stats.executed
        reused += stats.reused
        if stats.workloads is not None:
            workloads = (
                stats.workloads if workloads is None
                else workloads + stats.workloads
            )
        if stats.chunks is not None:
            chunks = stats.chunks if chunks is None else chunks + stats.chunks
        if stats.workers is not None:
            workers = max(workers or 0, stats.workers)
        sets.append(results)
    merged = sets[0].merge(*sets[1:]) if sets else ResultSet([])
    return FigureData(
        results=merged,
        config=spec.config or ReportConfig(),
        stats=RunStats(
            planned=planned, executed=executed, reused=reused, shard=shard,
            workloads=workloads, chunks=chunks, workers=workers,
        ),
    )


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
