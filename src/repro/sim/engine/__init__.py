"""Staged simulation engines: one interface, two schedules.

The performance simulator delegates its hot loop to an *engine*
(:class:`~repro.sim.engine.base.Engine`). Both engines run over traces
pre-decoded once per workload. The ``scalar`` engine is the reference
schedule; the batched engine (selected by ``auto``) partitions traces
into non-interacting spans and services eligible spans on a fused fast
path. Both are bit-identical by contract — choosing an engine is a speed
decision, never a model decision (see DESIGN.md, "Engine").

Select an engine per run via ``SimulationParams(engine=...)`` or
``--engine {scalar,auto}`` on the CLI. ``auto`` always runs the batched
engine: whether a span can fuse is decided by each design's live batch
contract at every refresh window, and a cell where no bank can fuse runs
the same per-access step as ``scalar``. Parameter sets that name no
engine run ``scalar``, the reference schedule.
"""

from __future__ import annotations

from repro.sim.engine.base import Engine
from repro.sim.engine.batched import BatchedEngine
from repro.sim.engine.scalar import ScalarEngine

_ENGINES = {"scalar": ScalarEngine, "auto": BatchedEngine}

#: Engine names accepted by ``SimulationParams.engine`` and ``--engine``.
ENGINE_NAMES = tuple(_ENGINES)


def _engine_class(engine: str) -> type:
    try:
        return _ENGINES[engine]
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r}; options: {ENGINE_NAMES}"
        ) from None


def resolve_engine_name(engine: str, mitigation: str, tracker: str) -> str:
    """Resolve an engine name to the ``name`` of the engine that runs.

    ``auto`` resolves to ``batched`` for every mitigation and tracker;
    the design names are accepted so callers can record what ran for a
    given cell.
    """
    return _engine_class(engine).name


def make_engine(engine: str) -> Engine:
    """Build the engine instance for one simulation's ``engine`` name."""
    return _engine_class(engine)()


__all__ = [
    "ENGINE_NAMES",
    "Engine",
    "BatchedEngine",
    "ScalarEngine",
    "make_engine",
    "resolve_engine_name",
]
