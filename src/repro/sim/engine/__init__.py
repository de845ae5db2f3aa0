"""Staged simulation engines: one interface, two schedules.

The performance simulator delegates its hot loop to an *engine*
(:class:`~repro.sim.engine.base.Engine`). Both engines run over traces
pre-decoded once per workload. The ``scalar`` engine is the reference
schedule; the ``batched`` engine partitions traces into non-interacting
spans and services eligible spans on a fused fast path. Both are
bit-identical by contract — choosing an engine is a speed decision,
never a model decision (see DESIGN.md, "Engine").

Select an engine per run via ``SimulationParams(engine=...)`` or
``--engine {scalar,batched,auto}`` on the CLI; ``auto`` consults the
registry's ``supports_batching`` metadata and picks ``batched`` exactly
when the mitigation (and, if one is used, the tracker) declares a useful
batch horizon. Parameter sets that name no engine run ``scalar``, the
reference schedule.
"""

from __future__ import annotations

from repro.registry import MITIGATIONS, TRACKERS
from repro.sim.engine.base import Engine
from repro.sim.engine.batched import BatchedEngine
from repro.sim.engine.scalar import ScalarEngine

#: Engine names accepted by ``SimulationParams.engine`` and ``--engine``.
ENGINE_NAMES = ("scalar", "batched", "auto")


def resolve_engine_name(engine: str, mitigation: str, tracker: str) -> str:
    """Resolve ``auto`` to a concrete engine name for one simulation.

    ``auto`` selects ``batched`` exactly when the registered mitigation
    declares ``supports_batching`` and either uses no tracker or uses a
    tracker that also declares it; everything else runs scalar (the
    batched engine would only fall through access by access anyway).
    """
    if engine not in ENGINE_NAMES:
        raise ValueError(f"unknown engine {engine!r}; options: {ENGINE_NAMES}")
    if engine != "auto":
        return engine
    info = MITIGATIONS.get(mitigation)
    if not info.supports_batching:
        return "scalar"
    if info.uses_tracker and not TRACKERS.get(tracker).supports_batching:
        return "scalar"
    return "batched"


def make_engine(engine: str, mitigation: str, tracker: str) -> Engine:
    """Build the engine instance for one simulation's parameters."""
    name = resolve_engine_name(engine, mitigation, tracker)
    if name == "batched":
        return BatchedEngine()
    return ScalarEngine()


__all__ = [
    "ENGINE_NAMES",
    "Engine",
    "BatchedEngine",
    "ScalarEngine",
    "make_engine",
    "resolve_engine_name",
]
