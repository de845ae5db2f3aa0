"""The workload plane: one workload per process, reused across cells.

The paper's evaluation replays each workload under every design at
several thresholds, so a grid is a few workloads, each replayed many
times. Every cell would otherwise pay a private fixed cost before its
first simulated access: resolve the workload, regenerate (or re-read)
the per-core columnar traces, and ``tolist`` the columns into the
engines' Python lists. The plane pays it once per workload instead:

1. **One slot** — each process keeps the last workload it
   materialized: its key, its per-core
   :class:`~repro.workloads.columnar.ColumnarTrace` arrays and their
   decoded lists. :func:`traces_for` serves the slot when the key
   matches and otherwise materializes the workload and replaces the
   slot. The key holds the same fingerprint-free ingredients the
   result store digests (workload identity + generation-relevant
   parameters + DRAM organization), plus ``store_fingerprint()`` for
   file-backed workloads, so re-recording a trace is a new key.
   :func:`decoded` keeps the engines' decoded lists in the same slot.
   A trace file is parsed only when a materialization misses the slot,
   and a rate-mode directory's one file is parsed once for all of its
   cores; nothing below the plane caches a parse.

2. **Grouped replay** — every backend runs a grid's pending cells
   grouped by workload key (:func:`workload_groups`), so the slot
   serves each repeat of a workload: :class:`~repro.sim.pool.SerialPool`
   in plan order within each group, and
   :class:`~repro.sim.pool.ProcessPool` submitting each group longest
   cell first (:func:`affinity_order`). A pool worker starts with an
   empty slot and builds each workload it replays itself; generation
   costs a few milliseconds per workload, so nothing is shipped
   between processes but cells and results.

Accounting flows through :class:`PlaneStats` (surfaced as the greppable
``workloads: generated N, decode hits K`` line); each pool worker
returns its counters' delta with every cell it ran, and the
coordinator sums them.
Results are identical to generating every cell from scratch (the plane
keeps exactly what generation would have produced), pinned by
``tests/test_plane.py`` against the direct ``arrays_for_core`` loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.workloads.columnar import ColumnarTrace
from repro.workloads.sources import resolve_workload
from repro.workloads.suites import WorkloadSpec

_STAT_FIELDS = ("generated", "trace_hits", "decode_hits")


@dataclass(frozen=True)
class PlaneStats:
    """Workload-plane accounting of one run (rolled into ``RunStats``).

    Attributes:
        generated: Workload materializations computed from scratch
            (synthetic generation or trace parse+decode).
        trace_hits: Materializations served by the process's slot.
        decode_hits: Per-core decoded lists (either engine) served
            from the slot instead of re-``tolist``-ing.
    """

    generated: int = 0
    trace_hits: int = 0
    decode_hits: int = 0

    def __add__(self, other: "PlaneStats") -> "PlaneStats":
        """Field-wise sum (aggregation across grids)."""
        return PlaneStats(
            *(
                getattr(self, name) + getattr(other, name)
                for name in _STAT_FIELDS
            )
        )

    def __sub__(self, other: "PlaneStats") -> "PlaneStats":
        """Field-wise difference (delta between two snapshots)."""
        return PlaneStats(
            *(
                getattr(self, name) - getattr(other, name)
                for name in _STAT_FIELDS
            )
        )

    def __bool__(self) -> bool:
        """True when the plane did anything at all this run."""
        return any(getattr(self, name) for name in _STAT_FIELDS)

    @property
    def line(self) -> str:
        """The greppable accounting line CLI runs and benchmarks print."""
        return (
            f"workloads: generated {self.generated}, decode hits "
            f"{self.decode_hits} (trace hits {self.trace_hits})"
        )


# ----------------------------------------------------------------------
# process-wide state
#
# One plane per process: the slot is module-level by design — a
# ProcessPool worker's slot must survive across the cells it runs.
# `reset()` (tests, worker initialization) empties it.

#: The empty slot. A slot is the last workload this process
#: materialized: its key, its per-core traces, and their decoded lists
#: by (stream, geometry) (see :func:`decoded`).
_EMPTY: Tuple[Optional[str], List[ColumnarTrace], Dict[Tuple, Any]] = (
    None, [], {},
)
_slot = _EMPTY
_local_stats: Dict[str, int] = {name: 0 for name in _STAT_FIELDS}


def _bump(name: str) -> None:
    """Increment one of this process's plane counters."""
    _local_stats[name] += 1


def local_stats() -> PlaneStats:
    """Snapshot of this process's plane counters."""
    return PlaneStats(**dict(_local_stats))


def reset() -> None:
    """Empty the slot and zero the counters (tests, pool-worker
    initializer).

    As a :class:`~repro.sim.pool.ProcessPool` initializer it makes a
    worker's accounting independent of the multiprocessing start
    method: a forked worker drops the slot it inherited from the
    coordinator and builds what it replays, as a spawned one would.
    """
    global _slot, _local_stats
    _slot = _EMPTY
    _local_stats = {name: 0 for name in _STAT_FIELDS}


# ----------------------------------------------------------------------
# slot keys


def _organization_token(organization: Any) -> Tuple:
    """Hashable identity of a DRAM organization (decode geometry)."""
    import dataclasses

    if dataclasses.is_dataclass(organization):
        return tuple(
            sorted(dataclasses.asdict(organization).items())
        )
    return (repr(organization),)


def workload_key(
    workload: Any, params: Any, organization: Any
) -> Optional[str]:
    """Stable plane key of one workload materialization, or ``None``.

    Mirrors the store's fingerprint-free digest ingredients — workload
    identity plus the generation-relevant parameters plus the decode
    organization — and, for file-backed workloads, folds in the PR-5
    ``store_fingerprint()`` (per-file mtime_ns/size) so re-recording a
    trace under the same path invalidates the cached materialization.
    Returns ``None`` for workload objects the plane does not understand
    (ad-hoc test workloads): those are never cached, so unknown
    generation inputs can never alias.
    """
    import hashlib
    import json

    requests = getattr(params, "requests_per_core", None)
    cores = getattr(params, "num_cores", None)
    if requests is None or cores is None:
        return None
    fingerprint_hook = getattr(workload, "store_fingerprint", None)
    if callable(fingerprint_hook) and callable(
        getattr(workload, "core_files", None)
    ):
        try:
            fingerprint = fingerprint_hook()
        except OSError:
            return None
        ingredients: Tuple = (
            "trace", workload.name, tuple(map(tuple, fingerprint)),
            requests, cores, _organization_token(organization),
        )
    elif isinstance(workload, WorkloadSpec):
        ingredients = (
            "synthetic", workload.name, tuple(workload.components),
            getattr(params, "seed", None), requests, cores,
            _organization_token(organization),
        )
    else:
        return None
    payload = json.dumps(ingredients, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cell_workload_key(cell: Any) -> Optional[str]:
    """The plane key of one ``perf`` grid cell, or ``None``.

    Resolves the cell's workload name the same way the engine will
    (:func:`~repro.workloads.sources.resolve_workload`) and keys it
    against the cell's own parameters and organization. Non-``perf``
    cells, unresolvable names, and missing trace files all degrade to
    ``None`` — the cell simply runs uncached.
    """
    if getattr(cell, "kind", None) != "perf":
        return None
    try:
        workload = resolve_workload(cell.workload)
    except (KeyError, ValueError):
        return None
    params = cell.params
    make_organization = getattr(params, "make_organization", None)
    if not callable(make_organization):
        return None
    return workload_key(workload, params, make_organization())


# ----------------------------------------------------------------------
# trace materialization


def _materialize(
    workload: Any, params: Any, organization: Any
) -> List[ColumnarTrace]:
    """Generate the per-core traces.

    Synthetic cores are all distinct streams, while a trace-directory
    workload assigns file ``core_id % len(files)``: a single-file
    (rate-mode) recording is parsed *once*, and every core holds the
    same trace object, which :func:`decoded` then decodes once.
    """
    cores = params.num_cores
    core_files = getattr(workload, "core_files", None)
    if callable(core_files) and callable(
        getattr(workload, "store_fingerprint", None)
    ):
        count = len(core_files())
        # Core ``index`` is the first core that replays file ``index``.
        parsed = [
            workload.arrays_for_core(index, params, organization)
            for index in range(min(count, cores))
        ]
        return [parsed[core_id % count] for core_id in range(cores)]
    return [
        workload.arrays_for_core(core_id, params, organization)
        for core_id in range(cores)
    ]


def traces_for(workload: Any, params: Any, organization: Any) -> List[ColumnarTrace]:
    """Per-core columnar traces for one cell, through the plane.

    The single materialization path of the simulator: an uncacheable
    workload runs the plain per-core ``arrays_for_core`` loop; any
    other is served from the slot when its key matches, else
    materialized and put in the slot in place of the previous
    workload. Slot traces are shared across cells, so their columns
    are read-only (writing raises :class:`ValueError`).
    """
    global _slot
    key = workload_key(workload, params, organization)
    if key is None:
        return [
            workload.arrays_for_core(core_id, params, organization)
            for core_id in range(params.num_cores)
        ]
    if key == _slot[0]:
        _bump("trace_hits")
        return _slot[1]
    _slot = _EMPTY  # free the previous workload before building this one
    traces = _materialize(workload, params, organization)
    for trace in traces:
        for name in trace._FIELDS:
            getattr(trace, name).flags.writeable = False
    _slot = (key, traces, {})
    _bump("generated")
    return traces


def decoded(trace: Any, geometry: Tuple, build: Callable[[], Any]) -> Any:
    """The slot's decoded list of ``trace`` under ``geometry``, else
    ``build()``.

    ``geometry`` is everything besides the trace that the decode reads.
    A trace the slot holds is decoded once per geometry and kept there
    until the slot is replaced, so cores holding one trace object
    (rate mode) share one decode. Any other trace (an uncacheable
    workload's) is built on every call. Decoded lists are immutable by
    engine contract: both engines only read them.
    """
    _, traces, decodes = _slot
    stream = next(
        (index for index, held in enumerate(traces) if held is trace), None
    )
    if stream is None:
        return build()
    token = (stream, geometry)
    value = decodes.get(token)
    if value is None:
        value = decodes[token] = build()
    else:
        _bump("decode_hits")
    return value


# ----------------------------------------------------------------------
# grouped replay


def workload_groups(
    pending: Sequence[Tuple[int, Any]]
) -> List[List[Tuple[int, Any]]]:
    """A run's pending ``(position, cell)`` pairs grouped by
    :func:`cell_workload_key`, so each group replays one slot.

    Groups come in first-appearance plan order and keep plan order
    within. Unkeyed cells (every non-``perf`` kind) form one group.
    Each cell is keyed once.
    """
    groups: Dict[Optional[str], List[Tuple[int, Any]]] = {}
    for position, cell in pending:
        groups.setdefault(cell_workload_key(cell), []).append((position, cell))
    return list(groups.values())


def affinity_order(
    pending: Sequence[Tuple[int, Any]], costs: Mapping[int, float]
) -> List[Tuple[int, Any]]:
    """Submission order for a process pool: grouped, big-first.

    The :func:`workload_groups` in order, largest ``costs[position]``
    first within each group: workers pulling from the shared queue stay
    on one workload while it is in their slots, and a group's longest
    cell never starts last. The unkeyed group (Monte-Carlo or hammer
    cells) also starts its longest cells first. Ties keep plan order.
    Progress reporting is unaffected: results are recorded by plan
    position regardless of completion order.
    """
    return [
        item
        for group in workload_groups(pending)
        for item in sorted(group, key=lambda item: -costs[item[0]])
    ]
