"""The workload plane: workload bytes as a shared, cached resource.

Every grid cell used to pay a private fixed cost before its first
simulated access: resolve the workload, regenerate (or re-read and
re-decode) the per-core columnar traces, and re-``tolist`` the columns
into the engines' Python lists. A
``mitigations x trackers x trh`` grid shares one workload across all
of those cells, so the work is pure redundancy. This module makes the
workload bytes a plane-wide resource instead, in three layers:

1. **Per-worker memoization** — :func:`traces_for` resolves a
   workload's per-core :class:`~repro.workloads.columnar.ColumnarTrace`
   arrays through a process-wide LRU keyed by the same fingerprint-free
   ingredients the result store digests (workload identity +
   generation-relevant parameters + DRAM organization), plus the PR-5
   ``store_fingerprint()`` for file-backed workloads so re-recording a
   trace invalidates the cache. :func:`cached_decode` gives both
   engines the same treatment for their decoded-list product. Trace
   files are parsed only when a materialization misses this LRU, and a
   rate-mode directory's one file is parsed once for all of its cores,
   not once per core; nothing below the plane caches a parse.

2. **Worker-side materialization** — a
   :class:`~repro.sim.pool.ProcessPool` worker starts with cold caches
   and builds each workload it replays itself, once; later cells over
   the same workload in that worker hit its LRU. Generation costs a few
   milliseconds per workload (4–13 ms for the benchmark grid's
   workloads at 4 cores x 12 000 requests), so nothing is shipped
   between processes but cells and results.

3. **Cache-affine scheduling** — :func:`affinity_order` groups a run's
   pending cells by workload key (largest
   :func:`~repro.sim.pool.cell_cost` first within a group) so
   per-worker caches actually hit; see
   :class:`~repro.sim.pool.ProcessPool`.

Accounting flows through :class:`PlaneStats` (surfaced as the greppable
``workloads: generated N, decode hits K`` line); each pool worker
returns its counters' delta with every cell it ran, and the
coordinator sums them.
Results are identical to generating every cell from scratch (the plane
caches exactly what generation would have produced), pinned by
``tests/test_plane.py`` against the direct ``arrays_for_core`` loop.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.workloads.columnar import ColumnarTrace
from repro.workloads.suites import WorkloadSpec

#: LRU capacities (entries, not bytes).
_TRACE_CAPACITY = 8
_DECODED_CAPACITY = 6

_STAT_FIELDS = ("generated", "trace_hits", "decode_hits")


@dataclass(frozen=True)
class PlaneStats:
    """Workload-plane accounting of one run (rolled into ``RunStats``).

    Attributes:
        generated: Workload materializations computed from scratch
            (synthetic generation or trace parse+decode).
        trace_hits: Materializations served by the in-process trace LRU.
        decode_hits: Decoded-list products (either engine) served
            from the in-process decode LRU instead of re-``tolist``-ing.
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
# One plane per process: the caches below are module-level by design —
# a ProcessPool worker's cache must survive across the cells it runs.
# `reset()` (tests, worker initialization) clears everything.

_trace_cache: "OrderedDict[str, List[ColumnarTrace]]" = OrderedDict()
_decoded_cache: "OrderedDict[Tuple, Any]" = OrderedDict()
_local_stats: Dict[str, int] = {name: 0 for name in _STAT_FIELDS}


def _bump(name: str, count: int = 1) -> None:
    """Increment one of this process's plane counters."""
    _local_stats[name] += count


def local_stats() -> PlaneStats:
    """Snapshot of this process's plane counters."""
    return PlaneStats(**dict(_local_stats))


def reset() -> None:
    """Drop every cache and counter (tests, pool-worker initializer).

    As a :class:`~repro.sim.pool.ProcessPool` initializer it makes a
    worker's accounting independent of the multiprocessing start
    method: a forked worker drops the caches it inherited from the
    coordinator and builds what it replays, as a spawned one would.
    """
    global _local_stats
    for cache in (_trace_cache, _decoded_cache):
        cache.clear()
    _local_stats = {name: 0 for name in _STAT_FIELDS}


def _evict(cache: OrderedDict, capacity: int) -> None:
    """Shrink a cache to ``capacity`` entries, oldest first."""
    while len(cache) > capacity:
        cache.popitem(last=False)


# ----------------------------------------------------------------------
# cache keys


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

    Resolves the cell's workload the same way the engine will (the
    carried ``workload_spec`` object, else the name through the
    workload-source registry) and keys it against the cell's own
    parameters and organization. Non-``perf`` cells, unresolvable
    workloads, and missing trace files all degrade to ``None`` — the
    cell simply runs uncached.
    """
    if getattr(cell, "kind", None) != "perf":
        return None
    workload = getattr(cell, "workload_spec", None)
    if workload is None:
        from repro.workloads.sources import resolve_workload_string

        try:
            workload = resolve_workload_string(str(cell.workload))
        except Exception:
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
) -> Tuple[List[ColumnarTrace], List[int]]:
    """Generate per-core traces plus their stream identities.

    The stream identity maps each core to the distinct trace content it
    replays: synthetic cores are all distinct streams, while a
    trace-directory workload assigns file ``core_id % len(files)`` — a
    single-file (rate-mode) recording is decoded *once* and shared
    across every core, bit-identically to decoding it per core.
    """
    cores = params.num_cores
    core_files = getattr(workload, "core_files", None)
    if callable(core_files) and callable(
        getattr(workload, "store_fingerprint", None)
    ):
        files = core_files()
        by_file: Dict[int, ColumnarTrace] = {}
        traces = []
        stream_ids = []
        for core_id in range(cores):
            index = core_id % len(files)
            if index not in by_file:
                by_file[index] = workload.arrays_for_core(
                    core_id, params, organization
                )
            traces.append(by_file[index])
            stream_ids.append(index)
        return traces, stream_ids
    traces = [
        workload.arrays_for_core(core_id, params, organization)
        for core_id in range(cores)
    ]
    return traces, list(range(cores))


def _seal(
    traces: Sequence[ColumnarTrace], key: str, stream_ids: Sequence[int]
) -> None:
    """Stamp each trace with its content identity for the decode cache
    and mark its columns read-only (cached traces are shared by every
    later cell of the process)."""
    for trace, stream in zip(traces, stream_ids):
        trace.plane_token = (key, stream)
        for name in trace._FIELDS:
            getattr(trace, name).flags.writeable = False


def traces_for(workload: Any, params: Any, organization: Any) -> List[ColumnarTrace]:
    """Per-core columnar traces for one cell, through the plane.

    The single materialization path of the simulator: an uncacheable
    workload runs the plain per-core ``arrays_for_core`` loop; any
    other is served from the in-process LRU, else generated once and
    cached. Cached traces are shared across cells, so their columns are
    read-only (writing raises :class:`ValueError`).
    """
    key = workload_key(workload, params, organization)
    if key is None:
        return [
            workload.arrays_for_core(core_id, params, organization)
            for core_id in range(params.num_cores)
        ]
    traces = _trace_cache.get(key)
    if traces is not None:
        _trace_cache.move_to_end(key)
        _bump("trace_hits")
        return traces
    traces, stream_ids = _materialize(workload, params, organization)
    _seal(traces, key, stream_ids)
    _trace_cache[key] = traces
    _evict(_trace_cache, _TRACE_CAPACITY)
    _bump("generated")
    return traces


# ----------------------------------------------------------------------
# decoded-list product (both engines)


def decode_token(trace: Any, core: Any, memory: Any) -> Optional[Tuple]:
    """Cache identity of one decoded trace, or ``None`` (don't cache).

    Only plane-materialized traces carry a content token; the decoded
    product additionally depends on the core's gap arithmetic
    (``fetch_width``, cycle time) and the organization's bank geometry
    — everything :class:`~repro.sim.engine.base._DecodedTrace`
    reads. Deliberately *not* per-core: rate-mode cores sharing one
    stream share one decode.
    """
    token = getattr(trace, "plane_token", None)
    if token is None:
        return None
    organization = memory.config.organization
    return (
        token,
        core.config.fetch_width,
        core.cycle_ns,
        organization.ranks_per_channel,
        organization.banks_per_rank,
    )


def cached_decode(token: Optional[Tuple], build: Any) -> Any:
    """Return the cached decoded product for ``token``, else build it.

    ``build`` is a zero-argument callable; a ``None`` token (an
    uncacheable trace) always builds. Decoded products are immutable by
    engine contract — both engines only read them.
    """
    if token is None:
        return build()
    hit = _decoded_cache.get(token)
    if hit is not None:
        _decoded_cache.move_to_end(token)
        _bump("decode_hits")
        return hit
    value = build()
    _decoded_cache[token] = value
    _evict(_decoded_cache, _DECODED_CAPACITY)
    return value


# ----------------------------------------------------------------------
# cache-affine scheduling


def keyed_pending(
    pending: Sequence[Tuple[int, Any]]
) -> List[Tuple[int, Any, Optional[str]]]:
    """Annotate a run's pending cells with their plane keys (once)."""
    return [
        (position, cell, cell_workload_key(cell)) for position, cell in pending
    ]


def affinity_order(
    keyed_cells: Sequence[Tuple[int, Any, Optional[str]]],
    costs: Mapping[int, float],
) -> List[Tuple[int, Any, Optional[str]]]:
    """Submission order for a process pool: grouped, big-first.

    Cells sharing a workload key are submitted consecutively (groups in
    first-appearance plan order, so early plan cells still start early),
    largest ``costs[position]`` first within each group — workers pulling
    from the shared queue stay on one workload while it is in their
    caches, and a group's longest cell never starts last. Unkeyed cells
    (every non-``perf`` kind) form one group, so a grid of Monte-Carlo
    or hammer cells also starts its longest cells first. Ties keep plan
    order. Plan-order progress reporting is unaffected: results are
    recorded by plan position regardless of completion order.
    """
    groups: "OrderedDict[Any, List[Tuple[int, Any, Optional[str]]]]" = OrderedDict()
    for position, cell, key in keyed_cells:
        groups.setdefault(key, []).append((position, cell, key))
    ordered: List[Tuple[int, Any, Optional[str]]] = []
    for members in groups.values():
        members.sort(key=lambda item: (-costs[item[0]], item[0]))
        ordered.extend(members)
    return ordered
