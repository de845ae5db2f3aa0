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
   engines the same treatment for their decoded-list product, and
   :func:`file_columns` memoizes parsed trace files in-process (a
   rate-mode directory with one file is loaded once, not once per core).

2. **Zero-copy distribution** — a grid coordinator materializes each
   distinct workload of the plan once and publishes its columns via
   ``multiprocessing.shared_memory`` (:class:`PlanePublisher`);
   :class:`~repro.sim.pool.ProcessPool` workers attach read-only
   (:func:`offer` + :func:`traces_for`) instead of regenerating. The
   publisher owns the segment lifecycle: :meth:`PlanePublisher.close`
   unlinks every segment on success, cell failure, and the Ctrl-C
   drain path, so ``/dev/shm`` never leaks.

3. **Cache-affine scheduling** — :func:`affinity_order` groups a run's
   pending cells by workload key (largest expected cost first within a
   group) so per-worker caches actually hit; see
   :class:`~repro.sim.pool.ProcessPool`.

Accounting flows through :class:`PlaneStats` (surfaced as the greppable
``workloads: generated N, attached M, decode hits K`` line); workers
aggregate into shared counters installed by :func:`init_worker`. The
``REPRO_WORKLOAD_PLANE=off`` escape hatch restores the pre-plane
behavior bit-for-bit — results are identical either way (the plane
caches exactly what generation would have produced), pinned by the
equivalence and fuzz suites run under both modes.
"""

from __future__ import annotations

import itertools
import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.workloads.columnar import ColumnarTrace, ShmTraceLayout
from repro.workloads.suites import WorkloadSpec

#: Escape hatch: set to ``off`` (or ``0``/``no``/``false``) to restore
#: per-cell workload generation everywhere (debugging, benchmarking).
ENV_PLANE = "REPRO_WORKLOAD_PLANE"

#: Cap on bytes the coordinator publishes to shared memory per run;
#: workloads beyond the cap fall back to per-worker generation.
ENV_SHM_MB = "REPRO_WORKLOAD_PLANE_SHM_MB"

#: LRU capacities (entries, not bytes).
_TRACE_CAPACITY = 8
_DECODED_CAPACITY = 6
_DEFAULT_SHM_MB = 512

_STAT_FIELDS = ("generated", "attached", "trace_hits", "decode_hits")


def plane_enabled() -> bool:
    """Whether the plane is active (default yes; see :data:`ENV_PLANE`)."""
    value = os.environ.get(ENV_PLANE, "on").strip().lower()
    return value not in ("off", "0", "no", "false")


def _capacity(env: str, default: int) -> int:
    """Integer setting from the environment, with a floor of 1."""
    try:
        return max(1, int(os.environ.get(env, default)))
    except ValueError:
        return default


@dataclass(frozen=True)
class PlaneStats:
    """Workload-plane accounting of one run (rolled into ``RunStats``).

    Attributes:
        generated: Workload materializations computed from scratch
            (synthetic generation or trace parse+decode).
        attached: Materializations served by attaching a published
            shared-memory segment instead of regenerating.
        trace_hits: Materializations served by the in-process trace LRU.
        decode_hits: Decoded-list products (either engine) served
            from the in-process decode LRU instead of re-``tolist``-ing.
    """

    generated: int = 0
    attached: int = 0
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
            f"workloads: generated {self.generated}, attached "
            f"{self.attached}, decode hits {self.decode_hits} "
            f"(trace hits {self.trace_hits})"
        )


# ----------------------------------------------------------------------
# process-wide state
#
# One plane per process: the caches below are module-level by design —
# a ProcessPool worker's cache must survive across the cells it runs.
# `reset()` (tests, worker initialization) clears everything.


@dataclass
class _TraceEntry:
    """One cached workload materialization (plus its shm handles)."""

    traces: List[ColumnarTrace]
    shms: List[Any]


_trace_cache: "OrderedDict[str, _TraceEntry]" = OrderedDict()
_decoded_cache: "OrderedDict[Tuple, Any]" = OrderedDict()
_file_cache: "OrderedDict[Tuple, Tuple]" = OrderedDict()
_offers: Dict[str, "ShmWorkloadRef"] = {}
_local_stats: Dict[str, int] = {name: 0 for name in _STAT_FIELDS}
_shared_counters: Optional[Dict[str, Any]] = None
#: Shared-memory objects whose close() hit exported buffers; retried on
#: later evictions so their __del__ never warns mid-run.
_retired_shms: List[Any] = []
_segment_seq = itertools.count()


def _bump(name: str, count: int = 1) -> None:
    """Increment one counter (shared when installed, else local)."""
    if _shared_counters is not None:
        value = _shared_counters[name]
        with value.get_lock():
            value.value += count
    else:
        _local_stats[name] += count


def local_stats() -> PlaneStats:
    """Snapshot of this process's local plane counters."""
    return PlaneStats(**dict(_local_stats))


def make_shared_counters() -> Dict[str, Any]:
    """Cross-process counters a coordinator hands to pool workers."""
    import multiprocessing

    return {name: multiprocessing.Value("q", 0) for name in _STAT_FIELDS}


def snapshot_shared(counters: Dict[str, Any]) -> PlaneStats:
    """Read shared counters back into a :class:`PlaneStats`."""
    return PlaneStats(**{name: int(counters[name].value) for name in _STAT_FIELDS})


def init_worker(counters: Optional[Dict[str, Any]]) -> None:
    """Pool-worker initializer: cold caches plus shared counters.

    Clearing the caches here makes worker behavior independent of the
    multiprocessing start method — a forked worker drops state inherited
    from the coordinator and visibly *attaches* published workloads, so
    the accounting means the same thing under fork and spawn.
    """
    global _shared_counters
    reset()
    _shared_counters = counters


def reset() -> None:
    """Drop every cache, offer, and local counter (tests, worker init)."""
    global _local_stats
    for cache in (_trace_cache, _decoded_cache, _file_cache):
        while cache:
            _, entry = cache.popitem(last=False)
            if isinstance(entry, _TraceEntry):
                _release_entry(entry)
    _offers.clear()
    _local_stats = {name: 0 for name in _STAT_FIELDS}
    _sweep_retired()


def _try_close(shm: Any) -> bool:
    """Close one shared-memory handle; ``False`` while views persist."""
    try:
        shm.close()
        return True
    except BufferError:
        return False


def _sweep_retired() -> None:
    """Retry closing handles whose views were still alive earlier."""
    global _retired_shms
    _retired_shms = [shm for shm in _retired_shms if not _try_close(shm)]


def _release_entry(entry: _TraceEntry) -> None:
    """Drop an entry's arrays, then close its segments (or retire them).

    An evicted entry's traces may still be referenced by a running
    simulation; closing their backing segment would raise
    :class:`BufferError` from ``__del__`` later, so handles that cannot
    close yet are parked and retried on subsequent evictions.
    """
    entry.traces = []
    _sweep_retired()
    for shm in entry.shms:
        if not _try_close(shm):
            _retired_shms.append(shm)
    entry.shms = []


def _evict(cache: OrderedDict, capacity: int) -> None:
    """Shrink a cache to ``capacity`` entries, oldest first."""
    while len(cache) > capacity:
        _, entry = cache.popitem(last=False)
        if isinstance(entry, _TraceEntry):
            _release_entry(entry)


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
    trace under the same path invalidates in-process and shared-memory
    caches alike. Returns ``None`` for workload objects the plane does
    not understand (ad-hoc test workloads): those are never cached, so
    unknown generation inputs can never alias.
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


def file_columns(file_path: str) -> Tuple:
    """In-process memo over the parsed-trace cache for one file.

    The on-disk ``.npz`` cache (:mod:`repro.workloads.cache`) already
    avoids re-parsing, but loading the entry still costs milliseconds
    per call — and a rate-mode trace directory asks for the same file
    once *per core*. This memo keys on ``(realpath, mtime_ns, size)``
    (the same invalidation stamp the disk cache uses) and holds the
    decoded columns for the life of the process. Disabled with the
    plane.
    """
    from repro.workloads.cache import load_trace_columns

    if not plane_enabled():
        return load_trace_columns(file_path, name=file_path)
    try:
        stat = os.stat(file_path)
        stamp = (os.path.realpath(file_path), stat.st_mtime_ns, stat.st_size)
    except OSError:
        return load_trace_columns(file_path, name=file_path)
    hit = _file_cache.get(stamp)
    if hit is not None:
        _file_cache.move_to_end(stamp)
        return hit
    columns = load_trace_columns(file_path, name=file_path)
    _file_cache[stamp] = columns
    _evict(_file_cache, _TRACE_CAPACITY)
    return columns


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


def _tag(traces: Sequence[ColumnarTrace], key: str, stream_ids: Sequence[int]) -> None:
    """Stamp each trace with its content identity for the decode cache."""
    for trace, stream in zip(traces, stream_ids):
        trace.plane_token = (key, stream)


def _attach_untracked(name: str) -> Any:
    """Attach one segment without registering it with the resource tracker.

    Attaching normally registers the name with the resource tracker
    (until Python 3.13's ``track=False``); the publishing coordinator
    owns the unlink, and on a forked start method every process shares
    one tracker, so a worker registering (and later unregistering) the
    same name corrupts the shared cache and spews spurious ``KeyError``
    tracebacks at cleanup. Registration is suppressed for the duration
    of the attach instead.
    """
    from multiprocessing import resource_tracker, shared_memory

    original = resource_tracker.register

    def _skip_shared_memory(name: str, rtype: str) -> None:
        """Drop shared-memory registrations; pass everything else through."""
        if rtype != "shared_memory":
            original(name, rtype)

    resource_tracker.register = _skip_shared_memory
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _attach(ref: "ShmWorkloadRef") -> _TraceEntry:
    """Map a published workload read-only; raises when already unlinked."""
    shms = []
    uniques = []
    try:
        for layout in ref.layouts:
            shm = _attach_untracked(layout.name)
            shms.append(shm)
            uniques.append(ColumnarTrace.from_shm(shm, layout))
    except BaseException:
        for shm in shms:
            _try_close(shm) or _retired_shms.append(shm)
        raise
    traces = [uniques[index] for index in ref.stream_ids]
    return _TraceEntry(traces=traces, shms=shms)


def traces_for(workload: Any, params: Any, organization: Any) -> List[ColumnarTrace]:
    """Per-core columnar traces for one cell, through the plane.

    The single materialization path of the simulator: with the plane
    off (or an uncacheable workload) this is exactly the historical
    per-cell ``arrays_for_core`` loop; with it on, the result is served
    from the in-process LRU, an offered shared-memory segment, or a
    fresh (cached) generation — in that order. Returned arrays are
    shared across cells and must be treated as read-only, which every
    engine already honors.
    """
    if not plane_enabled():
        return [
            workload.arrays_for_core(core_id, params, organization)
            for core_id in range(params.num_cores)
        ]
    key = workload_key(workload, params, organization)
    if key is None:
        return [
            workload.arrays_for_core(core_id, params, organization)
            for core_id in range(params.num_cores)
        ]
    entry = _trace_cache.get(key)
    if entry is not None:
        _trace_cache.move_to_end(key)
        _bump("trace_hits")
        return entry.traces
    ref = _offers.get(key)
    if ref is not None:
        try:
            entry = _attach(ref)
        except (FileNotFoundError, OSError, ValueError):
            entry = None
        if entry is not None:
            _tag(entry.traces, key, ref.stream_ids)
            _trace_cache[key] = entry
            _evict(_trace_cache, _TRACE_CAPACITY)
            _bump("attached")
            return entry.traces
    traces, stream_ids = _materialize(workload, params, organization)
    _tag(traces, key, stream_ids)
    _trace_cache[key] = _TraceEntry(traces=traces, shms=[])
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
    if not plane_enabled():
        return None
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

    ``build`` is a zero-argument callable; a ``None`` token always
    builds (uncacheable trace or plane off). Decoded products are
    immutable by engine contract — both engines only read them.
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
# zero-copy distribution


@dataclass(frozen=True)
class ShmWorkloadRef:
    """Picklable handle to one published workload.

    Attributes:
        key: The :func:`workload_key` the segments were published under.
        layouts: One shared-memory layout per distinct trace stream.
        stream_ids: Core → index into ``layouts`` (rate-mode cores map
            to the same stream).
    """

    key: str
    layouts: Tuple[ShmTraceLayout, ...]
    stream_ids: Tuple[int, ...]


def offer(ref: ShmWorkloadRef) -> None:
    """Register a published workload for this process's :func:`traces_for`."""
    _offers[ref.key] = ref


def _segment_name() -> str:
    """A fresh ``repro-`` prefixed segment name, unique per process."""
    return f"repro-{os.getpid():x}-{next(_segment_seq):x}"


class PlanePublisher:
    """Coordinator-side materialization and shared-memory lifecycle.

    A :class:`~repro.sim.pool.ProcessPool` run creates one publisher,
    :meth:`publish`\\ es the distinct workloads of its pending cells,
    hands each submitted cell its :class:`ShmWorkloadRef` (workers
    attach instead of regenerating), and — on every exit path — calls
    :meth:`close`, which unlinks all segments. Publishing is strictly
    best-effort: a workload that cannot be keyed, materialized, or fit
    under the byte budget is skipped and its cells regenerate in the
    workers, exactly as before the plane existed.
    """

    def __init__(self) -> None:
        self._segments: List[Any] = []
        self.refs: Dict[str, ShmWorkloadRef] = {}

    def publish(self, keyed_cells: Sequence[Tuple[int, Any, Optional[str]]]) -> None:
        """Publish every distinct workload with at least two pending cells.

        ``keyed_cells`` is the run's ``(position, cell, key)`` list (see
        :func:`keyed_pending`). Single-cell workloads are not published:
        the coordinator would pay the generation a worker pays anyway,
        plus a copy. A budget (:data:`ENV_SHM_MB`) bounds total published
        bytes; beyond it workloads fall back to worker-side generation.
        """
        budget = _capacity(ENV_SHM_MB, _DEFAULT_SHM_MB) * 1024 * 1024
        published_bytes = 0
        counts: Dict[str, int] = {}
        sample: Dict[str, Any] = {}
        for _position, cell, key in keyed_cells:
            if key is None:
                continue
            counts[key] = counts.get(key, 0) + 1
            sample.setdefault(key, cell)
        for key, count in counts.items():
            if count < 2 or key in self.refs:
                continue
            try:
                ref, size = self._publish_one(key, sample[key])
            except Exception:
                continue
            if ref is None:
                continue
            published_bytes += size
            self.refs[key] = ref
            if published_bytes >= budget:
                break

    def _publish_one(
        self, key: str, cell: Any
    ) -> Tuple[Optional[ShmWorkloadRef], int]:
        """Materialize one cell's workload and copy it into segments."""
        workload = getattr(cell, "workload_spec", None)
        if workload is None:
            from repro.workloads.sources import resolve_workload_string

            workload = resolve_workload_string(str(cell.workload))
        params = cell.params
        organization = params.make_organization()
        traces = traces_for(workload, params, organization)
        uniques: Dict[int, int] = {}
        layouts: List[ShmTraceLayout] = []
        stream_ids: List[int] = []
        size = 0
        created: List[Any] = []
        try:
            for trace in traces:
                marker = id(trace)
                if marker not in uniques:
                    shm, layout = trace.to_shm(name=_segment_name())
                    created.append(shm)
                    size += shm.size
                    uniques[marker] = len(layouts)
                    layouts.append(layout)
                stream_ids.append(uniques[marker])
        except BaseException:
            for shm in created:
                _try_close(shm)
                try:
                    shm.unlink()
                except (FileNotFoundError, OSError):
                    pass
            raise
        self._segments.extend(created)
        return (
            ShmWorkloadRef(
                key=key, layouts=tuple(layouts), stream_ids=tuple(stream_ids)
            ),
            size,
        )

    def close(self) -> None:
        """Unlink every published segment (idempotent, never raises).

        Runs on success, cell failure, and the interrupt drain path
        alike. Unlinking removes the ``/dev/shm`` name immediately;
        workers that already attached keep their mappings alive until
        their own references die, and a worker that races an attach
        after the unlink falls back to generating.
        """
        for shm in self._segments:
            if not _try_close(shm):
                _retired_shms.append(shm)
            try:
                shm.unlink()
            except (FileNotFoundError, OSError):
                pass
        self._segments = []
        self.refs = {}


# ----------------------------------------------------------------------
# cache-affine scheduling


def keyed_pending(
    pending: Sequence[Tuple[int, Any]]
) -> List[Tuple[int, Any, Optional[str]]]:
    """Annotate a run's pending cells with their plane keys (once)."""
    return [
        (position, cell, cell_workload_key(cell)) for position, cell in pending
    ]


def _expected_cost(cell: Any) -> float:
    """Relative wall-clock estimate of one cell (scheduling heuristic).

    Demand accesses dominate, scaled up for cells the batched engine
    cannot fuse (explicit scalar engine, or a Hydra-tracked cell under
    ``auto``) and for mitigation cells (swaps add work over baseline).
    Only relative order matters: largest-first within a workload group
    keeps the long pole off the tail of the schedule.
    """
    params = getattr(cell, "params", None)
    requests = getattr(params, "requests_per_core", 0) or 0
    cores = getattr(params, "num_cores", 1) or 1
    cost = float(requests * cores)
    engine = getattr(params, "engine", "")
    tracker = getattr(params, "tracker", "")
    if engine == "scalar" or tracker == "hydra":
        cost *= 3.0
    if getattr(cell, "mitigation", "baseline") != "baseline":
        cost *= 1.5
    return cost


def affinity_order(
    keyed_cells: Sequence[Tuple[int, Any, Optional[str]]]
) -> List[Tuple[int, Any, Optional[str]]]:
    """Submission order for a process pool: grouped, big-first.

    Cells sharing a workload key are submitted consecutively (groups in
    first-appearance plan order, so early plan cells still start early),
    largest expected cost first within each group — workers pulling
    from the shared queue stay on one workload while it is in their
    caches, and a group's longest cell never starts last. Unkeyed cells
    form singleton groups. Plan-order progress reporting is unaffected:
    results are recorded by plan position regardless of completion
    order.
    """
    groups: "OrderedDict[Any, List[Tuple[int, Any, Optional[str]]]]" = OrderedDict()
    for position, cell, key in keyed_cells:
        group = key if key is not None else ("__solo__", position)
        groups.setdefault(group, []).append((position, cell, key))
    ordered: List[Tuple[int, Any, Optional[str]]] = []
    for members in groups.values():
        members.sort(key=lambda item: (-_expected_cost(item[1]), item[0]))
        ordered.extend(members)
    return ordered
