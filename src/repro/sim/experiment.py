"""Declarative experiments: specs, grids, parallel execution, result sets.

This module is the front door for running *evaluations* — not just
performance studies. Instead of hand-rolled loops over workloads,
mitigations, and thresholds, an experiment is *declared* once::

    from repro.sim import ExperimentSpec, SimulationParams, run_grid

    spec = ExperimentSpec(
        workloads=["gcc", "lbm", "gups"],
        mitigations=["rrs", "scale-srs"],
        base_params=SimulationParams(requests_per_core=20_000),
        grid={"trh": [4800, 2400, 1200]},
    )
    results = run_grid(spec)             # parallel across CPU cores
    table = results.filter(trh=1200).normalized_table()

and the engine takes care of the rest:

- **Evaluation kinds**: every cell carries a ``kind`` naming a
  registered evaluation (:data:`repro.registry.EVALUATIONS`): ``perf``
  is the performance simulator above; ``security`` (Juggernaut
  time-to-break), ``hammer`` (Section II-E's pattern rig), and
  ``model`` (the paper's closed-form numbers, Tables IV and V among
  them) run the rest of the paper through the same grids, pools,
  stores, and exports (see :mod:`repro.sim.evaluations`)::

      from repro.sim.evaluations import SecurityParams

      spec = ExperimentSpec(
          kind="security",
          mitigations=["rrs", "srs"],
          base_params=SecurityParams(iterations=100_000),
          grid={"swap_rate": [6, 7, 8, 9, 10], "trh": [4800, 2400]},
      )

- **Grid expansion** applies each axis with :func:`dataclasses.replace`
  over the kind's parameter dataclass, so new parameter fields are
  picked up automatically and axis names are validated against it.
- **Baseline deduplication** (``perf`` only): a baseline run depends
  only on the workload and the non-mitigation parameters (cores, trace
  length, time scale, seed, policy, bank geometry — not the simulation
  engine, which is bit-identical by contract), so the engine runs
  exactly one baseline per unique combination instead of one per grid
  cell.
- **Pluggable execution** delegates the pending cells to an execution
  backend (:mod:`repro.sim.pool`): serial in-process or a local process
  pool — every cell carries its full parameter record and seeds its own
  RNG streams, so results are deterministic and independent of
  scheduling order and backend.
- **Persistence** (``run_grid(store=...)``): completed cells land in a
  content-addressed :class:`~repro.sim.store.ResultStore`, and already-
  stored cells are reused bit-identically — interrupted grids resume,
  repeated sweeps are incremental, and ``shard=(i, n)`` splits one grid
  across processes or machines, with one shared store or one store each
  (see :mod:`repro.sim.store`).
- **Result sets** (:class:`ResultSet`) hold results of heterogeneous
  kinds, pair each ``perf`` result with its matching baseline for
  normalization, aggregate per-suite geometric means, merge with other
  sets, and round-trip through JSON/CSV.

Mitigation and kind names are validated against :mod:`repro.registry`
before any process is spawned, so a typo fails in milliseconds, not
minutes.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass, field, fields, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.cpu.core import CoreResult
from repro.dram.commands import PagePolicy
from repro.registry import EVALUATIONS, MITIGATIONS
from repro.sim.engine import ENGINE_NAMES
from repro.sim.pool import Pool, PoolTask, sized_pool
from repro.sim.store import (
    ResultStore,
    cell_key,
    key_digest,
    shard_of,
)
from repro.sim.results import (
    SimulationResult,
    geometric_mean,
    normalized_performance,
)
from repro.sim.simulator import SimulationParams
from repro.workloads.plane import PlaneStats
from repro.workloads.sources import resolve_workload

_PARAM_FIELDS = tuple(f.name for f in fields(SimulationParams))

# Parameters a baseline simulation is identical across: the mitigation
# knobs (no mitigation engine exists to read them) and the simulation
# engine (bit-identical by contract — see repro.sim.engine).
_MITIGATION_ONLY_FIELDS = ("trh", "swap_rate", "tracker", "engine")

# What baseline_view resets those fields to, and the fields it keeps.
_BASELINE_DEFAULTS = {
    name: getattr(SimulationParams(), name) for name in _MITIGATION_ONLY_FIELDS
}
_BASELINE_IDENTITY_FIELDS = tuple(
    name for name in _PARAM_FIELDS if name not in _MITIGATION_ONLY_FIELDS
)

BASELINE = "baseline"

#: The evaluation kind the engine defaults to (the performance simulator).
PERF = "perf"


def _kind_of(result: Any) -> str:
    """Evaluation kind of a result record (``perf`` for legacy records)."""
    return getattr(result, "kind", PERF)


def baseline_view(params: SimulationParams) -> SimulationParams:
    """``params`` with mitigation-only fields reset to their defaults.

    Two parameter sets with equal baseline views produce bit-identical
    baseline simulations; the grid engine keys its deduplication on this.
    """
    return replace(params, **_BASELINE_DEFAULTS)


def _baseline_identity(params: SimulationParams) -> tuple:
    """A key equal for two parameter sets exactly when their
    :func:`baseline_view` values are equal, built without a new
    dataclass."""
    return (type(params),) + tuple(
        getattr(params, name) for name in _BASELINE_IDENTITY_FIELDS
    )


@dataclass(frozen=True)
class ExperimentCell:
    """One (workload, mitigation, parameters) point of a grid.

    ``kind`` names the registered evaluation that runs the cell; its
    ``params`` is an instance of that kind's parameter dataclass
    (:class:`SimulationParams` for ``perf``). For ``perf`` cells
    ``workload`` is the resolved workload name (see
    :func:`~repro.workloads.sources.resolve_workload`); for other kinds
    it is a scenario label and ``mitigation`` the evaluated subject
    design.
    """

    workload: str
    mitigation: str
    params: Any
    kind: str = PERF


@dataclass
class ExperimentSpec:
    """A declarative workloads x mitigations x parameter-grid experiment.

    Attributes:
        workloads: Workload names (``gcc``, ``synthetic:gcc``,
            ``trace:<path>``); names resolving to the same workload
            plan one set of cells. For non-``perf`` kinds: optional
            scenario labels (defaults to the kind's registered
            scenario).
        mitigations: Registered mitigation names; ``baseline`` need not
            be listed — ``perf`` grids always run the matching
            (deduplicated) baselines so the :class:`ResultSet` can
            normalize. For non-``perf``
            kinds: the subject designs the kind evaluates (for example
            ``rrs``/``srs`` for ``security``).
        base_params: Parameters shared by every cell — an instance of
            the kind's parameter dataclass; ``None`` means that
            dataclass's defaults.
        grid: ``{parameter field: [values]}`` axes; the cross product
            of all axes is applied over ``base_params`` with
            :func:`dataclasses.replace`, and a repeated point is
            planned once.
        kind: The registered evaluation kind cells run under
            (:mod:`repro.sim.evaluations`); default ``perf``.
    """

    workloads: Sequence[str] = ()
    mitigations: Sequence[str] = ()
    base_params: Optional[Any] = None
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    kind: str = PERF

    def __post_init__(self) -> None:
        """Default ``base_params`` to the kind's parameter dataclass."""
        if self.base_params is None:
            self.base_params = EVALUATIONS.get(self.kind).params_cls()

    def validate(self) -> None:
        """Fail fast on unknown kinds, axes, workloads, subjects, engines."""
        info = EVALUATIONS.get(self.kind)  # raises on unknown kinds
        param_fields = info.param_fields
        if not isinstance(self.base_params, info.params_cls):
            raise ValueError(
                f"base_params for kind {self.kind!r} must be "
                f"{info.params_cls.__name__}, got "
                f"{type(self.base_params).__name__}"
            )
        for axis in self.grid:
            if axis not in param_fields:
                raise ValueError(
                    f"unknown grid axis {axis!r}; "
                    f"{info.params_cls.__name__} fields: {param_fields}"
                )
            if axis == "engine":
                raise ValueError(
                    "engine is not a grid axis: engines are bit-identical; "
                    "set base_params.engine"
                )
            if not self.grid[axis]:
                raise ValueError(f"grid axis {axis!r} has no values")
        for workload in self.workloads:
            if not isinstance(workload, str):
                raise ValueError(
                    "workloads are names such as 'gcc' or 'trace:<path>', "
                    f"not {type(workload).__name__}"
                )
        if self.kind == PERF:
            if not self.workloads:
                raise ValueError("an experiment needs at least one workload")
            engine = self.base_params.engine
            if engine not in ENGINE_NAMES:
                raise ValueError(
                    f"unknown engine {engine!r}; options: {ENGINE_NAMES}"
                )
            for workload in self.workloads:
                resolve_workload(workload)
            for name in self.mitigations:
                MITIGATIONS.get(name)  # raises ValueError on unknown names
        else:
            if not self.mitigations:
                raise ValueError(
                    f"a {self.kind} experiment needs at least one subject "
                    f"design; options: {info.subjects}"
                )
            if info.subjects is not None:
                for name in self.mitigations:
                    if name not in info.subjects:
                        raise ValueError(
                            f"unknown {self.kind} subject {name!r}; "
                            f"options: {info.subjects}"
                        )

    def _workload_names(self) -> List[str]:
        """The cells' workload names, deduplicated, in declaration order:
        ``perf`` names resolved (``synthetic:gcc`` is ``gcc``), other
        kinds' scenario labels as given, defaulting to the kind's
        scenario."""
        if self.kind != PERF:
            labels = self.workloads or (EVALUATIONS.get(self.kind).scenario,)
            return list(dict.fromkeys(labels))
        return list(dict.fromkeys(
            resolve_workload(name).name for name in self.workloads
        ))

    def mitigation_names(self) -> List[str]:
        """Non-baseline mitigations (subject designs), deduplicated, in
        declaration order."""
        ordered = dict.fromkeys(self.mitigations)
        if self.kind == PERF:
            ordered.pop(BASELINE, None)
        return list(ordered)

    def param_grid(self) -> List[Any]:
        """The distinct expanded parameter combinations, first-seen order."""
        axes = list(self.grid.items())
        return list(dict.fromkeys(
            replace(
                self.base_params,
                **{name: value for (name, _), value in zip(axes, values)},
            )
            for values in itertools.product(*(vals for _, vals in axes))
        ))

    def cells(self) -> List[ExperimentCell]:
        """Mitigation cells of the grid (``perf`` baselines are planned
        by the engine, which deduplicates them — see :func:`plan_cells`)."""
        return self._plan(baselines=False)

    def baseline_cells(self) -> List[ExperimentCell]:
        """One baseline cell per (workload, baseline-relevant params).

        Derived from the workloads and grid directly — not from the
        mitigation cells — so a baseline-only experiment still runs.
        The dedup key ignores the simulation engine (engines are
        bit-identical), but the planned cell keeps the requested
        engine so ``--engine auto`` speeds the baselines up too.
        ``perf`` only — the analytical kinds have no baseline concept.
        """
        if self.kind != PERF:
            self.validate()
            raise ValueError(f"kind {self.kind!r} has no baselines")
        return self._plan(cells=False)

    def _plan(
        self, baselines: bool = True, cells: bool = True
    ) -> List[ExperimentCell]:
        """Validate once, expand the grid once, and list the baseline
        cells (``perf`` only) followed by the mitigation cells."""
        self.validate()
        workloads = self._workload_names()
        grid = self.param_grid()
        planned: List[ExperimentCell] = []
        if baselines and self.kind == PERF:
            # First-seen baseline view per grid point, keeping that
            # point's engine; the same for every workload.
            views: Dict[SimulationParams, SimulationParams] = {}
            for params in grid:
                view = baseline_view(params)
                if view not in views:
                    views[view] = replace(view, engine=params.engine)
            planned += [
                ExperimentCell(workload, BASELINE, params)
                for workload in workloads
                for params in views.values()
            ]
        if cells:
            mitigations = self.mitigation_names()
            planned += [
                ExperimentCell(workload, mitigation, params, kind=self.kind)
                for workload in workloads
                for mitigation in mitigations
                for params in grid
            ]
        return planned


def plan_cells(spec: ExperimentSpec) -> List[ExperimentCell]:
    """The engine's job list: deduplicated baselines plus mitigation cells.

    ``perf`` baselines are keyed on ``(workload, baseline_view(params))``
    so a TRH (or swap-rate, or tracker) sweep runs its baseline exactly
    once per workload. Non-``perf`` kinds plan their subject cells only.
    The spec is validated and its grid expanded once.
    """
    return spec._plan()


def _run_cell(cell: ExperimentCell) -> Any:
    """Run one cell with its kind's registered runner (module-level so
    process pools can pickle it)."""
    return EVALUATIONS.get(cell.kind).runner(cell)


@dataclass(frozen=True)
class RunStats:
    """Execution accounting of one :func:`run_grid` call.

    Attributes:
        planned: Cells in this run's slice (after shard selection).
        executed: Cells actually computed this run.
        reused: Cells served bit-identically from the result store.
        shard: The ``(index, count)`` shard this run covered, if any.
        workloads: Workload-plane accounting
            (:class:`~repro.workloads.plane.PlaneStats`: generated /
            cache hits) — the coordinator's own for a serial run, the
            sum of the workers' per-cell deltas for a process pool;
            ``None`` when no cell ran or the backend reports none.
        workers: The pool width the run used — ``1`` for serial, the
            process count for a process pool (see
            :func:`~repro.sim.pool.pool_width`).
    """

    planned: int
    executed: int
    reused: int
    shard: Optional[Tuple[int, int]] = None
    workloads: Optional[PlaneStats] = None
    workers: Optional[int] = None


def run_grid(
    spec: ExperimentSpec,
    max_workers: Optional[int] = None,
    progress: Optional[Callable[[int, int, Any], None]] = None,
    store: Optional[Union[str, ResultStore]] = None,
    reuse: bool = True,
    shard: Optional[Tuple[int, int]] = None,
    pool: Optional[Pool] = None,
) -> "ResultSet":
    """Execute an experiment grid, in parallel when it pays.

    Args:
        spec: The experiment to run.
        max_workers: Cap on the worker count; ``1`` forces serial
            in-process execution. The pool is sized from the pending
            cells' costs (:func:`~repro.sim.pool.sized_pool`): serial
            when no cell reaches the pool's break-even, else one worker
            per cell up to the CPUs actually available — and up to
            twice that, above the CPU count, only when every cell is
            long (:func:`~repro.sim.pool.pool_width`). Each pooled cell
            is its own future. Values below 1 raise
            :class:`ValueError`.
        progress: Optional ``(done, total, result)`` callback, invoked
            in plan order as results arrive (including reused ones).
        store: A :class:`~repro.sim.store.ResultStore` (or its
            directory path) persisting every computed cell. With
            ``reuse`` (the default), cells already present are *not*
            re-executed — their stored results are returned
            bit-identically, which is what makes interrupted grids
            resumable and repeated sweeps incremental.
        reuse: Set ``False`` to recompute (and re-store) every cell
            even when the store already holds it.
        shard: ``(index, count)`` — run only this run's share of the
            grid. The partition is digest-stable (see
            :func:`~repro.sim.store.shard_of`): a cell's shard never
            depends on what else is in the grid, so ``count`` runs with
            the same shared store cover every cell exactly once and can
            then be collected with a final ``--resume`` pass or
            :meth:`ResultSet.merge`. Runs on separate stores combine by
            copying their ``*.json`` files into one store, which
            verifies every entry it serves.
        pool: An explicit execution backend
            (:class:`~repro.sim.pool.Pool`), e.g. a test's instrumented
            pool. ``None`` picks :class:`~repro.sim.pool.SerialPool` or
            :class:`~repro.sim.pool.ProcessPool` from the cell costs
            and ``max_workers``.

    Results are deterministic: each cell derives every RNG stream from
    its own parameters, so scheduling order cannot leak into numbers.
    Cell failures surface as :class:`RuntimeError` naming the failing
    cell, identically on every backend. The returned set carries a
    :class:`RunStats` in ``run_stats``.
    """
    if max_workers is not None and max_workers < 1:
        raise ValueError(
            f"max_workers must be a positive integer, got {max_workers}"
        )
    jobs = plan_cells(spec)
    if shard is not None:
        index, count = shard
        if not 0 <= index < count:
            raise ValueError(f"shard index {index} outside 0..{count - 1}")
        jobs = [cell for cell in jobs if shard_of(cell, count) == index]
    if isinstance(store, str):
        store = ResultStore(store)

    # One key + digest per cell for the whole run: fingerprinting a
    # trace workload stats its files, so the reuse scan and the
    # write-back share one computation instead of repeating it.
    keys: Dict[int, Dict[str, Any]] = {}
    digests: Dict[int, str] = {}
    if store is not None:
        for position, cell in enumerate(jobs):
            keys[position] = cell_key(cell)
            digests[position] = key_digest(keys[position])

    cached: Dict[int, Any] = {}
    if store is not None and reuse:
        for position, cell in enumerate(jobs):
            hit = store.get(cell, digest=digests[position])
            if hit is not None:
                cached[position] = hit
    pending = [
        (position, cell)
        for position, cell in enumerate(jobs)
        if position not in cached
    ]

    by_position: Dict[int, Any] = dict(cached)
    reported = 0

    def _absorb(position: int, result: Any) -> None:
        """File one result and report the contiguous plan-order prefix."""
        nonlocal reported
        by_position[position] = result
        if progress is not None:
            while reported in by_position:
                progress(reported + 1, len(jobs), by_position[reported])
                reported += 1

    def record(batch: Sequence[Tuple[int, Any]]) -> None:
        """Persist and file completed results the moment they exist —
        out-of-order completions reach the store immediately, so a
        killed parallel run keeps everything that actually finished."""
        if store is not None:
            store.put_many([
                (jobs[position], result, digests[position], keys[position])
                for position, result in batch
            ])
        for position, result in batch:
            _absorb(position, result)

    if progress is not None:
        # Reused cells forming the plan prefix are reportable at once.
        while reported in by_position:
            progress(reported + 1, len(jobs), by_position[reported])
            reported += 1
    task = PoolTask(pending=pending, run_cell=_run_cell, record=record)
    if pool is None:
        pool = sized_pool(task, max_workers)
    if pending:
        pool.run(task)

    result_set = ResultSet([by_position[i] for i in range(len(jobs))])
    result_set.run_stats = RunStats(
        planned=len(jobs),
        executed=len(pending),
        reused=len(cached),
        shard=shard,
        workloads=getattr(pool, "plane_stats", None),
        workers=getattr(pool, "max_workers", None),
    )
    return result_set


# ----------------------------------------------------------------------
# result sets


def _params_to_dict(params: SimulationParams) -> Dict[str, Any]:
    out = {name: getattr(params, name) for name in _PARAM_FIELDS}
    out["policy"] = params.policy.value
    return out


def _params_from_dict(data: Mapping[str, Any]) -> SimulationParams:
    kwargs = {name: data[name] for name in _PARAM_FIELDS if name in data}
    if "policy" in kwargs:
        kwargs["policy"] = PagePolicy(kwargs["policy"])
    return SimulationParams(**kwargs)


def result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    """JSON-ready dictionary for one :class:`SimulationResult`."""
    return {
        "workload": result.workload,
        "suite": result.suite,
        "mitigation": result.mitigation,
        "trh": result.trh,
        "swap_rate": result.swap_rate,
        "tracker": result.tracker,
        "swaps": result.swaps,
        "place_backs": result.place_backs,
        "pins": result.pins,
        "mitigation_busy_ns": result.mitigation_busy_ns,
        "max_row_activations": result.max_row_activations,
        "llc_pin_hits": result.llc_pin_hits,
        "cores": [vars(core).copy() for core in result.cores],
        "params": _params_to_dict(result.params) if result.params else None,
    }


def result_from_dict(data: Mapping[str, Any]) -> SimulationResult:
    """Inverse of :func:`result_to_dict`."""
    payload = dict(data)
    cores = [CoreResult(**core) for core in payload.pop("cores", [])]
    params = payload.pop("params", None)
    return SimulationResult(
        cores=cores,
        params=_params_from_dict(params) if params else None,
        **payload,
    )


def _result_identity(result: Any) -> Tuple[Any, ...]:
    """Hashable cell identity of a result record (for :meth:`ResultSet.merge`).

    Results are deterministic functions of (kind, workload, mitigation,
    params), so this tuple identifies a cell — via the kind's *identity*
    view of the params (for ``perf`` the simulation engine is ignored:
    engines are bit-identical, so records differing only in engine are
    interchangeable). Records lacking a parameter record (legacy JSON)
    fall back to their headline fields.
    """
    kind = _kind_of(result)
    params = getattr(result, "params", None)
    if params is None:
        return (
            kind,
            result.workload,
            result.mitigation,
            result.trh,
            getattr(result, "swap_rate", None),
            getattr(result, "tracker", None),
        )
    info = EVALUATIONS.get(kind)
    return (
        kind,
        result.workload,
        result.mitigation,
        json.dumps(info.key_params(params), sort_keys=True, default=str),
    )


class ResultSet:
    """An ordered collection of evaluation results with analysis helpers.

    A set may hold results of heterogeneous evaluation kinds (``perf``
    simulations next to ``security``/``hammer``/``model`` records);
    filtering, merging, and JSON round-trips work across kinds, CSV
    export requires a single kind (``of_kind`` first), and the
    performance analytics (normalization, geomeans, sweeps) operate on
    the ``perf`` subset. For ``perf``, the set pairs every mitigation
    result with its baseline (same workload, same baseline-relevant
    parameters) for normalization — the operations the benchmarks and
    the CLI are built from.
    """

    def __init__(self, results: Sequence[Any]):
        self.results = list(results)
        #: Execution accounting when this set came from :func:`run_grid`
        #: (a :class:`RunStats`), else ``None``.
        self.run_stats: Optional[RunStats] = None

    # -- collection protocol ------------------------------------------

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.results)

    def extend(self, other: "ResultSet") -> "ResultSet":
        """A new set holding both collections' results."""
        return ResultSet(self.results + other.results)

    def merge(self, *others: "ResultSet") -> "ResultSet":
        """Union of this set and ``others`` with duplicate cells dropped.

        Two results are duplicates when they describe the same cell —
        same kind, workload, mitigation, and parameter record (results
        are deterministic in those, so the records are interchangeable;
        the first occurrence wins). This is how shard runs against a
        shared store are collected into one set.
        """
        merged: Dict[Any, Any] = {}
        for result_set in (self,) + others:
            for result in result_set.results:
                merged.setdefault(_result_identity(result), result)
        return ResultSet(list(merged.values()))

    # -- kinds --------------------------------------------------------

    @property
    def kinds(self) -> List[str]:
        """Evaluation kinds present in the set, first-seen order."""
        return list(dict.fromkeys(_kind_of(r) for r in self.results))

    def of_kind(self, kind: str) -> "ResultSet":
        """Subset holding only ``kind`` results."""
        return ResultSet([r for r in self.results if _kind_of(r) == kind])

    # -- filtering ----------------------------------------------------

    def filter(
        self,
        mitigation: Optional[str] = None,
        trh: Optional[int] = None,
        tracker: Optional[str] = None,
    ) -> "ResultSet":
        """Subset by exact field values (``perf`` baselines are always
        retained so normalization keeps working on the filtered set).
        Kinds that carry no ``tracker`` only match the ``None`` filter."""

        def keep(result: Any) -> bool:
            if _kind_of(result) == PERF and result.mitigation == BASELINE:
                return True
            return (
                mitigation in (None, result.mitigation)
                and trh in (None, result.trh)
                and tracker in (None, getattr(result, "tracker", None))
            )

        return ResultSet([r for r in self.results if keep(r)])

    def by(self, *attrs: str) -> Dict[Any, Any]:
        """Index the set by result attributes: ``{key: result}``.

        ``key`` is the attribute tuple (a bare value for a single
        attribute). Attributes missing on the record fall back to its
        ``params`` dataclass, so grid axes (``swap_rate``, ``rounds``,
        ``tracker``...) key directly::

            point = results.by("mitigation", "trh")[("rrs", 1200)]

        Duplicate keys raise — the caller's key set must identify cells
        uniquely (``filter`` down or add attributes otherwise).
        """
        if not attrs:
            raise ValueError("by() needs at least one attribute name")

        def value_of(result: Any, attr: str) -> Any:
            missing = object()
            value = getattr(result, attr, missing)
            if value is missing:
                value = getattr(result.params, attr)
            return value

        indexed: Dict[Any, Any] = {}
        for result in self.results:
            key: Any = tuple(value_of(result, attr) for attr in attrs)
            if len(attrs) == 1:
                key = key[0]
            if key in indexed:
                raise ValueError(
                    f"duplicate key {key!r} for by({', '.join(attrs)}); "
                    "filter() the set down or add attributes"
                )
            indexed[key] = result
        return indexed

    @property
    def workloads(self) -> List[str]:
        """Workload names present in the set, first-seen order."""
        return list(dict.fromkeys(r.workload for r in self.results))

    @property
    def mitigations(self) -> List[str]:
        """Non-baseline mitigation names present, first-seen order."""
        return list(
            dict.fromkeys(
                r.mitigation for r in self.results if r.mitigation != BASELINE
            )
        )

    # -- normalization (perf results only) ----------------------------

    def baseline_for(self, result: SimulationResult) -> SimulationResult:
        """The baseline run matching ``result``'s workload and parameters."""
        want = _baseline_identity(result.params) if result.params else None
        fallback = None
        for candidate in self.results:
            if _kind_of(candidate) != PERF or candidate.mitigation != BASELINE:
                continue
            if candidate.workload != result.workload:
                continue
            if want is None or candidate.params is None:
                fallback = fallback or candidate
            elif _baseline_identity(candidate.params) == want:
                return candidate
        if fallback is not None:
            return fallback
        raise LookupError(
            f"no baseline result for workload {result.workload!r} "
            "in this result set"
        )

    def normalized(self, result: SimulationResult) -> float:
        """Performance of ``result`` relative to its matching baseline."""
        return normalized_performance(self.baseline_for(result), result)

    def normalized_table(self) -> Dict[str, Dict[str, float]]:
        """``{workload: {mitigation: normalized performance}}``.

        Requires one grid point per (workload, mitigation) pair — filter
        down (for example ``.filter(trh=1200)``) when a sweep holds
        several.
        """
        table: Dict[str, Dict[str, float]] = {}
        for result in self.results:
            if _kind_of(result) != PERF:
                continue
            if result.mitigation == BASELINE:
                table.setdefault(result.workload, {})
                continue
            row = table.setdefault(result.workload, {})
            if result.mitigation in row:
                raise ValueError(
                    f"multiple grid points for ({result.workload!r}, "
                    f"{result.mitigation!r}); filter() down to one first"
                )
            row[result.mitigation] = self.normalized(result)
        return table

    def sweep(self, workload: str, mitigation: str) -> Dict[int, float]:
        """``{trh: normalized performance}`` for one workload+mitigation."""
        out: Dict[int, float] = {}
        for result in self.results:
            if _kind_of(result) != PERF:
                continue
            if result.workload == workload and result.mitigation == mitigation:
                out[result.trh] = self.normalized(result)
        return out

    def suite_geomeans(self) -> Dict[str, Dict[str, float]]:
        """Per-suite geometric means of normalized performance, plus an
        ``ALL`` row aggregating every workload."""
        buckets: Dict[str, Dict[str, List[float]]] = {}
        for result in self.results:
            if _kind_of(result) != PERF or result.mitigation == BASELINE:
                continue
            value = self.normalized(result)
            for suite in (result.suite, "ALL"):
                buckets.setdefault(suite, {}).setdefault(
                    result.mitigation, []
                ).append(value)
        return {
            suite: {m: geometric_mean(vals) for m, vals in row.items()}
            for suite, row in buckets.items()
        }

    # -- export -------------------------------------------------------

    def to_json(self) -> str:
        """Serialize every result (including parameter records).

        Each record is serialized by its kind's registered hooks and
        tagged with the kind, so heterogeneous sets round-trip.
        """
        records = []
        for result in self.results:
            kind = _kind_of(result)
            record = {"kind": kind}
            record.update(EVALUATIONS.get(kind).result_to_dict(result))
            records.append(record)
        return json.dumps({"results": records}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        """Inverse of :meth:`to_json` (untagged legacy records load as
        ``perf``)."""
        data = json.loads(text)
        results = []
        for record in data["results"]:
            payload = dict(record)
            kind = payload.pop("kind", PERF)
            results.append(EVALUATIONS.get(kind).result_from_dict(payload))
        return cls(results)

    def save(self, path: str) -> None:
        """Write the JSON serialization to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "ResultSet":
        """Read a set previously written by :meth:`save`."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def to_csv(self, kind: Optional[str] = None) -> str:
        """Flat CSV: one row per result.

        The columns are the kind's; a mixed-kind set has no single
        header, so export each ``of_kind`` subset separately. Pass
        ``kind`` explicitly to pin the header when the set may be empty
        (an empty shard slice would otherwise have no kind to infer —
        the engine-backed CLI commands pass their spec's kind). ``perf``
        rows carry normalized performance where a matching baseline
        exists; the other kinds use their registered column hooks, and
        a kind without them (``hammer``, ``model``) raises
        :class:`ValueError` pointing to :meth:`to_json`.
        """
        kinds = self.kinds
        if kind is None:
            if len(kinds) > 1:
                raise ValueError(
                    f"CSV export needs a single evaluation kind, set has "
                    f"{kinds}; export each .of_kind(...) subset separately"
                )
            kind = kinds[0] if kinds else PERF
        elif any(k != kind for k in kinds):
            raise ValueError(
                f"CSV export for kind {kind!r}, but the set holds {kinds}"
            )
        if kind != PERF:
            info = EVALUATIONS.get(kind)
            if info.csv_header is None:
                raise ValueError(
                    f"kind {kind!r} has no CSV columns (its records are "
                    f"not flat); export it with to_json()"
                )
            buffer = io.StringIO()
            writer = csv.writer(buffer)
            writer.writerow(info.csv_header)
            for result in self.results:
                writer.writerow(info.csv_row(result))
            return buffer.getvalue()
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(
            [
                "workload", "suite", "mitigation", "trh", "swap_rate",
                "tracker", "seed", "num_cores", "requests_per_core",
                "time_scale", "sum_ipc", "normalized_perf", "swaps",
                "place_backs", "pins", "max_row_activations", "llc_pin_hits",
            ]
        )
        for result in self.results:
            if result.mitigation == BASELINE:
                normalized: Any = 1.0
            else:
                try:
                    normalized = self.normalized(result)
                except LookupError:
                    normalized = ""
            params = result.params
            writer.writerow(
                [
                    result.workload, result.suite, result.mitigation,
                    result.trh, result.swap_rate, result.tracker,
                    params.seed if params else "",
                    params.num_cores if params else "",
                    params.requests_per_core if params else "",
                    params.time_scale if params else "",
                    f"{result.sum_ipc:.6f}",
                    f"{normalized:.6f}" if normalized != "" else "",
                    result.swaps, result.place_backs, result.pins,
                    result.max_row_activations, result.llc_pin_hits,
                ]
            )
        return buffer.getvalue()
