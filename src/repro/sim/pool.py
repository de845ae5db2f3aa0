"""Pluggable execution backends for the experiment grid engine.

:func:`~repro.sim.experiment.run_grid` plans cells; a *pool* executes
them. This module provides the backend interface and two
implementations, in the style of instrumentation-infra's ``Pool`` →
``ProcessPool`` split:

- :class:`SerialPool` — in-process, one cell at a time (the
  ``max_workers=1`` path);
- :class:`ProcessPool` — a :class:`~concurrent.futures.ProcessPoolExecutor`
  fan-out, one future per cell, with interrupt-safe draining: on
  Ctrl-C, queued cells are cancelled, already-completed results still
  reach the store, and the :class:`KeyboardInterrupt` re-raises — so
  an interrupted grid rerun with ``--resume`` recomputes only genuinely
  unfinished cells.

:func:`sized_pool` is the one dispatch policy that picks between them.

Backends share one failure contract: a failing cell raises a
:class:`RuntimeError` naming the cell (:func:`wrap_cell_error`),
identically on every backend.

Both backends run on one machine. Several machines split a grid with
``--shard i/n`` (:func:`~repro.sim.store.shard_of`), each writing its
own store or a shared one; the cluster's own launcher starts the runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.registry import EVALUATIONS
from repro.workloads import plane


#: The :func:`cell_cost` floor a cell must reach to be worth a worker:
#: about the ~15 ms a process pool spends starting a worker and
#: shipping a cell (DESIGN.md, "Default dispatch"). A grid none of
#: whose cells reaches it runs in-process.
SERIAL_BREAK_EVEN = 15_000.0

#: A cell at least this costly (~100 ms) dwarfs a worker's start-up,
#: so a few such cells are worth one worker each (see :func:`pool_width`).
LONG_CELL = 100_000.0


def cell_cost(cell: Any) -> float:
    """Expected cost of one cell, in microseconds of single-CPU work.

    Delegates to the evaluation kind's registered ``cell_cost`` hint
    (see :class:`repro.registry.EvaluationInfo`), which receives the
    cell; kinds without a hint, unknown kinds, and hint failures all
    degrade to one unit, far below :data:`SERIAL_BREAK_EVEN`, so the
    default dispatch runs such cells in-process. Never returns less
    than one unit.
    """
    try:
        hook = EVALUATIONS.get(cell.kind).cell_cost
        if hook is None:
            return 1.0
        return max(1.0, float(hook(cell)))
    except Exception:
        return 1.0


def pool_width(cell_costs: Sequence[float], cpus: int) -> int:
    """Worker count for a run's pending cells; ``1`` means serial.

    The rule behind :func:`sized_pool` counts only the ``n`` cells that
    reach :data:`SERIAL_BREAK_EVEN`, on ``cpus`` CPUs:

    - serial on one CPU or when at most one cell reaches the floor;
    - ``n`` workers when ``n <= cpus``;
    - ``n`` workers when ``cpus < n <= 2 * cpus`` and each of them costs
      at least :data:`LONG_CELL` — the OS then shares the CPUs across
      all of them, where ``cpus`` workers would leave CPUs idle behind
      the last ones (three 3 s cells on two CPUs run as 2 + 1);
    - otherwise ``cpus`` workers.

    Cheaper cells run in the same pool but never widen it, so a plan
    mixing a few long cells with many cheap ones is sized by its long
    cells. The width exceeds the CPU count only in the many-long-cells
    case.
    """
    heavy = [cost for cost in cell_costs if cost >= SERIAL_BREAK_EVEN]
    cells = len(heavy)
    if cpus <= 1 or cells <= 1:
        return 1
    if cells <= cpus:
        return cells
    if cells <= 2 * cpus and min(heavy) >= LONG_CELL:
        return cells
    return cpus


def price(pending: Sequence[Tuple[int, Any]]) -> Dict[int, float]:
    """Each pending cell's :func:`cell_cost`, by plan position."""
    return {position: cell_cost(cell) for position, cell in pending}


def dispatch_order(
    pending: Sequence[Tuple[int, Any]],
    costs: Optional[Dict[int, float]] = None,
) -> List[Tuple[int, Any]]:
    """Pending ``(position, cell)`` pairs grouped by workload and put in
    submission order (:func:`repro.workloads.plane.affinity_order`,
    longest :func:`cell_cost` first within each workload). ``costs``
    (by position, see :func:`price`) is priced here when not given."""
    if costs is None:
        costs = price(pending)
    return plane.affinity_order(pending, costs)


def sized_pool(
    task: "PoolTask", max_workers: Optional[int] = None
) -> "Pool":
    """The dispatch policy :func:`~repro.sim.experiment.run_grid` uses
    when it is not given a pool.

    Serial without pricing anything on one CPU, for at most one pending
    cell, or when ``max_workers`` is ``1``. Otherwise the pending cells
    are priced once (``task.costs``) and :func:`pool_width` sizes the
    pool from the cells at or above :data:`SERIAL_BREAK_EVEN`, capped at
    ``max_workers`` when one is given: a run with at most one such cell
    stays in-process, and a pooled run sends every cell, cheap ones
    included, to the workers as its own future.
    """
    cpus = available_cpu_count()
    if cpus <= 1 or max_workers == 1 or len(task.pending) <= 1:
        return SerialPool()
    width = pool_width(list(task.costs.values()), cpus)
    if max_workers is not None:
        width = min(width, max_workers)
    return SerialPool() if width == 1 else ProcessPool(width)


@dataclass
class CellOutcome:
    """What one dispatched cell produced (worker → coordinator).

    ``result`` is the cell's result unless ``error`` is set: the cell
    raised, possibly a :class:`BaseException` such as
    :class:`KeyboardInterrupt`, which the coordinator re-routes through
    the interrupt drain path. ``plane_stats`` is the worker's
    workload-plane delta over the cell, failed or not.
    """

    result: Any = None
    error: Optional[BaseException] = None
    plane_stats: plane.PlaneStats = field(default_factory=plane.PlaneStats)


def _run_chunk(run_cell: Callable[[Any], Any], cell: Any) -> CellOutcome:
    """Worker entry: run one cell and report it with its plane delta.

    Catches ``BaseException`` — a ``KeyboardInterrupt`` delivered
    mid-cell still returns the cell's plane accounting to the
    coordinator instead of discarding it with the future. (perfbench
    wraps this entry by name to flush worker spans.)
    """
    before = plane.local_stats()
    outcome = CellOutcome()
    try:
        outcome.result = run_cell(cell)
    except BaseException as error:
        outcome.error = error
    outcome.plane_stats = plane.local_stats() - before
    return outcome


def available_cpu_count() -> int:
    """CPUs actually available to this process (the worker default).

    ``os.cpu_count()`` reports the machine's CPUs, which overstates the
    usable parallelism under cgroup CPU sets or ``taskset`` affinity
    masks (a 1-CPU container on a 64-core host reports 64). The
    scheduler affinity mask respects those limits, so it is the honest
    default for worker counts; platforms without ``sched_getaffinity``
    (macOS, Windows) fall back to ``os.cpu_count()``.
    """
    getter = getattr(os, "sched_getaffinity", None)
    if getter is not None:
        try:
            return len(getter(0)) or 1
        except OSError:  # pragma: no cover - exotic platform failure
            pass
    return os.cpu_count() or 1


def wrap_cell_error(cell: Any, error: BaseException) -> RuntimeError:
    """The uniform failure wrapper shared by every backend.

    A failing cell always surfaces as a :class:`RuntimeError` carrying
    the cell identity (kind, workload, mitigation) — serial and
    parallel execution raise byte-identical messages, so callers and
    logs never depend on the backend that happened to run the cell.
    """
    return RuntimeError(
        f"cell ({cell.kind}, {cell.workload!r}, {cell.mitigation!r}) "
        f"failed: {error}"
    )


@dataclass
class PoolTask:
    """Everything a backend needs to execute one grid run's slice.

    Attributes:
        pending: ``(plan position, cell)`` pairs to execute, in plan
            order (cells already served by the coordinator's store are
            not included).
        run_cell: Runs one cell in-process and returns its result
            (:func:`repro.sim.experiment._run_cell`).
        record: ``record(batch)`` files completed ``(position,
            result)`` pairs — it persists them to the store at once (one
            independently atomic write per cell, in order) and reports
            progress for the contiguous completed prefix. Backends must
            call it from the thread that called :meth:`Pool.run`.
    """

    pending: List[Tuple[int, Any]]
    run_cell: Callable[[Any], Any]
    record: Callable[[Sequence[Tuple[int, Any]]], None]

    @cached_property
    def costs(self) -> Dict[int, float]:
        """The pending cells' :func:`cell_cost` by plan position, priced
        on first use and then shared by :func:`sized_pool` and
        :meth:`ProcessPool.run`."""
        return price(self.pending)

    @cached_property
    def ordered(self) -> List[Tuple[int, Any]]:
        """The pending cells in :func:`dispatch_order`,
        computed on first use and then shared like :attr:`costs`."""
        return dispatch_order(self.pending, self.costs)


class Pool:
    """Execution-backend interface for :func:`~repro.sim.experiment.run_grid`.

    A pool executes the pending cells of one grid run and files the
    completed results through ``task.record``. Implementations may run
    cells in-process or across local processes — the engine neither
    knows nor cares, which is what makes every store/shard/resume
    feature composable across backends.
    """

    #: Human-readable backend name (used in error messages and logs).
    name = "pool"

    #: Workload-plane accounting of the run, populated after
    #: :meth:`run`; rolled into :class:`~repro.sim.experiment.RunStats`.
    plane_stats: Optional[plane.PlaneStats] = None

    def run(self, task: PoolTask) -> None:
        """Execute every pending cell of ``task`` (see :class:`PoolTask`)."""
        raise NotImplementedError


class SerialPool(Pool):
    """In-process execution, one cell at a time, grouped by workload.

    The backend behind ``max_workers=1``: no processes are forked, so
    monkeypatched cell runners (tests) and profilers see every call. A
    failing cell raises :func:`wrap_cell_error` immediately — the same
    error the parallel backends raise after draining.
    """

    name = "serial"

    #: One cell at a time (read by :class:`~repro.sim.experiment.RunStats`).
    max_workers = 1

    def run(self, task: PoolTask) -> None:
        """Run cells grouped by workload; stop at the first failure.

        The groups (:func:`repro.workloads.plane.workload_groups`) run
        in first-appearance order, each in plan order, so the plane's
        one-workload slot serves every repeat of a workload; nothing is
        priced. Non-``perf`` cells form one group and keep plan order.
        Each result is recorded by plan position the moment it exists,
        so a serial run persists every finished cell. The run's plane
        delta lands in :attr:`Pool.plane_stats` (even on failure).
        """
        before = plane.local_stats()
        try:
            for group in plane.workload_groups(task.pending):
                for position, cell in group:
                    try:
                        result = task.run_cell(cell)
                    except Exception as error:
                        raise wrap_cell_error(cell, error) from error
                    task.record([(position, result)])
        finally:
            self.plane_stats = plane.local_stats() - before


class ProcessPool(Pool):
    """Local fan-out over a :class:`~concurrent.futures.ProcessPoolExecutor`.

    Results are recorded the moment they complete (out of order), so a
    killed run keeps everything that actually finished. Two failure
    paths, both drain-first:

    - a *cell* failure keeps consuming the remaining futures (their
      results still reach the store) and then raises the first
      failure, wrapped by :func:`wrap_cell_error`;
    - an *interrupt* (Ctrl-C, or any non-cell exception) cancels the
      queued cells — ``shutdown(cancel_futures=True)``, so nothing new
      launches and nothing is waited on — drains already-completed
      results into the store, and re-raises. An interrupted grid rerun
      with ``--resume`` therefore recomputes only genuinely unfinished
      cells.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None):
        """``max_workers`` defaults to :func:`available_cpu_count`; it is
        honoured exactly, even above the CPU count. The default dispatch
        (:func:`sized_pool`) asks for more workers than CPUs only for a
        few long cells (:func:`pool_width`)."""
        self.max_workers = max_workers or available_cpu_count()

    def run(self, task: PoolTask) -> None:
        """Submit each pending cell as its own future; record as they
        complete.

        Cells are submitted in their workload-affinity order
        (:attr:`PoolTask.ordered`: grouped by workload, longest first),
        so a worker tends to replay one workload back to back. Each
        completed cell is recorded at once; recording stays
        plan-positional, so progress and the store do not depend on
        completion order.

        Workers start with an empty plane slot (``plane.reset`` is the
        initializer, so the accounting is the same under fork and
        spawn) and build the workloads they replay themselves. Each
        cell returns its worker's plane delta, and
        :attr:`Pool.plane_stats` sums those of every cell the
        coordinator files, on the interrupt drain path too.

        The executor (with the ``logging`` and ``threading`` it pulls
        in) and numpy load here, not at import, so a run that computes
        nothing loads neither. numpy loads before the workers fork, so
        every worker inherits it instead of importing it.
        """
        import concurrent.futures

        import numpy  # noqa: F401  (inherited by the forked workers)

        self.plane_stats = plane.PlaneStats()
        executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.max_workers, initializer=plane.reset
        )
        # Submitted cells not yet filed: future -> (position, cell).
        futures: Dict[Any, Tuple[int, Any]] = {}
        failed: Optional[Tuple[Any, Exception]] = None
        try:
            for position, cell in task.ordered:
                future = executor.submit(_run_chunk, task.run_cell, cell)
                futures[future] = (position, cell)
            for future in concurrent.futures.as_completed(futures):
                position, cell = futures.pop(future)
                try:
                    outcome = future.result()
                except Exception as error:
                    # The dispatch itself failed (broken pool,
                    # unpicklable payload): keep draining — completed
                    # cells still reach the store, so a --resume after
                    # the failure recomputes only what never ran.
                    if failed is None:
                        failed = (cell, error)
                    continue
                self._file(position, outcome, task)
                if outcome.error is None:
                    continue
                if not isinstance(outcome.error, Exception):
                    # KeyboardInterrupt (or another BaseException)
                    # inside a worker: route it through the interrupt
                    # drain below.
                    raise outcome.error
                if failed is None:
                    failed = (cell, outcome.error)
        except BaseException:
            # Interrupted (KeyboardInterrupt, or a worker re-raising
            # it): stop launching queued cells, keep what finished.
            executor.shutdown(wait=False, cancel_futures=True)
            self._drain_completed(futures, task)
            raise
        executor.shutdown()
        if failed is not None:
            cell, error = failed
            raise wrap_cell_error(cell, error) from error

    def _file(
        self, position: int, outcome: CellOutcome, task: PoolTask
    ) -> None:
        """Add one cell's plane delta and record its result, if any."""
        self.plane_stats += outcome.plane_stats
        if outcome.error is None:
            task.record([(position, outcome.result)])

    def _drain_completed(
        self, futures: Dict[Any, Tuple[int, Any]], task: PoolTask
    ) -> None:
        """File every completed, not yet filed cell (interrupt path).

        Cancelled and still-running futures are skipped — only results
        that exist are recorded."""
        for future, (position, _) in futures.items():
            if not future.done() or future.cancelled():
                continue
            try:
                outcome = future.result()
            except BaseException:
                continue
            self._file(position, outcome, task)
