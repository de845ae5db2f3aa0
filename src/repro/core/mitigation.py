"""Common interface for Row Hammer mitigations attached to a bank.

A mitigation instance covers one DRAM bank. The memory controller
translates a logical row to the physical location holding its data
through the live :meth:`Mitigation.resolve_map` view (which
:meth:`Mitigation.resolve` reads too), calls
:meth:`Mitigation.on_activation` after every demand activation (so the
tracker sees it and may trigger a swap), and :meth:`Mitigation.tick`
periodically so lazy background work (SRS place-backs) can proceed.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.dram.bank import Bank
from repro.registry import register_mitigation
from repro.trackers.base import Tracker


class MitigationKind(enum.Enum):
    """Classes of mitigative actions, for event accounting."""

    SWAP = "swap"
    UNSWAP = "unswap"
    RESWAP = "reswap"
    PLACE_BACK = "place_back"
    PIN = "pin"
    UNPIN = "unpin"
    COUNTER_ACCESS = "counter_access"
    VICTIM_REFRESH = "victim_refresh"
    EPOCH_UNRAVEL = "epoch_unravel"


@dataclass
class MitigationEvent:
    """One mitigative action, for logs and tests."""

    kind: MitigationKind
    time: float
    row: int
    partner: Optional[int] = None
    duration: float = 0.0


@dataclass
class MitigationStats:
    """Aggregate counters over a mitigation's lifetime."""

    swaps: int = 0
    unswaps: int = 0
    reswaps: int = 0
    place_backs: int = 0
    pins: int = 0
    counter_accesses: int = 0
    busy_time: float = 0.0
    epoch_unravel_time: float = 0.0
    events: List[MitigationEvent] = field(default_factory=list)

    def record(self, event: MitigationEvent, keep_events: bool) -> None:
        if keep_events:
            self.events.append(event)
        self.busy_time += event.duration
        if event.kind is MitigationKind.SWAP:
            self.swaps += 1
        elif event.kind is MitigationKind.UNSWAP:
            self.unswaps += 1
        elif event.kind is MitigationKind.RESWAP:
            self.reswaps += 1
        elif event.kind is MitigationKind.PLACE_BACK:
            self.place_backs += 1
        elif event.kind is MitigationKind.PIN:
            self.pins += 1
        elif event.kind is MitigationKind.COUNTER_ACCESS:
            self.counter_accesses += 1
        elif event.kind is MitigationKind.EPOCH_UNRAVEL:
            self.epoch_unravel_time += event.duration


class Mitigation(abc.ABC):
    """Base class for per-bank Row Hammer mitigations.

    This class defines the design-independent half of the contract
    once: :meth:`resolve` and :meth:`is_pinned` read the live
    :meth:`resolve_map` / :meth:`batch_pinned_view` views, the batching
    budgets (:meth:`batch_horizon`, :meth:`row_headroom`,
    :meth:`batch_slack`) delegate to the tracker when a design declares
    :attr:`TRACKER_TRIGGERED`, and :meth:`_charge_tracker_accesses`
    charges a tracker's counter traffic. A design supplies
    :meth:`on_activation` and, as needed, the views, :meth:`tick`,
    :meth:`batch_quiet_until` and :meth:`end_window`. A new design
    starts at a horizon of 0, so every access takes the scalar path
    until it opts in.

    Args:
        bank: The bank this mitigation protects; used to record latent
            activations and to occupy the bank during data movement.
        tracker: Aggressor-row tracker configured with the swap threshold
            ``TS``.
        keep_events: Whether to retain a full :class:`MitigationEvent`
            log (tests) or only aggregate counters (long simulations).
    """

    #: True when every mitigative action between window rolls comes
    #: from a tracker trigger (timed work, if any, runs in :meth:`tick`
    #: and is announced by :meth:`batch_quiet_until`): the tracker's
    #: no-trigger guarantees are then the design's no-mitigation ones,
    #: and the batching budgets delegate to it.
    TRACKER_TRIGGERED = False

    def __init__(self, bank: Bank, tracker: Optional[Tracker], keep_events: bool = False):
        self.bank = bank
        self.tracker = tracker
        self.keep_events = keep_events
        self.stats = MitigationStats()
        # Set by designs whose window-boundary work monopolises the
        # channel (the no-unswap ablation's chain unravel): the memory
        # system stalls the channel bus until this instant.
        self.epoch_blocking_until: float = 0.0

    def resolve(self, row: int) -> int:
        """Physical location currently holding ``row``'s data.

        Defined once, from the live :meth:`resolve_map` view that the
        memory system, the batched engine and the hammer harness read,
        so a design states its indirection only there."""
        view = self.resolve_map()
        return row if view is None else view.get(row, row)

    def is_pinned(self, row: int) -> bool:
        """True if accesses to ``row`` are served from the LLC (Scale-SRS).

        Defined once, from the live :meth:`batch_pinned_view`."""
        view = self.batch_pinned_view()
        return view is not None and row in view

    @abc.abstractmethod
    def on_activation(self, time: float, row: int) -> float:
        """Notify the mitigation of a demand ACT on logical ``row``.

        Returns the time at which any triggered mitigative work completes
        (== ``time`` when nothing was triggered). The bank's busy state is
        already updated; callers only need the value for latency
        attribution.
        """

    def tick(self, time: float) -> None:
        """Advance lazy background work up to ``time``."""

    def batch_horizon(self) -> int:
        """Demand ACTs the controller may service without a possible
        mitigative action.

        Returns ``k`` with the following contract: for the next ``k``
        demand activations on this bank (any rows),
        :meth:`on_activation` performs no mitigative work — no swap, no
        tracker DRAM traffic, no bank occupation — beyond exactly one
        ``tracker.observe`` per ACT. A batched engine may therefore
        service those ACTs on a fused fast path and commit the
        activations afterwards with :meth:`observe_batch`, as long as it
        also honours the rest of the quiescence contract separately:
        row indirection via :meth:`resolve_map` (live view — swaps only
        happen through full-path calls, so it is frozen within a span),
        LLC pinning via :meth:`batch_pinned_view`, and background work
        via :meth:`batch_quiet_until`. Defined here for every design:
        the tracker's horizon when the design declares
        :attr:`TRACKER_TRIGGERED` and has a tracker, else 0 (every
        access takes the scalar path).
        """
        if self.TRACKER_TRIGGERED and self.tracker is not None:
            return self.tracker.batch_horizon()
        return 0

    def row_headroom(self, row: int) -> int:
        """ACTs of ``row`` alone guaranteed free of mitigative work.

        Per-row companion to :meth:`batch_horizon`, valid while the
        total number of ACTs deferred since the mitigation was last
        consulted stays within :meth:`batch_slack`. Delegated to the
        tracker exactly when :meth:`batch_horizon` is: a row that cannot
        trigger cannot be mitigated.
        """
        if self.TRACKER_TRIGGERED and self.tracker is not None:
            return self.tracker.row_headroom(row)
        return 0

    def batch_slack(self) -> int:
        """Total deferred ACTs before :meth:`row_headroom` values held
        by a caller degrade (see ``Tracker.batch_slack``)."""
        if self.TRACKER_TRIGGERED and self.tracker is not None:
            return self.tracker.batch_slack()
        return 0

    def observe_batch(self, rows) -> None:
        """Commit a fused span's activations to the tracker in bulk.

        Bit-identical to the ``tracker.observe(row)`` calls
        :meth:`on_activation` would have made, with the per-call
        overhead hoisted. No-op without a tracker (matching designs
        whose ``on_activation`` ignores the tracker in that case).
        """
        if self.tracker is not None:
            self.tracker.observe_batch(rows)

    def resolve_map(self) -> Optional[dict]:
        """Live ``{logical row: physical location}`` view behind
        :meth:`resolve`, or ``None`` when resolve is the identity.

        Rows absent from the dict map to themselves. The dict is *live*
        shared state, mutated in place only by full-path mitigation
        calls and never replaced — so the memory system takes it once
        at construction, and a batched engine may hoist it for a fused
        span and still observe every swap committed through the scalar
        path in between.
        """
        return None

    def batch_pinned_view(self) -> Optional[set]:
        """Live set of LLC-pinned rows behind :meth:`is_pinned`, or
        ``None`` when nothing is ever pinned (every design but
        Scale-SRS). Same liveness contract as :meth:`resolve_map`."""
        return None

    def batch_quiet_until(self) -> float:
        """Instant before which :meth:`tick` is guaranteed a no-op.

        ``inf`` for designs with no timed background work; SRS returns
        its next scheduled place-back. A batched engine must route any
        access at or past this instant through the scalar path so the
        background work runs exactly where the scalar engine runs it.
        """
        return float("inf")

    def end_window(self, time: float) -> None:
        """Refresh-window boundary: reset tracker and epoch state."""
        if self.tracker is not None:
            self.tracker.end_window()

    def _charge_tracker_accesses(self, time: float, accesses: int) -> float:
        """Occupy the bank for a tracker's counter traffic and log it.

        Hydra's counter rows are few and effectively always open, so an
        RCC miss costs a column access, not a full row cycle."""
        timing = self.bank.timing
        duration = accesses * (timing.t_cas + timing.t_bl)
        done = self.bank.occupy(time, duration)
        self._log(
            MitigationEvent(
                kind=MitigationKind.COUNTER_ACCESS,
                time=time,
                row=-1,
                duration=duration,
            )
        )
        return done

    def _log(self, event: MitigationEvent) -> None:
        self.stats.record(event, self.keep_events)


@register_mitigation(
    "baseline",
    description="no mitigation (not secure); the normalization reference",
    uses_tracker=False,
    is_baseline=True,
    builder=lambda ctx: BaselineMitigation(ctx.bank),
)
class BaselineMitigation(Mitigation):
    """The not-secure baseline: observes activations, never mitigates."""

    TRACKER_TRIGGERED = True

    #: Horizon reported when there is no tracker to bound (effectively
    #: unlimited; the engine re-checks at every span boundary anyway).
    UNBOUNDED_HORIZON = 1 << 62

    def __init__(self, bank: Bank, tracker: Optional[Tracker] = None, keep_events: bool = False):
        super().__init__(bank, tracker, keep_events)

    def on_activation(self, time: float, row: int) -> float:
        if self.tracker is not None:
            self.tracker.observe(row)
        return time

    def batch_horizon(self) -> int:
        """Never mitigates, never pins, never remaps: the tracker's
        horizon (unlimited without one)."""
        if self.tracker is None:
            return self.UNBOUNDED_HORIZON
        return super().batch_horizon()
