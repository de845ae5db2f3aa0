"""Tracker interface and the exact reference tracker."""

from __future__ import annotations

import abc
from collections import Counter
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.registry import register_tracker


@dataclass(slots=True)
class TrackerObservation:
    """Outcome of one tracked activation.

    Attributes:
        triggered: True when the observed row crossed the swap threshold
            ``TS`` and a mitigation must be issued.
        extra_dram_accesses: Number of additional DRAM accesses the tracker
            itself generated to service this observation (non-zero for
            Hydra's counter-cache misses).
        estimated_count: The tracker's (over-)estimate of the row's
            activation count after this observation.
    """

    triggered: bool
    extra_dram_accesses: int = 0
    estimated_count: int = 0


class Tracker(abc.ABC):
    """Counts activations per row and flags rows crossing ``TS``.

    A tracker instance covers one DRAM bank. Counts never underestimate
    true activation counts (a security requirement: a row must not reach
    ``TS`` activations unnoticed).
    """

    def __init__(self, threshold: int):
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.threshold = threshold
        self.triggers = 0
        self.observations = 0

    @abc.abstractmethod
    def observe(self, row: int) -> TrackerObservation:
        """Record one activation of ``row``."""

    def observe_batch(self, rows) -> None:
        """Record a sequence of activations known not to trigger.

        Semantically identical to calling :meth:`observe` once per row in
        order — same final state, same ``observations`` bookkeeping. The
        batched simulation engine uses it to commit a span's activations
        in one call; callers must have bounded the span length with
        :meth:`batch_horizon` first, so no observation in ``rows`` can
        trigger or generate extra DRAM traffic.
        """
        observe = self.observe
        for row in rows:
            observe(row)

    def batch_horizon(self) -> int:
        """Observations guaranteed free of triggers and DRAM side traffic.

        Returns ``k`` such that the next ``k`` calls to :meth:`observe`
        (on *any* rows) are guaranteed to return ``triggered=False`` with
        ``extra_dram_accesses == 0``. The base implementation returns 0
        (no guarantee — every observation must go through the scalar
        path); trackers whose state admits a cheap bound override it.
        Hydra deliberately does not: any observation may miss its counter
        cache and cost DRAM accesses, so its horizon is always 0.
        """
        return 0

    def row_headroom(self, row: int) -> int:
        """Observations of ``row`` alone guaranteed not to trigger.

        Returns ``k`` such that the next ``k`` observations *of this
        row* return ``triggered=False`` with no DRAM side traffic,
        however they interleave with observations of other rows —
        provided the total number of observations deferred since the
        tracker was last consulted stays within :meth:`batch_slack`.
        This is the per-row rescue the batched engine uses when the
        row-agnostic :meth:`batch_horizon` is exhausted (one hot row
        sitting just below the threshold would otherwise force every
        access to the bank onto the scalar path). The base
        implementation returns 0 (no guarantee).
        """
        return 0

    def batch_slack(self) -> int:
        """Total deferred observations before :meth:`row_headroom`
        guarantees degrade.

        Bounds structural state changes that could invalidate per-row
        headrooms: for Misra-Gries, insertions can fill the table and
        raise the spillover floor (lifting every estimate), so the slack
        is the number of free entries; exact counters are independent
        per row, so their slack is unbounded. The base implementation
        returns 0 (no per-row guarantees at all).
        """
        return 0

    @abc.abstractmethod
    def reset_row(self, row: int) -> None:
        """Clear the count of ``row`` (called after its mitigation)."""

    @abc.abstractmethod
    def end_window(self) -> None:
        """Reset all state at a refresh-window boundary."""

    def _note(self, observation: TrackerObservation) -> TrackerObservation:
        self.observations += 1
        if observation.triggered:
            self.triggers += 1
        return observation


@register_tracker(
    "exact",
    description="idealised per-row counters (ground truth; not buildable)",
    builder=lambda threshold, timing: ExactTracker(threshold),
)
class ExactTracker(Tracker):
    """Idealised tracker holding one counter per row.

    Not implementable in SRAM at scale; used as ground truth in tests and
    in the security Monte-Carlo simulations, where tracker approximation
    error is not the effect under study.
    """

    def __init__(self, threshold: int):
        super().__init__(threshold)
        self._counts: Dict[int, int] = {}
        # count -> number of rows currently at that (positive) count.
        # Maintained incrementally so `batch_horizon` can report the
        # *current* maximum — which drops back down after a trigger
        # resets the hottest row — instead of a monotone ceiling that
        # would pin the horizon at 0 for the rest of the window.
        self._hist: Dict[int, int] = {}
        # Upper bound on the current maximum count; lowered lazily in
        # `batch_horizon` (total decrements are bounded by total
        # increments, so the walk is O(1) amortized).
        self._max = 0

    def _hist_remove(self, count: int) -> None:
        left = self._hist[count] - 1
        if left:
            self._hist[count] = left
        else:
            del self._hist[count]

    def observe(self, row: int) -> TrackerObservation:
        counts = self._counts
        old = counts.get(row, 0)
        if old:
            self._hist_remove(old)
        count = old + 1
        triggered = count >= self.threshold
        if triggered:
            counts[row] = 0
        else:
            counts[row] = count
            hist = self._hist
            hist[count] = hist.get(count, 0) + 1
            if count > self._max:
                self._max = count
        return self._note(
            TrackerObservation(triggered=triggered, estimated_count=count)
        )

    def observe_batch(self, rows) -> None:
        """Bulk :meth:`observe`, aggregated per row (bit-identical).

        Within a declared horizon no observation can trigger, so the
        final state is order-independent: the batch collapses to one
        count update per *distinct* row (``np.unique`` for long spans, a
        ``Counter`` for short ones). If any row could cross the
        threshold (a caller overran the horizon), the whole batch is
        replayed sequentially through :meth:`observe` so the trigger
        bookkeeping stays exactly the scalar path's.
        """
        if not isinstance(rows, list):
            rows = list(rows)
        if not rows:
            return
        counts = self._counts
        threshold = self.threshold
        if len(rows) >= 64:
            uniques, reps = np.unique(
                np.asarray(rows, dtype=np.int64), return_counts=True
            )
            pairs = list(zip(uniques.tolist(), reps.tolist()))
        else:
            pairs = list(Counter(rows).items())
        if all(counts.get(row, 0) + k < threshold for row, k in pairs):
            hist = self._hist
            maximum = self._max
            for row, k in pairs:
                old = counts.get(row, 0)
                if old:
                    left = hist[old] - 1
                    if left:
                        hist[old] = left
                    else:
                        del hist[old]
                count = old + k
                counts[row] = count
                hist[count] = hist.get(count, 0) + 1
                if count > maximum:
                    maximum = count
            self._max = maximum
            self.observations += len(rows)
            return
        observe = self.observe
        for row in rows:
            observe(row)

    def batch_horizon(self) -> int:
        """``threshold - 1 - max_count``: no count can trigger sooner."""
        maximum = self._max
        hist = self._hist
        while maximum and maximum not in hist:
            maximum -= 1
        self._max = maximum
        return max(0, self.threshold - 1 - maximum)

    def count(self, row: int) -> int:
        return self._counts.get(row, 0)

    def row_headroom(self, row: int) -> int:
        """Per-row counters are independent: exactly the row's margin."""
        return max(0, self.threshold - 1 - self._counts.get(row, 0))

    def batch_slack(self) -> int:
        """Other rows' observations never move this row's count."""
        return 1 << 62

    def reset_row(self, row: int) -> None:
        old = self._counts.pop(row, None)
        if old:
            self._hist_remove(old)

    def end_window(self) -> None:
        self._counts.clear()
        self._hist.clear()
        self._max = 0
