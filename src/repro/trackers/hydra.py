"""Hydra hybrid tracker (Qureshi et al., ISCA 2022).

Hydra keeps a small SRAM Group Count Table (GCT): one counter per group of
consecutive rows. While a group's aggregate count stays below the group
threshold, no per-row state exists. When the group threshold is crossed,
per-row counters for the group are initialised *in DRAM* (Row Count Table,
RCT) and subsequently accessed through an SRAM Row Count Cache (RCC). An
RCC miss costs a DRAM read (and a writeback of the evicted dirty entry),
which is the source of Hydra's extra memory traffic at low thresholds —
the effect Figure 16 of the paper measures.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.registry import register_tracker
from repro.trackers.base import Tracker, TrackerObservation


@dataclass(frozen=True)
class HydraConfig:
    """Hydra structure parameters.

    Attributes:
        rows_per_group: Rows aggregated per GCT counter.
        group_threshold_fraction: The group counter value (as a fraction of
            the row threshold) at which per-row tracking starts. Hydra uses
            a fraction below 1 so that no row can reach the row threshold
            while hidden inside a group counter.
        rcc_entries: Row Count Cache capacity (per bank, entries).
        group_threshold_floor: Lower bound on the group threshold. The
            group threshold is a *spatial* quantity (accesses a 128-row
            neighbourhood absorbs before per-row tracking starts), so
            time-scaled simulations must not scale it to nothing; the
            floor keeps the transition realistic at scaled thresholds.
    """

    rows_per_group: int = 128
    group_threshold_fraction: float = 0.5
    rcc_entries: int = 2048
    group_threshold_floor: int = 64


@register_tracker(
    "hydra",
    description="Hydra group/row hybrid with a DRAM-backed counter cache",
    builder=lambda threshold, timing: HydraTracker(threshold, HydraConfig()),
)
class HydraTracker(Tracker):
    """Two-level group/row tracker with a counter cache.

    The over-estimate property holds: per-row counters are initialised to
    the group threshold when a group transitions to per-row mode, so a
    row's estimate is always at least its true count.

    Hydra inherits the default ``batch_horizon() == 0``: any observation
    may miss the RCC and generate DRAM counter traffic, so no span of
    observations is ever side-effect free and the batched simulation
    engine services Hydra-tracked banks access by access.
    """

    def __init__(self, threshold: int, config: Optional[HydraConfig] = None):
        super().__init__(threshold)
        self.config = config or HydraConfig()
        if not 0 < self.config.group_threshold_fraction <= 1:
            raise ValueError("group_threshold_fraction must be in (0, 1]")
        self.group_threshold = max(
            self.config.group_threshold_floor,
            int(threshold * self.config.group_threshold_fraction),
        )
        self._group_counts: Dict[int, int] = {}
        self._hot_groups: Set[int] = set()
        # Row counters for rows in hot groups live in DRAM; the RCC caches
        # them. `_row_counts` is the DRAM-resident truth.
        self._row_counts: Dict[int, int] = {}
        self._rcc: "OrderedDict[int, int]" = OrderedDict()
        self.dram_counter_accesses = 0

    def _group_of(self, row: int) -> int:
        return row // self.config.rows_per_group

    def _rcc_access(self, row: int) -> int:
        """Access ``row``'s counter through the RCC; returns DRAM accesses."""
        if row in self._rcc:
            self._rcc.move_to_end(row)
            return 0
        extra = 1  # read the counter from DRAM
        if len(self._rcc) >= self.config.rcc_entries:
            evicted_row, _ = self._rcc.popitem(last=False)
            extra += 1  # write back the dirty evicted counter
            del evicted_row
        self._rcc[row] = self._row_counts.get(row, 0)
        self.dram_counter_accesses += extra
        return extra

    def observe(self, row: int) -> TrackerObservation:
        group = self._group_of(row)
        if group not in self._hot_groups:
            count = self._group_counts.get(group, 0) + 1
            self._group_counts[group] = count
            if count >= self.group_threshold:
                # Transition: per-row counters initialised (lazily) to the
                # group threshold — a safe over-estimate for each row.
                self._hot_groups.add(group)
            return self._note(
                TrackerObservation(triggered=False, estimated_count=count)
            )

        extra = self._rcc_access(row)
        count = self._row_counts.get(row, self.group_threshold) + 1
        self._row_counts[row] = count
        self._rcc[row] = count
        triggered = count >= self.threshold
        if triggered:
            self._row_counts[row] = 0
            self._rcc[row] = 0
        return self._note(
            TrackerObservation(
                triggered=triggered,
                extra_dram_accesses=extra,
                estimated_count=count,
            )
        )

    def count(self, row: int) -> int:
        group = self._group_of(row)
        if group in self._hot_groups:
            return self._row_counts.get(row, self.group_threshold)
        return self._group_counts.get(group, 0)

    def reset_row(self, row: int) -> None:
        if self._group_of(row) in self._hot_groups:
            self._row_counts[row] = 0
            if row in self._rcc:
                self._rcc[row] = 0

    def end_window(self) -> None:
        self._group_counts.clear()
        self._hot_groups.clear()
        self._row_counts.clear()
        self._rcc.clear()
