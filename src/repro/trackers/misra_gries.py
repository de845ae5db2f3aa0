"""Misra-Gries frequent-items tracker (as used by Graphene and RRS).

The Misra-Gries summary guarantees that any row receiving at least ``TS``
activations within the window is flagged, using only
``ceil(ACT_max / TS)`` counters plus one shared spillover counter.

Algorithm (Graphene's lazy-decrement formulation):

- A tracked row's counter increments on each activation.
- An untracked row takes a free entry if one exists, starting at
  ``spillover + 1`` (it may have been evicted before with up to
  ``spillover`` activations — counts over-estimate, never under-estimate).
- With the table full, an untracked row replaces an entry whose count is
  at the ``spillover`` floor; if no entry is at the floor, the *spillover
  counter itself* increments (the lazy equivalent of Misra-Gries'
  decrement-all step) and the arrival is absorbed.

The last rule is what bounds ``spillover <= total_activations / entries``:
each spillover increment consumes ``entries`` worth of accumulated count.
Sized at ``entries = ACT_max / TS``, the spillover can only approach
``TS`` when a bank sustains its maximum activation rate for a full window
(which is why GUPS-like uniform traffic eventually forces swaps, exactly
as the paper observes).

A count-bucket index makes every operation O(1); the floor lookup never
scans the table.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.registry import register_tracker
from repro.trackers.base import Tracker, TrackerObservation


@register_tracker(
    "misra-gries",
    description="Misra-Gries summary sized from ACT_max/TS (Graphene, RRS)",
    builder=lambda threshold, timing: MisraGriesTracker(
        threshold,
        max(
            4,
            MisraGriesTracker.required_entries(
                timing.max_activations_per_window, threshold
            ),
        ),
    ),
)
class MisraGriesTracker(Tracker):
    """Misra-Gries summary with a spillover counter.

    Args:
        threshold: The swap threshold ``TS``.
        num_entries: Number of (row, count) entries. Secure provisioning
            requires ``num_entries >= ACT_max / TS``; use
            :meth:`required_entries` to size it.
    """

    def __init__(self, threshold: int, num_entries: int):
        super().__init__(threshold)
        if num_entries <= 0:
            raise ValueError("num_entries must be positive")
        self.num_entries = num_entries
        self._counts: Dict[int, int] = {}
        self.spillover = 0
        # Rows whose count is <= spillover (replacement candidates).
        self._floor_pool: Set[int] = set()
        # count -> rows at that count (only counts > spillover are kept).
        self._rows_at_count: Dict[int, Set[int]] = {}
        self.spillover_increments = 0

    @staticmethod
    def required_entries(max_activations: int, threshold: int) -> int:
        """Entries needed so no row reaches ``threshold`` untracked."""
        return -(-max_activations // threshold)

    # ------------------------------------------------------------------
    # bucket index maintenance

    def _bucket_remove(self, row: int, count: int) -> None:
        if row in self._floor_pool:
            self._floor_pool.discard(row)
            return
        bucket = self._rows_at_count.get(count)
        if bucket is not None:
            bucket.discard(row)
            if not bucket:
                del self._rows_at_count[count]

    def _raise_spillover(self) -> None:
        """The lazy decrement-all step: floor rises by one."""
        self.spillover += 1
        self.spillover_increments += 1
        newly_at_floor = self._rows_at_count.pop(self.spillover, None)
        if newly_at_floor:
            self._floor_pool |= newly_at_floor

    # ------------------------------------------------------------------
    # tracker interface

    def observe(self, row: int) -> TrackerObservation:
        """Record one activation of ``row``.

        The per-activation step of every Misra-Gries design, so the
        bucket-index updates (remove from the old count's bucket, add
        to the new one) and the ``_note`` bookkeeping are written out
        in-line; the trigger and spillover-raise paths keep their
        helpers.
        """
        counts = self._counts
        floor_pool = self._floor_pool
        old = counts.get(row)
        if old is None and len(counts) >= self.num_entries and not floor_pool:
            # No entry at the floor: absorb the arrival into the spillover
            # counter (Misra-Gries decrement-all).
            self._raise_spillover()
            count = self.spillover
        else:
            spillover = self.spillover
            rows_at = self._rows_at_count
            if old is not None:
                # Leave the old count's bucket.
                if row in floor_pool:
                    floor_pool.discard(row)
                else:
                    bucket = rows_at.get(old)
                    if bucket is not None:
                        bucket.discard(row)
                        if not bucket:
                            del rows_at[old]
                count = old + 1
            else:
                if len(counts) >= self.num_entries:
                    del counts[floor_pool.pop()]
                count = spillover + 1
            counts[row] = count
            # Join the new count's bucket.
            if count <= spillover:
                floor_pool.add(row)
            else:
                bucket = rows_at.get(count)
                if bucket is None:
                    rows_at[count] = {row}
                else:
                    bucket.add(row)
        self.observations += 1
        triggered = count >= self.threshold
        if triggered:
            self.triggers += 1
            self.reset_row(row)
        # Positional: (triggered, extra_dram_accesses, estimated_count).
        return TrackerObservation(triggered, 0, count)

    def count(self, row: int) -> int:
        """Current over-estimate for ``row``."""
        return self._counts.get(row, self.spillover)

    def reset_row(self, row: int) -> None:
        if row in self._counts:
            self._bucket_remove(row, self._counts[row])
            self._counts[row] = 0
            self._floor_pool.add(row)

    def observe_batch(self, rows) -> None:
        """Bulk :meth:`observe` with the bucket index ops inlined.

        Bit-identical to calling :meth:`observe` per row: the same dict
        and set operations run in the same order (including floor-pool
        ``pop`` victim selection), only the method-call and bookkeeping
        overhead is hoisted. The batched simulation engine commits every
        fused span's activations through here, so the per-row cost is
        hot-path cost. Rows that could trigger (a caller overran the
        horizon) are delegated to :meth:`observe` so trigger bookkeeping
        stays exactly the scalar path's.
        """
        counts = self._counts
        threshold = self.threshold
        num_entries = self.num_entries
        floor_pool = self._floor_pool
        rows_at = self._rows_at_count
        spillover = self.spillover
        seen = 0
        for row in rows:
            old = counts.get(row)
            if old is not None:
                count = old + 1
                if count >= threshold:
                    self.observations += seen
                    seen = 0
                    self.observe(row)
                    spillover = self.spillover
                    continue
                # Leave the old count's bucket (as in observe).
                if row in floor_pool:
                    floor_pool.discard(row)
                else:
                    bucket = rows_at.get(old)
                    bucket.discard(row)
                    if not bucket:
                        del rows_at[old]
                counts[row] = count
            else:
                if spillover + 1 >= threshold:
                    self.observations += seen
                    seen = 0
                    self.observe(row)
                    spillover = self.spillover
                    continue
                if len(counts) < num_entries:
                    count = spillover + 1
                elif floor_pool:
                    victim = floor_pool.pop()
                    del counts[victim]
                    count = spillover + 1
                else:
                    # _raise_spillover, inlined (estimate = new spillover,
                    # below threshold per the guard above; no bucket entry).
                    spillover += 1
                    self.spillover = spillover
                    self.spillover_increments += 1
                    newly_at_floor = rows_at.pop(spillover, None)
                    if newly_at_floor:
                        floor_pool |= newly_at_floor
                    seen += 1
                    continue
                counts[row] = count
            # Join the new count's bucket (as in observe).
            if count <= spillover:
                floor_pool.add(row)
            else:
                bucket = rows_at.get(count)
                if bucket is None:
                    rows_at[count] = {row}
                else:
                    bucket.add(row)
            seen += 1
        self.observations += seen

    def batch_horizon(self) -> int:
        """``threshold - 1 - M`` observations cannot trigger, where ``M``
        upper-bounds every estimate the summary can currently produce.

        ``M = max(highest occupied bucket, spillover + 1)``: a tracked
        increment yields at most ``bucket_max + 1`` (floor-pool rows sit
        at or below the spillover), an insertion or eviction-replacement
        yields ``spillover + 1``, and a spillover raise yields the new
        spillover — each observation also raises ``M`` itself by at most
        one, so the bound telescopes across the whole horizon. Unlike a
        monotone ceiling, ``M`` *drops* when a trigger resets the
        hottest row (its bucket empties), so swap designs regain a
        positive horizon right after each swap instead of losing the
        fast path for the rest of the window. The bucket index holds at
        most ``threshold`` distinct counts, so the max is O(TS).
        """
        top = self.spillover + 1
        if self._rows_at_count:
            bucket_max = max(self._rows_at_count)
            if bucket_max > top:
                top = bucket_max
        return max(0, self.threshold - 1 - top)

    def row_headroom(self, row: int) -> int:
        """Observations of ``row`` alone that cannot trigger.

        A row's estimate basis is its tracked count, or the spillover
        when untracked — and eviction can only *reset* a tracked row to
        the untracked basis, so ``max(count, spillover)`` covers both
        fates. Each observation of the row then raises its estimate by
        exactly one as long as the spillover floor itself does not move,
        which :meth:`batch_slack` guarantees (the floor rises only when
        the table is full with no entry at the floor).
        """
        basis = self._counts.get(row, self.spillover)
        if basis < self.spillover:
            basis = self.spillover
        return max(0, self.threshold - 1 - basis)

    def batch_slack(self) -> int:
        """Observations before a spillover raise becomes possible.

        A raise needs a full table with an empty floor pool; every
        observation consumes at most one unit of that distance (an
        insertion takes a free entry or pops a floor victim, an
        increment can lift a row off the floor), so ``free entries +
        floor-pool size`` bounds the safe budget.
        """
        return self.num_entries - len(self._counts) + len(self._floor_pool)

    def end_window(self) -> None:
        self._counts.clear()
        self._floor_pool.clear()
        self._rows_at_count.clear()
        self.spillover = 0

    @property
    def occupancy(self) -> float:
        return len(self._counts) / self.num_entries

    def check_invariants(self) -> None:
        """Structural consistency of the bucket index (tests)."""
        indexed = set(self._floor_pool)
        for count, rows in self._rows_at_count.items():
            assert count > self.spillover, "bucket below spillover floor"
            for row in rows:
                assert self._counts.get(row) == count, f"bucket desync for {row}"
                indexed.add(row)
        for row, count in self._counts.items():
            assert row in indexed, f"row {row} missing from index"
            if row in self._floor_pool:
                assert count <= self.spillover, f"floor row {row} above floor"
