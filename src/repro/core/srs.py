"""Secure Row-Swap (SRS) — swap-only indirection with lazy place-backs.

SRS (Section IV) removes the unswap-swap operations whose latent
activations power the Juggernaut attack:

- When a swapped row crosses ``TS`` again it is *swapped onward* from its
  current location to a fresh random location. The original home location
  receives no further activations (Equation 11: the home of an aggressor
  row accumulates only ``2*TS`` activations total, versus ``2*TS + 1.5*N``
  under RRS).
- Stale (previous-epoch) RIT entries are evicted *lazily*: spread evenly
  across the next window, each eviction moving one row home through the
  per-bank place-back buffer (Figure 8).
- Every swap first reads and updates a per-row swap-tracking counter in
  reserved DRAM (Section IV-F), giving attack-detection capability that
  Scale-SRS later builds on.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.core.mitigation import (
    Mitigation,
    MitigationEvent,
    MitigationKind,
)
from repro.core.rit import SRSIndirectionTable
from repro.core.rrs import rit_capacity
from repro.core.swap_counters import SwapTrackingCounters
from repro.dram.bank import Bank
from repro.registry import register_mitigation
from repro.trackers.base import Tracker


@register_mitigation(
    "srs",
    description="Secure Row-Swap: swap-only RIT, lazy place-backs, detection",
    default_swap_rate=6.0,
    builder=lambda ctx: SecureRowSwap(
        ctx.bank, ctx.tracker, ctx.rng, keep_events=ctx.keep_events
    ),
)
class SecureRowSwap(Mitigation):
    """The SRS mitigation engine for one bank.

    Args:
        bank: Protected bank.
        tracker: Tracker configured with threshold ``TS``.
        rng: Randomness source for target-location selection.
        detection_multiplier: A row whose swap-tracking counter reaches
            ``detection_multiplier * TS`` within an epoch is flagged as a
            potential attack (recorded in :attr:`attack_flags`).
    """

    TRACKER_TRIGGERED = True

    def __init__(
        self,
        bank: Bank,
        tracker: Tracker,
        rng: Optional[random.Random] = None,
        detection_multiplier: int = 3,
        keep_events: bool = False,
    ):
        super().__init__(bank, tracker, keep_events)
        self.rng = rng or random.Random(0x5757)
        if detection_multiplier < 2:
            raise ValueError("detection_multiplier must be at least 2")
        self.detection_multiplier = detection_multiplier
        timing = bank.timing
        # Swap-only chains displace up to two *new* rows per trigger (the
        # swapped row and the target's occupant), and stale entries drain
        # lazily over the following window — provision for both epochs.
        capacity = 2 * rit_capacity(
            timing.max_activations_per_window, tracker.threshold
        )
        self._rit = SRSIndirectionTable(capacity, self.rng)
        self.counters = SwapTrackingCounters(bank.num_rows)
        self.attack_flags: List[int] = []
        # Lazy-eviction schedule state.
        self._placeback_interval: Optional[float] = None
        self._next_placeback: float = 0.0

    # ------------------------------------------------------------------
    # address translation

    def resolve_map(self):
        return self._rit.resolve_view()

    @property
    def rit(self) -> SRSIndirectionTable:
        return self._rit

    # ------------------------------------------------------------------
    # batching contract
    #
    # SRS's timed background work (lazy place-backs) is exposed here:
    # `tick` is a strict no-op for any instant before the next
    # scheduled place-back, so a batched engine keeps accesses before
    # that instant fused and routes later ones through the scalar path,
    # where the place-back runs exactly as the scalar engine would run it.

    def batch_quiet_until(self) -> float:
        if self._placeback_interval is None:
            return float("inf")
        return self._next_placeback

    # ------------------------------------------------------------------
    # mitigation trigger path

    def on_activation(self, time: float, row: int) -> float:
        self.tick(time)
        obs = self.tracker.observe(row)
        if obs.extra_dram_accesses:
            time = self._charge_tracker_accesses(time, obs.extra_dram_accesses)
        if not obs.triggered:
            return time
        return self._swap(time, row)

    def _update_swap_counter(self, time: float, location: int, latent: int) -> int:
        """Read-update the counter of the *location* being swapped out of.

        Returns the cumulative activation count for the current epoch.
        Costs one counter-row access in DRAM.
        """
        result = self.counters.read_and_update(
            location, self.tracker.threshold + latent
        )
        self.bank.occupy(time, self.bank.timing.t_counter)
        self._log(
            MitigationEvent(
                kind=MitigationKind.COUNTER_ACCESS,
                time=time,
                row=location,
                duration=self.bank.timing.t_counter,
            )
        )
        return result.cumulative_activations

    def _pick_target_location(self, exclude: int) -> int:
        num_rows = self.bank.num_rows
        for _ in range(64):
            candidate = self.rng.randrange(num_rows)
            if candidate != exclude:
                return candidate
        raise RuntimeError("could not pick a swap target location")

    def _handle_detection(self, time: float, row: int, location: int, count: int) -> bool:
        """Hook for detection outcomes; Scale-SRS overrides to pin.

        Returns True when the swap should be skipped (the row was removed
        from DRAM service). SRS itself only flags.
        """
        self.attack_flags.append(location)
        return False

    def _swap(self, time: float, row: int) -> float:
        t = self.bank.timing
        source = self._rit.resolve(row)
        latent = 1  # the swap's write-back activates the source once more
        cumulative = self._update_swap_counter(time, source, latent)
        threshold = self.detection_multiplier * self.tracker.threshold
        if cumulative >= threshold:
            if self._handle_detection(time, row, source, cumulative):
                return time

        if not self._rit.room_for_swap():
            # Should not occur with a provisioned CAT; drain one stale
            # entry synchronously as a safety valve.
            time = self._force_placeback(time)

        target = self._pick_target_location(source)
        end = self.bank.occupy(time, t.t_swap)
        # Swap-only remapping: one activation at the row's *current*
        # location and one at the target. The row's home location is not
        # touched (unless this is the initial swap, where source == home).
        self.bank.stats.record(source, time)
        self.bank.stats.record(target, time)
        self._rit.record_swap(row, target)
        self._log(
            MitigationEvent(
                kind=MitigationKind.SWAP,
                time=time,
                row=row,
                partner=target,
                duration=t.t_swap,
            )
        )
        return end

    # ------------------------------------------------------------------
    # lazy evictions (place-backs)

    def tick(self, time: float) -> None:
        """Perform any place-backs whose scheduled instant has passed.

        Place-backs are *opportunistic*: a due place-back issues at its
        scheduled instant when the bank was idle then, slips to the
        bank's next free instant otherwise, and is forced through (even
        at the cost of delaying demand traffic) only once it is badly
        overdue — this is what makes lazy evictions nearly free on
        non-saturated banks while still guaranteeing the RIT drains.
        """
        if self._placeback_interval is None:
            return
        force_slack = self.bank.timing.refresh_window / 8.0
        while self._next_placeback <= time:
            stale = self._rit.pick_stale_row()
            if stale is None:
                self._placeback_interval = None
                return
            scheduled = self._next_placeback
            bank_free = self.bank.busy_until
            if bank_free <= scheduled or time - scheduled >= force_slack:
                self._do_placeback(scheduled, stale)
                self._next_placeback = scheduled + self._placeback_interval
            elif bank_free <= time:
                self._do_placeback(bank_free, stale)
                self._next_placeback = bank_free + self._placeback_interval
            else:
                # Bank busy through `time`: retry at its next free instant.
                self._next_placeback = bank_free
                break

    def _do_placeback(self, time: float, row: int) -> float:
        t = self.bank.timing
        location = self._rit.resolve(row)
        end = self.bank.occupy(time, t.t_swap)
        self.bank.stats.record(location, time)
        self.bank.stats.record(row, time)
        self._rit.place_back(row)
        self._log(
            MitigationEvent(
                kind=MitigationKind.PLACE_BACK,
                time=time,
                row=row,
                duration=t.t_swap,
            )
        )
        return end

    def _force_placeback(self, time: float) -> float:
        stale = self._rit.pick_stale_row()
        if stale is None:
            raise RuntimeError(
                "SRS RIT full of current-epoch entries; capacity misprovisioned"
            )
        return self._do_placeback(time, stale)

    # ------------------------------------------------------------------
    # epoch handling

    def end_window(self, time: float) -> None:
        super().end_window(time)
        self._rit.end_epoch()
        self.counters.advance_epoch()
        stale_count = len(self._rit.stale_rows())
        if stale_count:
            window = self.bank.timing.refresh_window
            self._placeback_interval = window / (stale_count + 1)
            self._next_placeback = time + self._placeback_interval
        else:
            self._placeback_interval = None
