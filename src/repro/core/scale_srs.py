"""Scalable and Secure Row-Swap (Scale-SRS) — the paper's headline design.

Scale-SRS (Section V) observes that even under attack only a handful of
locations ever receive multiple swaps within one refresh window (the
Poisson analysis behind Figure 13). Rather than provisioning the swap rate
for these outliers, Scale-SRS:

- runs SRS with a *reduced* swap rate of 3 (``TS = TRH / 3``), cutting
  swap bandwidth and shrinking the RIT (Table IV's 3.3x storage saving);
- detects outlier locations with the per-row swap-tracking counters
  (counter ``>= 3 x TS``); and
- *pins* outliers in the Last Level Cache for the remainder of the
  refresh interval through the pin-buffer, so they can receive no further
  DRAM activations at all.
"""

from __future__ import annotations

import random
from typing import Optional, Set

from repro.core.mitigation import MitigationEvent, MitigationKind
from repro.core.pin_buffer import PinBuffer, PinBufferFullError
from repro.core.srs import SecureRowSwap
from repro.dram.bank import Bank
from repro.registry import register_mitigation
from repro.trackers.base import Tracker

DEFAULT_SWAP_RATE = 3


@register_mitigation(
    "scale-srs",
    description="Scale-SRS: half-rate SRS with outlier pinning in the LLC",
    default_swap_rate=3.0,
    builder=lambda ctx: ScaleSecureRowSwap(
        ctx.bank,
        ctx.tracker,
        ctx.rng,
        pin_buffer=ctx.pin_buffer,
        bank_key=ctx.bank_key,
        keep_events=ctx.keep_events,
    ),
)
class ScaleSecureRowSwap(SecureRowSwap):
    """Scale-SRS engine: SRS plus outlier pinning in the LLC.

    Args:
        bank: Protected bank.
        tracker: Tracker with threshold ``TS`` (``TRH / swap_rate``; the
            default swap rate is 3).
        pin_buffer: The (possibly shared, system-wide) pin-buffer. A
            private one is created when omitted.
        bank_key: Identifier of this bank within a shared pin-buffer.
        outlier_multiplier: Counter threshold for pinning, in units of
            ``TS``. Following Section V-B verbatim, a location is pinned
            when its post-update swap counter is ``>= outlier_multiplier *
            TS``; a pinned location therefore froze at no more than
            ``outlier_multiplier * TS`` activations plus the handful of
            latent activations already in flight — below the bit-flip
            point, which requires *exceeding* ``TRH``.
    """

    def __init__(
        self,
        bank: Bank,
        tracker: Tracker,
        rng: Optional[random.Random] = None,
        pin_buffer: Optional[PinBuffer] = None,
        bank_key: tuple = (0, 0, 0),
        outlier_multiplier: int = 3,
        keep_events: bool = False,
    ):
        super().__init__(
            bank,
            tracker,
            rng=rng,
            detection_multiplier=outlier_multiplier,
            keep_events=keep_events,
        )
        # `is not None` matters: an empty PinBuffer is falsy (len == 0).
        self.pin_buffer = pin_buffer if pin_buffer is not None else PinBuffer()
        self.bank_key = bank_key
        self.outlier_multiplier = outlier_multiplier
        self._pinned_rows: Set[int] = set()
        self._pinned_locations: Set[int] = set()
        self.pin_failures = 0

    # ------------------------------------------------------------------
    # LLC interaction

    def batch_pinned_view(self):
        """Live pinned-row set behind :meth:`is_pinned`. Pins happen only
        inside full-path swap handling and unpins only at window ends,
        so a batched engine checking this set per fused access stays
        bit-identical to per-access :meth:`is_pinned` calls."""
        return self._pinned_rows

    # ------------------------------------------------------------------
    # detection -> pinning

    def _handle_detection(self, time: float, row: int, location: int, count: int) -> bool:
        """Pin the outlier instead of swapping it onward.

        Pinning serves ``row`` (whose data sits at ``location``) from the
        LLC for the rest of the refresh interval and retires ``location``
        from swap-target selection, so the location's activation count is
        frozen.
        """
        self.attack_flags.append(location)
        try:
            self.pin_buffer.pin(self.bank_key, row)
        except PinBufferFullError:
            # Provisioned for the worst case (Section V-C); if an
            # adversary still exhausts it we fall back to swapping, which
            # is the plain-SRS behaviour (secure at swap rate >= 6).
            self.pin_failures += 1
            return False
        self._pinned_rows.add(row)
        self._pinned_locations.add(location)
        self._log(
            MitigationEvent(
                kind=MitigationKind.PIN,
                time=time,
                row=row,
                partner=location,
                duration=0.0,
            )
        )
        return True

    def _pick_target_location(self, exclude: int) -> int:
        num_rows = self.bank.num_rows
        for _ in range(64):
            candidate = self.rng.randrange(num_rows)
            if candidate == exclude or candidate in self._pinned_locations:
                continue
            return candidate
        raise RuntimeError("could not pick a swap target location")

    # ------------------------------------------------------------------
    # epoch handling

    def end_window(self, time: float) -> None:
        """Window end: release every pin (Section V-C: entries are cleared
        and their rows evicted once the refresh interval ends)."""
        for row in self._pinned_rows:
            self.pin_buffer.unpin(self.bank_key, row)
            self._log(
                MitigationEvent(
                    kind=MitigationKind.UNPIN,
                    time=time,
                    row=row,
                    duration=0.0,
                )
            )
        self._pinned_rows.clear()
        self._pinned_locations.clear()
        super().end_window(time)
