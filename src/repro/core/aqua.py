"""AQUA-style quarantine mitigation (Saxena et al., MICRO 2022).

The other aggressor-focused design the paper compares against
(Section IX-A): instead of swapping an aggressor with a *random* row,
AQUA migrates it into a dedicated *quarantine region* of DRAM. Victims
adjacent to quarantined rows are themselves quarantine rows (empty or
other aggressors), so hammering a quarantined row cannot flip useful
data. The quarantine is recycled each refresh window.

Compared to Scale-SRS (the paper's discussion): AQUA needs a reserved
DRAM region and a forward/reverse mapping table, but each migration
moves only one row (half a swap's traffic) and there are no latent
activations at the original location beyond the single migration.

This engine exists as a comparator for the aggressor-focused design
space; it reuses the repository's tracker and bank substrate.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.mitigation import Mitigation, MitigationKind
from repro.dram.bank import Bank
from repro.registry import register_mitigation
from repro.trackers.base import Tracker


class QuarantineFullError(RuntimeError):
    """Raised when the quarantine region overflows within one window."""


@register_mitigation(
    "aqua",
    description="AQUA quarantine migration (comparator; rate 2 = TRH/2 trigger)",
    default_swap_rate=2.0,
    builder=lambda ctx: AquaQuarantine(
        ctx.bank, ctx.tracker, keep_events=ctx.keep_events
    ),
)
class AquaQuarantine(Mitigation):
    """Quarantine-based aggressor migration for one bank.

    Args:
        bank: Protected bank. The top ``quarantine_rows`` rows of the
            bank are reserved as the quarantine region (AQUA reserves
            about 1% of DRAM).
        tracker: Tracker with the migration threshold.
        quarantine_rows: Size of the reserved region; must cover the
            maximum migrations per window (``ACT_max / threshold``).
    """

    def __init__(
        self,
        bank: Bank,
        tracker: Tracker,
        quarantine_rows: Optional[int] = None,
        keep_events: bool = False,
    ):
        super().__init__(bank, tracker, keep_events)
        needed = -(-bank.timing.max_activations_per_window // tracker.threshold)
        self.quarantine_rows = quarantine_rows if quarantine_rows is not None else needed + 8
        if self.quarantine_rows >= bank.num_rows:
            raise ValueError("quarantine cannot cover the whole bank")
        self._quarantine_base = bank.num_rows - self.quarantine_rows
        self._next_slot = 0
        # logical row -> quarantine slot row (the live resolve_map view).
        self._forward: Dict[int, int] = {}
        self.migrations = 0
        # Migration moves one row: half the row-swap traffic.
        self.t_migrate = bank.timing.t_swap / 2.0

    def resolve_map(self) -> Dict[int, int]:
        return self._forward

    def on_activation(self, time: float, row: int) -> float:
        observation = self.tracker.observe(row)
        if observation.extra_dram_accesses:
            time = self._charge_tracker_accesses(
                time, observation.extra_dram_accesses
            )
        if not observation.triggered:
            return time
        return self._migrate(time, row)

    def _migrate(self, time: float, row: int) -> float:
        """Move ``row``'s data to the next quarantine slot."""
        if self._next_slot >= self.quarantine_rows:
            raise QuarantineFullError(
                "quarantine exhausted before the window ended; "
                "region under-provisioned for this threshold"
            )
        source = self.resolve(row)
        target = self._quarantine_base + self._next_slot
        self._next_slot += 1
        # One activation at the source (read+restore) and one at the
        # quarantine destination (write).
        end = self._move(
            MitigationKind.SWAP, time, self.t_migrate, (source, target),
            row=row, partner=target,
        )
        self._forward[row] = target
        self.migrations += 1
        return end

    def end_window(self, time: float) -> None:
        """Recycle the quarantine: migrate everyone home.

        AQUA drains lazily in hardware; the functional model restores the
        mapping and charges one migration per resident row spread over
        the boundary (bank busy time).
        """
        super().end_window(time)
        cursor = time
        for row in list(self._forward):
            del self._forward[row]
            cursor = self._move(
                MitigationKind.PLACE_BACK, cursor, self.t_migrate, (row,),
                row=row,
            )
        self._next_slot = 0

    def reserved_fraction(self) -> float:
        """Share of the bank sacrificed to the quarantine region."""
        return self.quarantine_rows / self.bank.num_rows
