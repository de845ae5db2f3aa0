"""Per-row swap-tracking counters and the epoch register (Section IV-F).

To future-proof SRS against unknown attack patterns, every swap first
reads and updates a per-row counter stored in a reserved region of main
memory (0.05% of capacity: one 32-bit counter per row, 512 KB per bank of
128K rows, held in sixty-four 8 KB counter rows). Each counter packs a
19-bit epoch-id and a 13-bit cumulative activation count; a 19-bit on-chip
epoch register identifies the current epoch. Counter state from an older
epoch is treated as zero, and when the epoch register wraps (all ones) all
counters are bulk-reset (64 row reads, about 41 us every 4.6 hours).

Batching note: swap-tracking counters mutate only inside the swap path
(``read_and_update`` is called from ``SecureRowSwap._swap``) and at
window boundaries (``advance_epoch``), both of which run on the scalar
path of the batched engine. A fused span therefore never touches this
module — its quiescence is implied by the mitigation's
``batch_horizon``/``row_headroom`` trigger-freedom guarantees, and needs
no separate horizon of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


EPOCH_ID_BITS = 19
ACTIVATION_COUNT_BITS = 13
COUNTER_BITS = 32  # one 32-bit counter per DRAM row


class EpochRegister:
    """The on-chip epoch counter (19 bits, wraps to zero).

    The paper divides each 64 ms refresh interval into two epochs
    (following Graphene and Hydra), so one epoch is 32 ms.
    """

    def __init__(self, bits: int = EPOCH_ID_BITS):
        if bits <= 0:
            raise ValueError("bits must be positive")
        self.bits = bits
        self.value = 0
        self.wraps = 0

    @property
    def max_value(self) -> int:
        return (1 << self.bits) - 1

    def advance(self) -> bool:
        """Move to the next epoch. Returns True when the register wrapped
        (all counters must be bulk-reset)."""
        if self.value == self.max_value:
            self.value = 0
            self.wraps += 1
            return True
        self.value += 1
        return False


@dataclass
class CounterReadResult:
    """Result of the read-update performed before a swap."""

    cumulative_activations: int
    was_stale: bool
    dram_accesses: int


class SwapTrackingCounters:
    """Per-row counters: (epoch-id, cumulative activation count).

    The functional model stores counters in a dictionary; the DRAM cost
    (one counter-row access per swap) is reported to the caller through
    :class:`CounterReadResult` so the engine can charge bank time.
    """

    def __init__(self, rows_per_bank: int, epoch_register: Optional[EpochRegister] = None):
        if rows_per_bank <= 0:
            raise ValueError("rows_per_bank must be positive")
        self.rows_per_bank = rows_per_bank
        self.epoch_register = epoch_register or EpochRegister()
        self._counters: Dict[int, Tuple[int, int]] = {}
        self.bulk_resets = 0
        self.max_count = (1 << ACTIVATION_COUNT_BITS) - 1

    def read_and_update(self, row: int, activations: int) -> CounterReadResult:
        """Record that a swap of ``row`` occurred after ``activations``
        cumulative activations (TS plus any latent activations).

        Returns the post-update cumulative count for this epoch. A counter
        whose stored epoch-id differs from the epoch register is stale and
        resets before accumulating.
        """
        if not 0 <= row < self.rows_per_bank:
            raise ValueError(f"row {row} out of range")
        if activations < 0:
            raise ValueError("activations must be non-negative")
        epoch = self.epoch_register.value
        stored_epoch, stored_count = self._counters.get(row, (None, 0))
        was_stale = stored_epoch != epoch
        base = 0 if was_stale else stored_count
        new_count = min(self.max_count, base + activations)
        self._counters[row] = (epoch, new_count)
        return CounterReadResult(
            cumulative_activations=new_count,
            was_stale=was_stale,
            dram_accesses=1,
        )

    def advance_epoch(self) -> bool:
        """Advance the epoch register; bulk-reset counters on wrap."""
        wrapped = self.epoch_register.advance()
        if wrapped:
            self._counters.clear()
            self.bulk_resets += 1
        return wrapped

    @property
    def storage_bytes_per_bank(self) -> int:
        """DRAM reserved for counters: one 32-bit counter per row."""
        return self.rows_per_bank * COUNTER_BITS // 8
