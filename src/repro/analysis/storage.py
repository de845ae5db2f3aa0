"""On-chip storage model (Table IV).

Sizes every SRAM structure of RRS and Scale-SRS per bank:

- **RIT**: two tuple entries per swap (``<A,B>`` and ``<B,A>`` for RRS;
  real + mirrored halves for SRS/Scale-SRS), each ``2 * row_bits + 2``
  bits (two row addresses, a valid bit, a lock bit). RRS must provision
  for *two* epochs of swaps — stale tuples are evicted lazily on demand,
  so the worst case holds a full previous epoch alongside the current
  one. Scale-SRS drains stale entries at a steady scheduled rate, so it
  provisions one epoch plus a small in-flight margin. A CAT
  over-provisioning factor keeps bucket-overflow probability negligible.
- **Swap buffer** (both): 1 KB staging for the row in flight.
- **Place-back buffer** (Scale-SRS): one 8 KB row for lazy evictions.
- **Epoch register** (Scale-SRS): 19 bits.
- **Pin buffer** (Scale-SRS): 35-bit entries (48-bit physical address
  minus 13 row-offset bits), provisioned for the worst-case outlier count.

At ``TRH = 4800`` the model lands on the paper's 35 KB (RRS) and ~9 KB
(Scale-SRS) RIT sizes; at lower thresholds it scales linearly in
``1/TS`` where the paper's reported numbers grow slightly faster (their
CAT bucket rounding is not fully specified) — the headline *ratio*
(Scale-SRS ~3.3x smaller at ``TRH = 1200``) is preserved, and the paper's
reported values ship alongside as reference data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.dram.config import DRAMTiming

# Paper-reported Table IV values (KB per bank) for reference/validation.
PAPER_TABLE_IV_KB: Dict[int, Dict[str, float]] = {
    4800: {"rrs_rit": 35.0, "scale_rit": 9.4, "rrs_total": 36.0, "scale_total": 18.7},
    2400: {"rrs_rit": 130.0, "scale_rit": 35.0, "rrs_total": 131.0, "scale_total": 44.4},
    1200: {"rrs_rit": 250.0, "scale_rit": 67.5, "rrs_total": 251.0, "scale_total": 76.9},
}


@dataclass
class StorageBreakdown:
    """Per-structure storage for one design at one threshold (bytes)."""

    design: str
    trh: int
    rit_bytes: float
    swap_buffer_bytes: float
    place_back_buffer_bytes: float
    epoch_register_bytes: float
    pin_buffer_bytes: float

    @property
    def total_bytes(self) -> float:
        return (
            self.rit_bytes
            + self.swap_buffer_bytes
            + self.place_back_buffer_bytes
            + self.epoch_register_bytes
            + self.pin_buffer_bytes
        )

    @property
    def total_kb(self) -> float:
        return self.total_bytes / 1024.0


class StorageModel:
    """Sizes the SRAM structures of RRS and Scale-SRS.

    Args:
        timing: DRAM timing (supplies ``ACT_max``).
        rows_per_bank: Row-address space (17 bits for 128K rows).
        rrs_swap_rate: RRS's swap rate (6).
        scale_swap_rate: Scale-SRS's swap rate (3).
        cat_overprovision: Slack factor on CAT slots.
    """

    SWAP_BUFFER_BYTES = 1024
    PLACE_BACK_BUFFER_BYTES = 8 * 1024
    EPOCH_REGISTER_BITS = 19
    PIN_ENTRY_BITS = 35  # 48-bit physical address - 13 row-offset bits

    def __init__(
        self,
        timing: Optional[DRAMTiming] = None,
        rows_per_bank: int = 128 * 1024,
        rrs_swap_rate: float = 6.0,
        scale_swap_rate: float = 3.0,
        cat_overprovision: float = 1.17,
        direction_bit_optimization: bool = False,
    ):
        self.timing = timing or DRAMTiming()
        self.rows_per_bank = rows_per_bank
        self.rrs_swap_rate = rrs_swap_rate
        self.scale_swap_rate = scale_swap_rate
        self.cat_overprovision = cat_overprovision
        # Section VIII-4: a direction bit per entry removes the mirrored
        # half of the SRS RIT, nearly halving its storage.
        self.direction_bit_optimization = direction_bit_optimization

    @property
    def row_bits(self) -> int:
        return max(1, (self.rows_per_bank - 1).bit_length())

    @property
    def rit_entry_bits(self) -> int:
        """Two row addresses + valid + lock (+ a direction bit when the
        Section VIII-4 single-table optimisation is enabled)."""
        bits = 2 * self.row_bits + 2
        if self.direction_bit_optimization:
            bits += 1
        return bits

    def max_swaps_per_epoch(self, trh: int, swap_rate: float) -> int:
        ts = max(2, int(round(trh / swap_rate)))
        return math.ceil(self.timing.max_activations_per_window / ts)

    def rit_entries(self, trh: int, design: str) -> int:
        """Provisioned RIT slot count for a design."""
        if design == "rrs":
            swaps = self.max_swaps_per_epoch(trh, self.rrs_swap_rate)
            epochs = 2.0  # stale epoch coexists with the current one
        elif design == "scale-srs":
            swaps = self.max_swaps_per_epoch(trh, self.scale_swap_rate)
            epochs = 1.0  # lazy drain retires stale entries continuously
        else:
            raise ValueError(f"unknown design {design!r}")
        entries = math.ceil(2 * swaps * epochs * self.cat_overprovision)
        if design == "scale-srs" and self.direction_bit_optimization:
            entries = math.ceil(entries / 2)
        return entries

    def rit_bytes(self, trh: int, design: str) -> float:
        return self.rit_entries(trh, design) * self.rit_entry_bits / 8.0

    def pin_buffer_entries(self, trh: int) -> int:
        """Worst-case pinned rows: ~3 outliers per bank at TRH=4800
        across 11 attackable banks and 2 channels (66 entries); lower
        thresholds admit one extra outlier per bank (the paper provisions
        420 bytes = 96 entries)."""
        outliers_per_bank = 3 if trh >= 4800 else 4
        return outliers_per_bank * 11 * 2 + (0 if trh >= 4800 else 8)

    def breakdown(self, trh: int, design: str) -> StorageBreakdown:
        """Full per-bank storage inventory for ``design`` at ``trh``."""
        if design == "rrs":
            return StorageBreakdown(
                design=design,
                trh=trh,
                rit_bytes=self.rit_bytes(trh, "rrs"),
                swap_buffer_bytes=self.SWAP_BUFFER_BYTES,
                place_back_buffer_bytes=0.0,
                epoch_register_bytes=0.0,
                pin_buffer_bytes=0.0,
            )
        if design == "scale-srs":
            return StorageBreakdown(
                design=design,
                trh=trh,
                rit_bytes=self.rit_bytes(trh, "scale-srs"),
                swap_buffer_bytes=self.SWAP_BUFFER_BYTES,
                place_back_buffer_bytes=self.PLACE_BACK_BUFFER_BYTES,
                epoch_register_bytes=self.EPOCH_REGISTER_BITS / 8.0,
                pin_buffer_bytes=self.pin_buffer_entries(trh) * self.PIN_ENTRY_BITS / 8.0,
            )
        raise ValueError(f"unknown design {design!r}")

    def storage_ratio(self, trh: int) -> float:
        """RRS total over Scale-SRS total (the paper's 3.3x at 1200)."""
        rrs = self.breakdown(trh, "rrs").total_bytes
        scale = self.breakdown(trh, "scale-srs").total_bytes
        return rrs / scale

    def dram_counter_overhead_fraction(self) -> float:
        """Swap-tracking counters: one 32-bit counter per 8 KB row —
        0.05% of DRAM capacity (Section IV-F)."""
        return 4.0 / (8.0 * 1024.0)

    def table(self, trh_values=(4800, 2400, 1200)) -> Dict[int, Dict[str, StorageBreakdown]]:
        """Table IV: breakdowns for both designs across thresholds."""
        return {
            trh: {
                "rrs": self.breakdown(trh, "rrs"),
                "scale-srs": self.breakdown(trh, "scale-srs"),
            }
            for trh in trh_values
        }
