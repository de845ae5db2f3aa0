"""Synthetic trace generation from per-benchmark activation profiles.

Row-swap mitigation overheads are driven by a workload's row-activation
statistics: how memory-intensive it is (misses per kilo-instruction), how
concentrated its accesses are on a few *hot rows* (which cross the swap
threshold and force swaps), and how large its footprint is. The
:class:`BenchmarkProfile` captures exactly those statistics; the
:class:`SyntheticTraceGenerator` turns a profile into a USIMM-style trace
whose hot rows reproduce the paper's ">800 activations within a 64 ms
window" behaviour for the benchmarks it names as swap-heavy.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from repro.dram.config import DRAMOrganization
from repro.workloads.columnar import ColumnarTrace

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class BenchmarkProfile:
    """Activation-statistics profile of one benchmark.

    Attributes:
        name: Benchmark name (e.g. ``"gcc"``).
        suite: Suite label (e.g. ``"SPEC2K6"``).
        mpki: LLC misses per kilo-instruction (memory intensity).
        write_fraction: Share of misses that are writebacks/stores.
        footprint_rows: Distinct DRAM rows the workload touches.
        hot_row_count: Size of the hot-row set (0 = no hot rows).
        hot_access_fraction: Share of misses landing in the hot set.
        hot_zipf_exponent: Skew within the hot set (1.0 = classic Zipf).
        spread_banks: Banks the *hot set* is spread over; 1 concentrates
            all hot rows in one bank (worst case for swap contention).
        description: One-line provenance note.
    """

    name: str
    suite: str
    mpki: float
    write_fraction: float = 0.25
    footprint_rows: int = 32 * 1024
    hot_row_count: int = 0
    hot_access_fraction: float = 0.0
    hot_zipf_exponent: float = 1.0
    spread_banks: int = 1
    description: str = ""

    def __post_init__(self):
        if self.mpki <= 0:
            raise ValueError("mpki must be positive")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        if not 0.0 <= self.hot_access_fraction <= 1.0:
            raise ValueError("hot_access_fraction must be in [0, 1]")
        if self.hot_access_fraction > 0 and self.hot_row_count <= 0:
            raise ValueError("hot_access_fraction needs hot_row_count > 0")
        if self.footprint_rows <= 0:
            raise ValueError("footprint_rows must be positive")

    @property
    def mean_gap(self) -> float:
        """Mean non-memory instructions between misses."""
        return max(0.0, 1000.0 / self.mpki - 1.0)


class SyntheticTraceGenerator:
    """Generates columnar traces from a profile.

    Args:
        profile: The benchmark profile.
        organization: DRAM organization whose coordinates the trace
            addresses.
        seed: RNG seed; combine with ``core_id`` for rate-mode instances.
        core_id: Offsets the address region so each core of a rate-mode
            run touches disjoint rows (as separate processes would).
    """

    def __init__(
        self,
        profile: BenchmarkProfile,
        organization: Optional[DRAMOrganization] = None,
        seed: int = 1234,
        core_id: int = 0,
    ):
        import numpy as np

        self.profile = profile
        self.organization = organization or DRAMOrganization()
        self.core_id = core_id
        self.rng = np.random.default_rng((seed << 8) ^ core_id)
        self._hot_slots = self._place_hot_rows()

    # ------------------------------------------------------------------
    # address-space layout

    def _total_slots(self) -> int:
        org = self.organization
        return org.total_banks * org.rows_per_bank

    def _slot_to_coords(self, slots: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Global row slots -> (channel, rank, bank, row) arrays.

        Consecutive slots stripe across channels then banks, matching the
        interleaving of the address mapper.
        """
        org = self.organization
        channel = slots % org.channels
        rest = slots // org.channels
        bank = rest % org.banks_per_rank
        rest = rest // org.banks_per_rank
        rank = rest % org.ranks_per_channel
        row = rest // org.ranks_per_channel
        return channel, rank, bank, row % org.rows_per_bank

    def _core_base_slot(self) -> int:
        """Start of this core's private row region.

        Placement is drawn from a seeded RNG so different cores — and
        different benchmarks of a mix — land their hot sets in different
        banks, as independently-allocated processes would. The seed is a
        *stable* digest of (benchmark, core): Python's own ``hash()`` of
        a string is randomized per process, which would make traces
        recorded in one process replay differently in the next.
        """
        import numpy as np

        digest = hashlib.sha256(
            f"{self.profile.name}:{self.core_id}".encode()
        ).digest()
        placement_rng = np.random.default_rng(
            int.from_bytes(digest[:4], "little") ^ 0x9E37
        )
        return int(placement_rng.integers(0, max(1, self._total_slots() // 2)))

    def _place_hot_rows(self) -> np.ndarray:
        """Hot-row global slots, concentrated in ``spread_banks`` banks."""
        import numpy as np

        profile = self.profile
        if profile.hot_row_count == 0:
            return np.empty(0, dtype=np.int64)
        org = self.organization
        banks = org.total_banks
        base = self._core_base_slot()
        spread = max(1, min(profile.spread_banks, banks))
        # Row i of the hot set sits in bank (i % spread), at increasing
        # row indices so hot rows are distinct.
        indices = np.arange(profile.hot_row_count, dtype=np.int64)
        return base + (indices % spread) + (indices // spread) * banks

    # ------------------------------------------------------------------
    # generation

    def _zipf_choice(self, count: int) -> np.ndarray:
        """Hot-set indices with Zipf(`hot_zipf_exponent`) popularity."""
        import numpy as np

        n = self.profile.hot_row_count
        ranks = np.arange(1, n + 1, dtype=np.float64)
        weights = ranks ** (-self.profile.hot_zipf_exponent)
        weights /= weights.sum()
        return self.rng.choice(n, size=count, p=weights)

    def generate_arrays(self, num_records: int) -> ColumnarTrace:
        """A ``num_records``-access :class:`ColumnarTrace`."""
        import numpy as np

        if num_records <= 0:
            raise ValueError("num_records must be positive")
        profile = self.profile
        org = self.organization
        mean_gap = profile.mean_gap
        if mean_gap > 0:
            gaps = self.rng.geometric(1.0 / (mean_gap + 1.0), size=num_records) - 1
        else:
            gaps = np.zeros(num_records, dtype=np.int64)
        is_write = self.rng.random(num_records) < profile.write_fraction

        slots = np.empty(num_records, dtype=np.int64)
        hot_mask = (
            self.rng.random(num_records) < profile.hot_access_fraction
            if len(self._hot_slots)
            else np.zeros(num_records, dtype=bool)
        )
        num_hot = int(hot_mask.sum())
        if num_hot:
            slots[hot_mask] = self._hot_slots[self._zipf_choice(num_hot)]
        num_cold = num_records - num_hot
        if num_cold:
            base = self._core_base_slot() + len(self._hot_slots)
            cold = base + self.rng.integers(0, profile.footprint_rows, size=num_cold)
            slots[~hot_mask] = cold
        channel, rank, bank, row = self._slot_to_coords(slots)
        column = self.rng.integers(0, org.lines_per_row, size=num_records)
        return ColumnarTrace(
            gaps=gaps.astype(np.int64),
            is_write=is_write,
            channel=channel.astype(np.int16),
            rank=rank.astype(np.int16),
            bank=bank.astype(np.int16),
            row=row.astype(np.int32),
            column=column.astype(np.int32),
        )
