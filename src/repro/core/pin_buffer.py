"""The pin-buffer: redirecting outlier DRAM rows into reserved LLC sets.

Scale-SRS pins outlier rows (rows whose swap-tracking counter crossed
``3 x TS``) in the Last Level Cache for the remainder of the refresh
interval, preventing any further DRAM activations to them. Because the
LLC's own set indexing could map all lines of a pinned row onto the same
few sets, a small *pin-buffer* in front of the LLC remaps each pinned
row's physical address range onto a dedicated span of contiguous sets
(Section V-C).

For an 8 KB row of 64 B lines in an 8-way... (the paper's example uses a
16-way 8 MB LLC with 64 B lines), a row occupies ``lines_per_row / ways``
contiguous sets. Entry ``i`` of the pin-buffer points at set
``i * sets_per_row``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class PinBufferEntry:
    """One pinned row: its identity and its reserved LLC set span."""

    bank_key: tuple
    row: int
    base_set: int
    num_sets: int


class PinBufferFullError(RuntimeError):
    """Raised when pinning is requested beyond the provisioned entries."""


class PinBuffer:
    """Address-redirection buffer in front of the LLC.

    Args:
        num_entries: Provisioned entries (66 covers the worst-case
            multi-bank attack: 3 outliers x 11 banks x 2 channels).
        row_size_bytes: DRAM row size (8 KB).
        line_size_bytes: LLC line size (64 B).
        llc_ways: LLC associativity.
    """

    def __init__(
        self,
        num_entries: int = 66,
        row_size_bytes: int = 8 * 1024,
        line_size_bytes: int = 64,
        llc_ways: int = 16,
    ):
        if num_entries <= 0:
            raise ValueError("num_entries must be positive")
        self.num_entries = num_entries
        self.row_size_bytes = row_size_bytes
        self.line_size_bytes = line_size_bytes
        self.llc_ways = llc_ways
        lines_per_row = row_size_bytes // line_size_bytes
        self.sets_per_row = max(1, lines_per_row // llc_ways)
        self._entries: Dict[tuple, PinBufferEntry] = {}
        self._free_slots: List[int] = list(range(num_entries))

    @staticmethod
    def _key(bank_key: tuple, row: int) -> tuple:
        return (bank_key, row)

    def __len__(self) -> int:
        return len(self._entries)

    def is_pinned(self, bank_key: tuple, row: int) -> bool:
        return self._key(bank_key, row) in self._entries

    def pin(self, bank_key: tuple, row: int) -> PinBufferEntry:
        """Pin ``row`` of ``bank_key``; allocates a reserved set span."""
        key = self._key(bank_key, row)
        if key in self._entries:
            return self._entries[key]
        if not self._free_slots:
            raise PinBufferFullError(
                f"all {self.num_entries} pin-buffer entries in use"
            )
        slot = self._free_slots.pop(0)
        entry = PinBufferEntry(
            bank_key=bank_key,
            row=row,
            base_set=slot * self.sets_per_row,
            num_sets=self.sets_per_row,
        )
        self._entries[key] = entry
        return entry

    def unpin(self, bank_key: tuple, row: int) -> bool:
        """Release the entry for ``row``; True if it was pinned."""
        entry = self._entries.pop(self._key(bank_key, row), None)
        if entry is None:
            return False
        self._free_slots.append(entry.base_set // self.sets_per_row)
        self._free_slots.sort()
        return True

    def clear(self) -> int:
        """Refresh-interval end: release every entry. Returns count."""
        n = len(self._entries)
        self._entries.clear()
        self._free_slots = list(range(self.num_entries))
        return n

    def redirect_set(self, bank_key: tuple, row: int, line_offset: int) -> Optional[int]:
        """LLC set index for ``line_offset`` within a pinned row.

        Returns ``None`` when the row is not pinned (the access uses the
        LLC's normal indexing).
        """
        entry = self._entries.get(self._key(bank_key, row))
        if entry is None:
            return None
        lines_per_set = self.llc_ways
        return entry.base_set + (line_offset // lines_per_set) % entry.num_sets

    @property
    def pinned_rows(self) -> List[PinBufferEntry]:
        return list(self._entries.values())

    @property
    def entry_bits(self) -> int:
        """Bits per entry: a 48-bit physical address minus the 13 row-offset
        bits (8 KB row), as sized in Section V-C."""
        return 48 - 13

    @property
    def storage_bits(self) -> int:
        return self.num_entries * self.entry_bits

    def llc_bytes_reserved(self) -> int:
        """LLC capacity consumed when every entry is in use."""
        return len(self._entries) * self.row_size_bytes
