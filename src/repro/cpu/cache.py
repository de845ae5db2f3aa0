"""Set-associative LLC model with row pinning support.

The shared LLC of Table III (8 MB, 16-way, 64 B lines) with true-LRU
replacement. Scale-SRS interacts with the LLC in two ways, both modelled:

- lines belonging to *pinned* DRAM rows are never evicted;
- the pin-buffer (:mod:`repro.core.pin_buffer`) redirects pinned rows'
  lines into reserved sets, and every access flows through it first.

The fast performance-simulation path feeds the memory system with
LLC-miss traces directly (as USIMM does); this model backs the functional
tests, the quickstart example, and Scale-SRS capacity experiments.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.core.pin_buffer import PinBuffer
from repro.dram.config import SystemConfig


@dataclass
class CacheStats:
    """Hit/miss accounting."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    pinned_evictions_refused: int = 0
    bypasses: int = 0


class SetAssociativeCache:
    """LRU set-associative cache keyed by line address.

    Args:
        size_bytes: Total capacity.
        ways: Associativity.
        line_bytes: Line size.
        pin_buffer: Optional pin-buffer; when provided, lines whose
            (bank_key, row) is pinned are redirected into the reserved
            sets and protected from eviction.
    """

    def __init__(
        self,
        size_bytes: int = 8 * 1024 * 1024,
        ways: int = 16,
        line_bytes: int = 64,
        pin_buffer: Optional[PinBuffer] = None,
    ):
        if size_bytes % (ways * line_bytes) != 0:
            raise ValueError("size must be a multiple of ways * line size")
        self.ways = ways
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (ways * line_bytes)
        self.pin_buffer = pin_buffer
        # Per-set LRU: OrderedDict mapping line address -> pinned flag.
        self._sets: Dict[int, "OrderedDict[int, bool]"] = {}
        self._pinned_lines: Set[int] = set()
        self.stats = CacheStats()

    @classmethod
    def from_config(cls, config: SystemConfig, pin_buffer: Optional[PinBuffer] = None):
        """Build an LLC sized from a :class:`SystemConfig`."""
        return cls(
            size_bytes=config.llc_size_bytes,
            ways=config.llc_ways,
            line_bytes=config.organization.line_size_bytes,
            pin_buffer=pin_buffer,
        )

    def _line_address(self, address: int) -> int:
        return address // self.line_bytes

    def _set_index(self, line_address: int) -> int:
        return line_address % self.num_sets

    def _lookup_set(self, index: int) -> "OrderedDict[int, bool]":
        existing = self._sets.get(index)
        if existing is None:
            existing = OrderedDict()
            self._sets[index] = existing
        return existing

    def access(self, address: int, pinned: bool = False) -> bool:
        """Access one byte address; returns True on hit.

        Misses allocate the line, evicting the LRU non-pinned line of the
        set when full.
        """
        line = self._line_address(address)
        index = self._set_index(line)
        cache_set = self._lookup_set(index)
        if line in cache_set:
            cache_set.move_to_end(line)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(cache_set) >= self.ways and not self._evict_one(cache_set):
            # Every way of the set is pinned (a reserved pin-buffer set):
            # the miss bypasses the LLC without allocating.
            self.stats.bypasses += 1
            return False
        cache_set[line] = pinned
        if pinned:
            self._pinned_lines.add(line)
        return False

    def _evict_one(self, cache_set: "OrderedDict[int, bool]") -> bool:
        """Evict the LRU non-pinned line; False when the set is fully
        pinned (callers bypass allocation)."""
        for candidate, is_pinned in cache_set.items():
            if not is_pinned:
                del cache_set[candidate]
                self.stats.evictions += 1
                return True
            self.stats.pinned_evictions_refused += 1
        return False

    def pin_row(
        self,
        bank_key: tuple,
        row: int,
        row_base_address: int,
        row_size_bytes: int = 8 * 1024,
    ) -> int:
        """Install all lines of a DRAM row as pinned; returns lines added.

        With a pin-buffer attached, lines land in the buffer's reserved
        set span; otherwise they use normal indexing (still pinned).
        """
        lines = row_size_bytes // self.line_bytes
        installed = 0
        for offset in range(lines):
            address = row_base_address + offset * self.line_bytes
            line = self._line_address(address)
            if self.pin_buffer is not None:
                redirected = self.pin_buffer.redirect_set(bank_key, row, offset)
                index = redirected if redirected is not None else self._set_index(line)
            else:
                index = self._set_index(line)
            cache_set = self._lookup_set(index)
            if line not in cache_set:
                if len(cache_set) >= self.ways and not self._evict_one(cache_set):
                    self.stats.bypasses += 1
                    continue
                installed += 1
            cache_set[line] = True
            self._pinned_lines.add(line)
        return installed

    @property
    def pinned_line_count(self) -> int:
        """Lines currently pinned (protected from eviction)."""
        return len(self._pinned_lines)

    def occupancy(self) -> float:
        """Fraction of cache capacity holding valid lines."""
        used = sum(len(s) for s in self._sets.values())
        return used / (self.num_sets * self.ways)
