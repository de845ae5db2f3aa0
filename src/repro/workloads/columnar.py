"""Columnar (struct-of-arrays) memory-access traces.

:class:`ColumnarTrace` is the representation the simulator hot path
consumes: one numpy array per field (instruction gaps, read/write flags,
and the decoded DRAM coordinates), indexed by record position. Both
workload sources — the synthetic generator and the file-backed trace
loader — produce this exact shape, so a recorded trace replays through
the identical simulation code as a synthetic one (see DESIGN.md,
"Workload sources").

Conversions to and from byte addresses are vectorized through
:meth:`repro.dram.address.AddressMapper.encode_arrays` /
:meth:`~repro.dram.address.AddressMapper.decode_arrays`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.dram.address import AddressMapper

if TYPE_CHECKING:
    import numpy as np


@dataclass
class ColumnarTrace:
    """A memory-access trace as parallel numpy columns.

    Attributes:
        gaps: Non-memory instructions preceding each access (int64).
        is_write: Write flags (bool).
        channel: DRAM channel of each access (int16).
        rank: DRAM rank (int16).
        bank: DRAM bank (int16).
        row: DRAM row (int32).
        column: Cache-line column within the row (int32).
    """

    gaps: np.ndarray
    is_write: np.ndarray
    channel: np.ndarray
    rank: np.ndarray
    bank: np.ndarray
    row: np.ndarray
    column: np.ndarray

    _FIELDS = ("gaps", "is_write", "channel", "rank", "bank", "row", "column")

    def __len__(self) -> int:
        return len(self.gaps)

    @property
    def total_instructions(self) -> int:
        """Instructions represented: gaps plus one per memory access."""
        return int(self.gaps.sum()) + len(self)

    @property
    def write_fraction(self) -> float:
        """Share of accesses that are writes (0.0 for an empty trace)."""
        if len(self) == 0:
            return 0.0
        return float(self.is_write.sum()) / len(self)

    @property
    def mpki(self) -> float:
        """Misses per kilo-instruction implied by the trace."""
        instructions = self.total_instructions
        if instructions == 0:
            return 0.0
        return 1000.0 * len(self) / instructions

    def row_footprint(self) -> int:
        """Distinct (channel, rank, bank, row) tuples touched."""
        import numpy as np

        if len(self) == 0:
            return 0
        stacked = np.stack(
            [
                self.channel.astype(np.int64),
                self.rank.astype(np.int64),
                self.bank.astype(np.int64),
                self.row.astype(np.int64),
            ]
        )
        return len(np.unique(stacked, axis=1).T)

    def take(self, count: int) -> "ColumnarTrace":
        """The first ``count`` records as a new (view-backed) trace."""
        if count >= len(self):
            return self
        return ColumnarTrace(
            **{name: getattr(self, name)[:count] for name in self._FIELDS}
        )

    def encode_addresses(self, mapper: AddressMapper) -> np.ndarray:
        """Physical byte addresses of every access (vectorized encode)."""
        return mapper.encode_arrays(
            self.channel, self.rank, self.bank, self.row, self.column
        )

    @classmethod
    def from_addresses(
        cls,
        gaps: np.ndarray,
        is_write: np.ndarray,
        addresses: np.ndarray,
        mapper: AddressMapper,
    ) -> "ColumnarTrace":
        """Build a columnar trace from raw byte addresses.

        This is the loader path: trace files store addresses, and the
        mapper of the *simulated* organization decodes them into
        coordinates (vectorized), so the same file can replay under any
        geometry whose mapper covers the addresses.
        """
        import numpy as np

        channel, rank, bank, row, column = mapper.decode_arrays(addresses)
        return cls(
            gaps=np.asarray(gaps, dtype=np.int64),
            is_write=np.asarray(is_write, dtype=bool),
            channel=channel.astype(np.int16),
            rank=rank.astype(np.int16),
            bank=bank.astype(np.int16),
            row=row.astype(np.int32),
            column=column.astype(np.int32),
        )

    @classmethod
    def empty(cls) -> "ColumnarTrace":
        """A zero-record trace with correctly typed columns."""
        import numpy as np

        return cls(
            gaps=np.empty(0, dtype=np.int64),
            is_write=np.empty(0, dtype=bool),
            channel=np.empty(0, dtype=np.int16),
            rank=np.empty(0, dtype=np.int16),
            bank=np.empty(0, dtype=np.int16),
            row=np.empty(0, dtype=np.int32),
            column=np.empty(0, dtype=np.int32),
        )

    def equals(self, other: "ColumnarTrace") -> bool:
        """Exact per-column equality (the record→replay determinism check)."""
        import numpy as np

        return len(self) == len(other) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self._FIELDS
        )
