"""Physical-address decomposition into channel/rank/bank/row/column.

The mapper uses the interleaving common to USIMM-style simulators: the
cache-line offset occupies the low bits, channel and bank bits come next
(so consecutive lines spread across channels and banks for parallelism),
and the row address occupies the high bits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from dataclasses import dataclass

from repro.dram.config import DRAMOrganization

if TYPE_CHECKING:
    import numpy as np


def _bits_for(n: int) -> int:
    """Number of bits needed to index ``n`` items (``n`` a power of two)."""
    if n <= 0:
        raise ValueError(f"cannot index {n} items")
    if n & (n - 1) != 0:
        raise ValueError(f"{n} is not a power of two")
    return n.bit_length() - 1


@dataclass(frozen=True)
class DecodedAddress:
    """A physical address decomposed into DRAM coordinates."""

    channel: int
    rank: int
    bank: int
    row: int
    column: int

    @property
    def bank_key(self) -> tuple:
        """Globally unique (channel, rank, bank) identifier."""
        return (self.channel, self.rank, self.bank)


class AddressMapper:
    """Bidirectional mapping between physical addresses and coordinates.

    Bit layout, from least significant:
    ``| line offset | channel | bank | rank | column | row |``
    """

    def __init__(self, organization: Optional[DRAMOrganization] = None):
        self.organization = organization or DRAMOrganization()
        org = self.organization
        self._offset_bits = _bits_for(org.line_size_bytes)
        self._channel_bits = _bits_for(org.channels)
        self._bank_bits = _bits_for(org.banks_per_rank)
        self._rank_bits = _bits_for(org.ranks_per_channel)
        self._column_bits = _bits_for(org.lines_per_row)
        self._row_bits = _bits_for(org.rows_per_bank)

    @property
    def address_bits(self) -> int:
        """Total number of physical-address bits the mapper covers."""
        return (
            self._offset_bits
            + self._channel_bits
            + self._bank_bits
            + self._rank_bits
            + self._column_bits
            + self._row_bits
        )

    def decode(self, address: int) -> DecodedAddress:
        """Decompose a byte address into DRAM coordinates."""
        if address < 0:
            raise ValueError("address must be non-negative")
        bits = address >> self._offset_bits
        channel = bits & ((1 << self._channel_bits) - 1)
        bits >>= self._channel_bits
        bank = bits & ((1 << self._bank_bits) - 1)
        bits >>= self._bank_bits
        rank = bits & ((1 << self._rank_bits) - 1)
        bits >>= self._rank_bits
        column = bits & ((1 << self._column_bits) - 1)
        bits >>= self._column_bits
        row = bits & ((1 << self._row_bits) - 1)
        return DecodedAddress(channel=channel, rank=rank, bank=bank, row=row, column=column)

    def encode(self, decoded: DecodedAddress) -> int:
        """Inverse of :meth:`decode`; returns a byte address."""
        org = self.organization
        if not 0 <= decoded.channel < org.channels:
            raise ValueError(f"channel {decoded.channel} out of range")
        if not 0 <= decoded.rank < org.ranks_per_channel:
            raise ValueError(f"rank {decoded.rank} out of range")
        if not 0 <= decoded.bank < org.banks_per_rank:
            raise ValueError(f"bank {decoded.bank} out of range")
        if not 0 <= decoded.row < org.rows_per_bank:
            raise ValueError(f"row {decoded.row} out of range")
        if not 0 <= decoded.column < org.lines_per_row:
            raise ValueError(f"column {decoded.column} out of range")
        bits = decoded.row
        bits = (bits << self._column_bits) | decoded.column
        bits = (bits << self._rank_bits) | decoded.rank
        bits = (bits << self._bank_bits) | decoded.bank
        bits = (bits << self._channel_bits) | decoded.channel
        return bits << self._offset_bits

    def decode_arrays(
        self, addresses: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`decode` over an int64 address array.

        Returns ``(channel, rank, bank, row, column)`` arrays; the
        columnar trace path uses this to turn a parsed trace file into
        simulator coordinates without a per-record Python loop. An
        address beyond the organization's capacity raises
        ``ValueError`` (the row range :meth:`encode_arrays` enforces)
        instead of aliasing onto a low row.
        """
        import numpy as np

        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.size and int(addresses.min()) < 0:
            raise ValueError("addresses must be non-negative")
        if addresses.size and int(addresses.max()) >> self.address_bits:
            limit = self.organization.rows_per_bank
            raise ValueError(
                f"address 0x{int(addresses.max()):x} decodes to a row "
                f"out of range [0, {limit})"
            )
        bits = addresses >> self._offset_bits
        channel = bits & ((1 << self._channel_bits) - 1)
        bits >>= self._channel_bits
        bank = bits & ((1 << self._bank_bits) - 1)
        bits >>= self._bank_bits
        rank = bits & ((1 << self._rank_bits) - 1)
        bits >>= self._rank_bits
        column = bits & ((1 << self._column_bits) - 1)
        bits >>= self._column_bits
        row = bits & ((1 << self._row_bits) - 1)
        return channel, rank, bank, row, column

    def encode_arrays(
        self,
        channel: np.ndarray,
        rank: np.ndarray,
        bank: np.ndarray,
        row: np.ndarray,
        column: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`encode`; returns an int64 byte-address array.

        Out-of-range coordinates raise ``ValueError`` (as the scalar
        encoder does) so a trace recorded under one organization cannot
        silently alias rows under another.
        """
        import numpy as np

        org = self.organization
        arrays = {
            "channel": (np.asarray(channel, dtype=np.int64), org.channels),
            "rank": (np.asarray(rank, dtype=np.int64), org.ranks_per_channel),
            "bank": (np.asarray(bank, dtype=np.int64), org.banks_per_rank),
            "row": (np.asarray(row, dtype=np.int64), org.rows_per_bank),
            "column": (np.asarray(column, dtype=np.int64), org.lines_per_row),
        }
        for name, (values, limit) in arrays.items():
            if values.size and not (0 <= int(values.min()) and int(values.max()) < limit):
                raise ValueError(f"{name} coordinates out of range [0, {limit})")
        bits = arrays["row"][0]
        bits = (bits << self._column_bits) | arrays["column"][0]
        bits = (bits << self._rank_bits) | arrays["rank"][0]
        bits = (bits << self._bank_bits) | arrays["bank"][0]
        bits = (bits << self._channel_bits) | arrays["channel"][0]
        return bits << self._offset_bits
