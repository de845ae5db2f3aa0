"""Rank and channel containers aggregating banks.

A :class:`Channel` owns its ranks and exposes bank lookup by decoded
address. Refresh is modelled per rank (all-bank refresh, as on DDR4)
by the memory system's request path (``MemorySystem._read``).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.dram.bank import Bank
from repro.dram.commands import PagePolicy
from repro.dram.config import DRAMOrganization, DRAMTiming


class Rank:
    """A rank: a set of banks sharing a refresh schedule."""

    def __init__(
        self,
        num_banks: int,
        rows_per_bank: int,
        timing: Optional[DRAMTiming] = None,
        policy: PagePolicy = PagePolicy.CLOSED,
    ):
        self.timing = timing or DRAMTiming()
        self.banks: List[Bank] = [
            Bank(rows_per_bank, self.timing, policy) for _ in range(num_banks)
        ]

    def bank(self, index: int) -> Bank:
        return self.banks[index]

    def __len__(self) -> int:
        return len(self.banks)

    def __iter__(self) -> Iterator[Bank]:
        return iter(self.banks)


class Channel:
    """A channel: ranks behind one memory bus / controller."""

    def __init__(
        self,
        organization: Optional[DRAMOrganization] = None,
        timing: Optional[DRAMTiming] = None,
        policy: PagePolicy = PagePolicy.CLOSED,
    ):
        self.organization = organization or DRAMOrganization()
        self.timing = timing or DRAMTiming()
        org = self.organization
        self.ranks: List[Rank] = [
            Rank(org.banks_per_rank, org.rows_per_bank, self.timing, policy)
            for _ in range(org.ranks_per_channel)
        ]

    def rank(self, index: int) -> Rank:
        return self.ranks[index]

    def bank(self, rank: int, bank: int) -> Bank:
        return self.ranks[rank].banks[bank]

    def __len__(self) -> int:
        return len(self.ranks)
