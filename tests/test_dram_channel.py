"""Tests for rank/channel containers."""

from repro.dram.channel import Channel, Rank
from repro.dram.config import DRAMOrganization


class TestRank:
    def test_bank_count(self):
        rank = Rank(16, 1024)
        assert len(rank) == 16
        assert len(list(rank)) == 16

    def test_banks_are_independent(self):
        rank = Rank(4, 1024)
        rank.bank(0).access(0.0, 5)
        assert rank.bank(1).stats.count(5) == 0
        assert rank.bank(0).stats.count(5) == 1


class TestChannel:
    def test_default_organization(self):
        channel = Channel()
        org = DRAMOrganization()
        assert len(channel) == org.ranks_per_channel
        assert sum(len(rank) for rank in channel.ranks) == (
            org.ranks_per_channel * org.banks_per_rank
        )

    def test_bank_lookup(self):
        channel = Channel()
        bank = channel.bank(0, 3)
        assert bank is channel.rank(0).banks[3]

    def test_banks_have_correct_row_count(self):
        channel = Channel()
        assert channel.bank(0, 0).num_rows == 128 * 1024
