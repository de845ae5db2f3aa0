"""Tests for the flat bank layout shared by the memory system and the
decoded trace: ``DRAMOrganization.bank_index`` numbers banks channel by
channel, then rank by rank, and every consumer of a flat index agrees."""

import itertools

import numpy as np
import pytest

from repro.controller.memory_system import MemorySystem
from repro.core.mitigation import BaselineMitigation
from repro.cpu.core import TraceCore
from repro.dram.address import AddressMapper
from repro.dram.config import DRAMOrganization, SystemConfig
from repro.sim.engine.base import _DecodedTrace
from repro.workloads.columnar import ColumnarTrace

ORGANIZATIONS = {
    "default": DRAMOrganization(),
    "2x2x4": DRAMOrganization(channels=2, ranks_per_channel=2, banks_per_rank=4),
}


def coordinates(org):
    """Every (channel, rank, bank) of ``org``."""
    return list(itertools.product(
        range(org.channels),
        range(org.ranks_per_channel),
        range(org.banks_per_rank),
    ))


@pytest.fixture(params=sorted(ORGANIZATIONS))
def layout(request):
    """(organization, memory system, key each bank's mitigation got)."""
    org = ORGANIZATIONS[request.param]
    keys = {}

    def factory(bank, key):
        keys[id(bank)] = key
        return BaselineMitigation(bank)

    memory = MemorySystem(SystemConfig(organization=org), factory)
    return org, memory, keys


class TestBankLayout:
    def test_one_bank_per_coordinate(self, layout):
        org, memory, keys = layout
        assert len(memory.banks) == len(memory.mitigations) == org.total_banks
        assert sorted(keys.values()) == coordinates(org)
        assert all(bank.num_rows == org.rows_per_bank for bank in memory.banks)

    def test_bank_index_is_position_of_keyed_bank(self, layout):
        org, memory, keys = layout
        for key in coordinates(org):
            index = org.bank_index(*key)
            bank = memory.banks[index]
            assert keys[id(bank)] == key
            assert memory.mitigations[index].bank is bank
            assert index // org.banks_per_channel == key[0]

    def test_decoded_trace_column_matches(self, layout):
        org, memory, keys = layout
        mapper = AddressMapper(org)
        coords = np.array(coordinates(org))
        rows = np.arange(len(coords)) % org.rows_per_bank
        addresses = mapper.encode_arrays(
            coords[:, 0], coords[:, 1], coords[:, 2], rows, np.zeros_like(rows)
        )
        trace = ColumnarTrace.from_addresses(
            np.zeros(len(coords), np.int64), np.zeros(len(coords), bool),
            addresses, mapper,
        )
        decoded = _DecodedTrace(trace, TraceCore(0, memory.config), memory)
        expected = [tuple(key) for key in coords.tolist()]
        assert decoded.bank_index == [org.bank_index(*key) for key in expected]
        for key, index in zip(expected, decoded.bank_index):
            assert keys[id(memory.banks[index])] == key

    def test_read_reaches_only_the_indexed_bank(self, layout):
        org, memory, keys = layout
        channel = org.channels - 1
        rank = org.ranks_per_channel - 1
        bank = org.banks_per_rank - 2
        index = org.bank_index(channel, rank, bank)
        memory.read(0.0, channel, index, 17)
        touched = [
            keys[id(b)] for b in memory.banks if b.stats.lifetime_activations
        ]
        assert touched == [(channel, rank, bank)]
