"""Tests for physical-address mapping."""

import pytest

from repro.dram.address import AddressMapper, DecodedAddress
from repro.dram.config import DRAMOrganization


@pytest.fixture
def mapper():
    return AddressMapper(DRAMOrganization())


class TestRoundTrip:
    def test_zero_address(self, mapper):
        decoded = mapper.decode(0)
        assert decoded == DecodedAddress(0, 0, 0, 0, 0)
        assert mapper.encode(decoded) == 0

    def test_encode_decode_specific(self, mapper):
        decoded = DecodedAddress(channel=1, rank=0, bank=7, row=1234, column=42)
        assert mapper.decode(mapper.encode(decoded)) == decoded

    def test_consecutive_lines_interleave_channels(self, mapper):
        a = mapper.decode(0)
        b = mapper.decode(64)
        assert a.channel == 0
        assert b.channel == 1

    def test_lines_beyond_channels_interleave_banks(self, mapper):
        org = DRAMOrganization()
        addr = 64 * org.channels  # past all channels -> next bank
        assert mapper.decode(addr).bank == 1

    def test_address_bits_cover_capacity(self, mapper):
        org = DRAMOrganization()
        assert 2**mapper.address_bits == (
            org.total_banks * org.rows_per_bank * org.row_size_bytes
        )


class TestValidation:
    def test_negative_address_rejected(self, mapper):
        with pytest.raises(ValueError):
            mapper.decode(-1)

    def test_out_of_range_row_rejected(self, mapper):
        bad = DecodedAddress(channel=0, rank=0, bank=0, row=128 * 1024, column=0)
        with pytest.raises(ValueError):
            mapper.encode(bad)

    def test_out_of_range_channel_rejected(self, mapper):
        bad = DecodedAddress(channel=2, rank=0, bank=0, row=0, column=0)
        with pytest.raises(ValueError):
            mapper.encode(bad)

    def test_non_power_of_two_organization_rejected(self):
        org = DRAMOrganization(rows_per_bank=100_000)
        with pytest.raises(ValueError):
            AddressMapper(org)


class TestRowAddress:
    def test_address_of_row_decodes_back(self, mapper):
        addr = mapper.encode(
            DecodedAddress(channel=1, rank=0, bank=3, row=999, column=0)
        )
        decoded = mapper.decode(addr)
        assert (decoded.channel, decoded.rank, decoded.bank, decoded.row) == (1, 0, 3, 999)
        assert decoded.column == 0

    def test_bank_key(self, mapper):
        address = mapper.encode(DecodedAddress(1, 0, 5, row=7, column=0))
        assert mapper.decode(address).bank_key == (1, 0, 5)
