"""Property-based tests (hypothesis) on the core data structures.

These pin down the invariants the security argument rests on:

- the address mapper is a bijection;
- the RRS RIT is always an involution, the SRS RIT always a permutation;
- the Misra-Gries tracker never under-counts and its spillover respects
  the N/k bound;
- bank activation accounting is exact.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rit import RITCapacityError, RRSIndirectionTable, SRSIndirectionTable
from repro.dram.address import AddressMapper, DecodedAddress
from repro.dram.bank import ActivationStats
from repro.dram.config import DRAMOrganization
from repro.trackers.misra_gries import MisraGriesTracker

MAPPER = AddressMapper(DRAMOrganization())


class TestAddressMapperProperties:
    @given(st.integers(min_value=0, max_value=2**35 - 1))
    def test_decode_encode_roundtrip(self, address):
        line_address = address & ~0x3F  # column-aligned
        assert MAPPER.encode(MAPPER.decode(line_address)) == line_address

    @given(
        st.integers(0, 1),
        st.integers(0, 15),
        st.integers(0, 128 * 1024 - 1),
        st.integers(0, 127),
    )
    def test_encode_decode_roundtrip(self, channel, bank, row, column):
        decoded = DecodedAddress(channel=channel, rank=0, bank=bank, row=row, column=column)
        assert MAPPER.decode(MAPPER.encode(decoded)) == decoded


@st.composite
def swap_operations(draw):
    """A sequence of (row, partner/target) operations over a small space."""
    n = draw(st.integers(min_value=1, max_value=60))
    ops = []
    for _ in range(n):
        a = draw(st.integers(0, 31))
        b = draw(st.integers(0, 31))
        ops.append((a, b))
    return ops


class TestRITProperties:
    @given(swap_operations())
    @settings(max_examples=200)
    def test_rrs_always_involution(self, ops):
        rit = RRSIndirectionTable(capacity=256, rng=random.Random(0))
        for a, b in ops:
            if a == b:
                continue
            if rit.is_swapped(a):
                rit.record_unswap(a)
            if rit.is_swapped(b):
                rit.record_unswap(b)
            rit.record_swap(a, b)
            rit.check_invariants()
        # Involution: applying resolve twice is the identity.
        for row in range(32):
            assert rit.resolve(rit.resolve(row)) == row

    @given(swap_operations())
    @settings(max_examples=200)
    def test_srs_always_permutation(self, ops):
        rit = SRSIndirectionTable(capacity=4096, rng=random.Random(0))
        for row, target in ops:
            if rit.resolve(row) == target:
                continue
            rit.record_swap(row, target)
            rit.check_invariants()
        resolved = [rit.resolve(row) for row in range(32)]
        assert sorted(resolved) == list(range(32))  # a permutation

    @given(swap_operations(), st.integers(0, 31))
    @settings(max_examples=100)
    def test_srs_placeback_converges(self, ops, start):
        rit = SRSIndirectionTable(capacity=4096, rng=random.Random(0))
        for row, target in ops:
            if rit.resolve(row) != target:
                rit.record_swap(row, target)
        rit.end_epoch()
        # Repeatedly placing back stale rows must terminate with the
        # identity mapping.
        for _ in range(1000):
            stale = rit.pick_stale_row()
            if stale is None:
                break
            rit.place_back(stale)
            rit.check_invariants()
        assert rit.displaced_rows() == []


class TestMisraGriesProperties:
    @given(st.lists(st.integers(0, 19), min_size=1, max_size=600))
    @settings(max_examples=200)
    def test_never_undercounts(self, rows):
        tracker = MisraGriesTracker(threshold=10_000, num_entries=4)
        true_counts = {}
        for row in rows:
            true_counts[row] = true_counts.get(row, 0) + 1
            tracker.observe(row)
        for row, true in true_counts.items():
            assert tracker.count(row) >= true or true > tracker.threshold

    @given(st.lists(st.integers(0, 999), min_size=1, max_size=600))
    @settings(max_examples=200)
    def test_spillover_bound(self, rows):
        k = 8
        tracker = MisraGriesTracker(threshold=10_000, num_entries=k)
        for row in rows:
            tracker.observe(row)
        assert tracker.spillover <= len(rows) / k + 1

    @given(st.lists(st.integers(0, 99), min_size=1, max_size=400))
    @settings(max_examples=100)
    def test_index_consistency(self, rows):
        tracker = MisraGriesTracker(threshold=50, num_entries=6)
        for row in rows:
            tracker.observe(row)
            tracker.check_invariants()


class TestActivationStatsProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.floats(0, 10_000)),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=100)
    def test_total_activations_conserved(self, events):
        stats = ActivationStats(refresh_window=1000.0, keep_history=True)
        events.sort(key=lambda e: e[1])
        for row, time in events:
            stats.record(row, time)
        stats.finalize(10_000.0)
        total = sum(record.total_activations for record in stats.history)
        assert total == len(events)
        assert stats.closed_total_activations == len(events)
        assert stats.lifetime_activations == len(events)

    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.floats(0, 999.0)),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=100)
    def test_max_count_matches_manual(self, events):
        stats = ActivationStats(refresh_window=1000.0)
        manual = {}
        for row, time in events:
            stats.record(row, time)
            manual[row] = manual.get(row, 0) + 1
        assert stats.max_count() == max(manual.values())
