"""Tests for swap-tracking counters, the epoch register, the pin buffer,
and the mitigation base classes."""

import pytest

from repro.core.mitigation import (
    BaselineMitigation,
    MitigationEvent,
    MitigationKind,
    MitigationStats,
)
from repro.core.pin_buffer import PinBuffer, PinBufferFullError
from repro.core.swap_counters import (
    ACTIVATION_COUNT_BITS,
    EpochRegister,
    SwapTrackingCounters,
)
from repro.trackers.base import ExactTracker


class TestEpochRegister:
    def test_advance(self):
        reg = EpochRegister(bits=2)
        assert reg.value == 0
        assert not reg.advance()
        assert reg.value == 1

    def test_wrap_signals_bulk_reset(self):
        reg = EpochRegister(bits=2)
        for _ in range(3):
            assert not reg.advance()
        assert reg.advance()  # 3 -> 0 wraps
        assert reg.value == 0
        assert reg.wraps == 1

    def test_default_is_19_bits(self):
        reg = EpochRegister()
        assert reg.max_value == 2**19 - 1

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            EpochRegister(bits=0)


class TestSwapTrackingCounters:
    def test_accumulates_within_epoch(self):
        counters = SwapTrackingCounters(1024)
        counters.read_and_update(5, 100)
        result = counters.read_and_update(5, 100)
        assert result.cumulative_activations == 200
        assert not result.was_stale

    def test_stale_epoch_resets(self):
        counters = SwapTrackingCounters(1024)
        counters.read_and_update(5, 100)
        counters.advance_epoch()
        result = counters.read_and_update(5, 100)
        assert result.was_stale
        assert result.cumulative_activations == 100

    def test_peek_zero_for_stale(self):
        counters = SwapTrackingCounters(1024)
        counters.read_and_update(5, 100)
        counters.advance_epoch()
        result = counters.read_and_update(5, 0)
        assert result.was_stale and result.cumulative_activations == 0

    def test_saturates_at_13_bits(self):
        counters = SwapTrackingCounters(1024)
        result = counters.read_and_update(5, 10_000)
        assert result.cumulative_activations == 2**ACTIVATION_COUNT_BITS - 1

    def test_wrap_bulk_resets(self):
        counters = SwapTrackingCounters(1024, EpochRegister(bits=1))
        counters.read_and_update(5, 100)
        counters.advance_epoch()
        assert counters.advance_epoch()  # wrap
        assert counters.bulk_resets == 1
        assert counters.read_and_update(5, 0).cumulative_activations == 0

    def test_storage_is_0_05_percent(self):
        counters = SwapTrackingCounters(128 * 1024)
        # 512 KB of counters per bank holding 1 GB of rows = 0.05%.
        assert counters.storage_bytes_per_bank == 512 * 1024
        bank_bytes = 128 * 1024 * 8 * 1024
        assert counters.storage_bytes_per_bank / bank_bytes == pytest.approx(0.0005, rel=0.03)

    def test_counter_rows(self):
        counters = SwapTrackingCounters(128 * 1024)
        # Sixty-four 8 KB rows of counters.
        assert counters.storage_bytes_per_bank == 64 * 8 * 1024

    def test_validation(self):
        counters = SwapTrackingCounters(16)
        with pytest.raises(ValueError):
            counters.read_and_update(16, 1)
        with pytest.raises(ValueError):
            counters.read_and_update(0, -1)


class TestPinBuffer:
    def test_pin_and_query(self):
        buffer = PinBuffer(num_entries=4)
        entry = buffer.pin((0, 0, 0), 42)
        assert buffer.is_pinned((0, 0, 0), 42)
        assert not buffer.is_pinned((0, 0, 1), 42)
        assert entry.num_sets == buffer.sets_per_row

    def test_pin_idempotent(self):
        buffer = PinBuffer(num_entries=4)
        a = buffer.pin((0, 0, 0), 42)
        b = buffer.pin((0, 0, 0), 42)
        assert a == b
        assert len(buffer) == 1

    def test_distinct_set_spans(self):
        buffer = PinBuffer(num_entries=4)
        a = buffer.pin((0, 0, 0), 1)
        b = buffer.pin((0, 0, 0), 2)
        assert a.base_set != b.base_set

    def test_full_buffer_raises(self):
        buffer = PinBuffer(num_entries=1)
        buffer.pin((0, 0, 0), 1)
        with pytest.raises(PinBufferFullError):
            buffer.pin((0, 0, 0), 2)

    def test_unpin_frees_slot(self):
        buffer = PinBuffer(num_entries=1)
        buffer.pin((0, 0, 0), 1)
        assert buffer.unpin((0, 0, 0), 1)
        buffer.pin((0, 0, 0), 2)  # slot reusable
        assert not buffer.unpin((0, 0, 0), 1)

    def test_clear(self):
        buffer = PinBuffer(num_entries=4)
        buffer.pin((0, 0, 0), 1)
        buffer.pin((0, 0, 0), 2)
        assert buffer.clear() == 2
        assert len(buffer) == 0

    def test_redirect_set_for_pinned_row(self):
        buffer = PinBuffer(num_entries=4, llc_ways=16)
        buffer.pin((0, 0, 0), 1)
        redirected = buffer.redirect_set((0, 0, 0), 1, line_offset=0)
        assert redirected == 0
        assert buffer.redirect_set((0, 0, 0), 99, 0) is None

    def test_storage_sized_as_paper(self):
        # Section V-C: 66 entries of 35 bits each (~289 bytes).
        buffer = PinBuffer(num_entries=66)
        assert buffer.entry_bits == 35
        assert buffer.storage_bits / 8 == pytest.approx(289, rel=0.01)

    def test_llc_bytes_reserved(self):
        buffer = PinBuffer(num_entries=66)
        for row in range(3):
            buffer.pin((0, 0, 0), row)
        assert buffer.llc_bytes_reserved() == 3 * 8 * 1024


class TestMitigationBase:
    def test_baseline_never_mitigates(self, small_bank):
        baseline = BaselineMitigation(small_bank, ExactTracker(10))
        time = 0.0
        for _ in range(100):
            result = small_bank.access(time, 5)
            time = baseline.on_activation(result.finish, 5)
            time = max(time, result.finish)
        assert baseline.stats.swaps == 0
        assert baseline.resolve(5) == 5
        assert not baseline.is_pinned(5)

    def test_stats_aggregation(self):
        stats = MitigationStats()
        stats.record(MitigationEvent(MitigationKind.SWAP, 0.0, 1, duration=10.0), True)
        stats.record(MitigationEvent(MitigationKind.RESWAP, 0.0, 1, duration=20.0), True)
        stats.record(MitigationEvent(MitigationKind.PIN, 0.0, 1), False)
        assert stats.swaps == 1
        assert stats.reswaps == 1
        assert stats.pins == 1
        assert stats.busy_time == 30.0
        assert len(stats.events) == 2  # PIN not kept
