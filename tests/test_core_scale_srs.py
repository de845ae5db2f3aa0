"""Tests for Scale-SRS: outlier detection and LLC pinning."""

import pytest

from repro.core.mitigation import MitigationKind
from repro.core.pin_buffer import PinBuffer
from repro.core.scale_srs import ScaleSecureRowSwap
from repro.trackers.base import ExactTracker
from tests.test_core_rrs import hammer


@pytest.fixture
def engine(small_bank, rng):
    return ScaleSecureRowSwap(
        small_bank,
        ExactTracker(50),
        rng,
        pin_buffer=PinBuffer(num_entries=8),
        bank_key=(0, 0, 0),
        keep_events=True,
    )


class TestOutlierPinning:
    def _force_outlier(self, engine, location, charges):
        for _ in range(charges):
            engine.counters.read_and_update(location, 50)

    def test_benign_hammering_does_not_pin(self, engine):
        """Every swap moves the row, so no location accumulates enough
        counter charge to look like an outlier."""
        hammer(engine, 7, 50 * 10)
        assert engine.stats.pins == 0
        assert not engine.is_pinned(7)

    def test_repeat_location_pins(self, engine, small_bank):
        """A location charged three times (as 3 random-guess landings
        would) is pinned at the next swap from it."""
        # Pre-charge location 7 to 2 x TS; the next trigger adds TS + 1
        # and crosses 3 x TS.
        self._force_outlier(engine, 7, 2)
        hammer(engine, 7, 50)
        assert engine.stats.pins == 1
        assert engine.is_pinned(7)
        pins = [e for e in engine.stats.events if e.kind is MitigationKind.PIN]
        assert [(e.row, e.partner) for e in pins] == [(7, 7)]  # (row, location)

    def test_pinned_row_receives_no_more_demand_activations(self, engine, small_bank):
        self._force_outlier(engine, 7, 2)
        hammer(engine, 7, 50)
        count_at_pin = small_bank.stats.count(7)
        # The memory system consults is_pinned() and serves from the LLC;
        # the engine itself never activates a pinned location again.
        hammer_attempts = 10
        for _ in range(hammer_attempts):
            assert engine.is_pinned(7)
        assert small_bank.stats.count(7) == count_at_pin

    def test_pin_skips_the_swap(self, engine):
        self._force_outlier(engine, 7, 2)
        hammer(engine, 7, 50)
        # The trigger that pinned must not also swap.
        assert engine.stats.swaps == 0
        assert not engine.rit.is_swapped(7)

    def test_pinned_location_excluded_from_targets(self, engine):
        self._force_outlier(engine, 7, 2)
        hammer(engine, 7, 50)
        for _ in range(100):
            assert engine._pick_target_location(0) != 7

    def test_pins_released_at_window_end(self, engine):
        self._force_outlier(engine, 7, 2)
        hammer(engine, 7, 50)
        assert engine.is_pinned(7)
        engine.end_window(1_000_000.0)
        assert not engine.is_pinned(7)
        assert len(engine.pin_buffer) == 0

    def test_pin_buffer_exhaustion_falls_back_to_swapping(self, small_bank, rng):
        engine = ScaleSecureRowSwap(
            small_bank,
            ExactTracker(50),
            rng,
            pin_buffer=PinBuffer(num_entries=1),
            keep_events=True,
        )
        for location in (3, 4):
            for _ in range(2):
                engine.counters.read_and_update(location, 50)
        hammer(engine, 3, 50)
        hammer(engine, 4, 50, start=small_bank.busy_until)
        assert engine.stats.pins == 1
        assert engine.pin_failures == 1
        # The second outlier was swapped instead (plain SRS fallback).
        assert engine.stats.swaps == 1


class TestSharedPinBuffer:
    def test_two_banks_share_entries(self, small_bank, rng, fast_timing):
        from repro.dram.bank import Bank

        shared = PinBuffer(num_entries=2)
        engine_a = ScaleSecureRowSwap(
            small_bank, ExactTracker(50), rng, pin_buffer=shared, bank_key=(0, 0, 0)
        )
        bank_b = Bank(4096, fast_timing)
        engine_b = ScaleSecureRowSwap(
            bank_b, ExactTracker(50), rng, pin_buffer=shared, bank_key=(0, 0, 1)
        )
        for engine in (engine_a, engine_b):
            for _ in range(2):
                engine.counters.read_and_update(9, 50)
            hammer(engine, 9, 50)
        assert len(shared) == 2
        assert shared.is_pinned((0, 0, 0), 9)
        assert shared.is_pinned((0, 0, 1), 9)


class TestBatchingContract:
    """Scale-SRS adds LLC pins to the contract: the pinned-row view
    handed to the batched engine must be the live set behind
    `is_pinned`, so pins taken on the full path are honoured by the
    very next fused access."""

    def test_pinned_view_is_live(self, engine):
        view = engine.batch_pinned_view()
        assert view == set()
        for _ in range(2):
            engine.counters.read_and_update(7, 50)
        hammer(engine, 7, 50)
        assert engine.is_pinned(7)
        assert 7 in view
        assert view is engine.batch_pinned_view()
        engine.end_window(1_000_000.0)
        assert 7 not in view

    def test_horizon_replay_performs_no_pin_or_swap(self, engine):
        hammer(engine, 7, 30)
        horizon = engine.batch_horizon()
        assert horizon == 50 - 1 - 30
        hammer(engine, 7, horizon, start=engine.bank.busy_until)
        assert engine.stats.swaps == 0
        assert engine.stats.pins == 0
        hammer(engine, 7, 1, start=engine.bank.busy_until)
        assert engine.stats.swaps + engine.stats.pins == 1
