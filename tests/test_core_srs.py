"""Tests for the SRS engine — the swap-only property (Equation 11),
lazy evictions, and the swap-tracking counters."""

import pytest

from repro.core.srs import SecureRowSwap
from repro.dram.bank import Bank
from repro.trackers.base import ExactTracker
from tests.test_core_rrs import hammer


@pytest.fixture
def engine(small_bank, rng):
    return SecureRowSwap(small_bank, ExactTracker(50), rng, keep_events=True)


class TestSwapOnlyProperty:
    def test_home_location_frozen_after_first_swap(self, engine, small_bank):
        """Equation 11: the aggressor's home gets TS demand ACTs plus one
        latent ACT from the initial swap — and nothing more, no matter how
        long the hammering continues."""
        hammer(engine, 7, 50 * 20)
        assert engine.stats.swaps == 20
        assert engine.stats.reswaps == 0
        assert engine.stats.unswaps == 0
        assert small_bank.stats.count(7) == 50 + 1

    def test_data_moves_on_every_trigger(self, engine):
        locations = set()
        time = 0.0
        for _ in range(5):
            time = hammer(engine, 7, 50, start=time)
            locations.add(engine.resolve(7))
        assert len(locations) == 5  # a fresh random location each time

    def test_rit_consistent_after_many_swaps(self, engine):
        hammer(engine, 7, 50 * 10)
        engine.rit.check_invariants()

    def test_swap_counter_updated_per_swap(self, engine):
        hammer(engine, 7, 50 * 3)
        assert engine.stats.counter_accesses == 3

    def test_counter_tracks_per_location_not_per_row(self, engine):
        """Each swap charges the *location* being vacated; since SRS moves
        the row every time, no location accumulates multiple charges."""
        hammer(engine, 7, 50 * 5)
        peak = max(
            engine.counters.read_and_update(location, 0).cumulative_activations
            for location in range(engine.bank.num_rows)
        )
        assert peak <= 50 + 2  # TS + latent margin


class TestDetection:
    def test_attack_flag_raised_on_repeat_location(self, small_bank, rng):
        """If the same location keeps getting swapped out of (as a
        random-guess attack landing repeatedly would cause), the swap
        counter flags it."""
        engine = SecureRowSwap(
            small_bank, ExactTracker(50), rng, detection_multiplier=2
        )
        # Simulate three triggers whose source is the same location by
        # forcing the counter directly (the RIT would normally move it).
        for _ in range(3):
            engine.counters.read_and_update(123, 50)
        assert engine.counters.read_and_update(123, 0).cumulative_activations >= 2 * 50

    def test_invalid_multiplier_rejected(self, small_bank, rng):
        with pytest.raises(ValueError):
            SecureRowSwap(small_bank, ExactTracker(50), rng, detection_multiplier=1)


class TestLazyEvictions:
    def test_placebacks_scheduled_after_window(self, engine, small_bank):
        hammer(engine, 7, 50 * 4)
        displaced = len(engine.rit.displaced_rows())
        assert displaced > 0
        engine.end_window(1_000_000.0)
        # Drive time forward through the next window with idle gaps; the
        # lazy schedule should drain every stale entry.
        time = 1_000_000.0
        for _ in range(displaced + 2):
            engine.tick(time)
            time += 1_000_000.0 / (displaced + 1)
        engine.tick(2_000_000.0)
        assert engine.stats.place_backs >= displaced - 1

    def test_placebacks_eventually_restore_home(self, engine):
        hammer(engine, 7, 50 * 3)
        engine.end_window(1_000_000.0)
        engine.tick(3_000_000.0)  # far beyond the window: force-drains
        engine.tick(5_000_000.0)
        for row in range(200):
            assert engine.resolve(row) == row

    def test_placeback_defers_when_bank_busy(self, engine, small_bank):
        hammer(engine, 7, 50)
        engine.end_window(1_000_000.0)
        # Make the bank busy well past the first scheduled place-back.
        small_bank.occupy(1_000_000.0, 600_000.0)
        before = engine.stats.place_backs
        engine.tick(1_500_001.0)
        # Not forced yet (force slack is window/8 = 125 us after schedule
        # ... but the schedule itself may be later; at minimum the engine
        # must not crash and must not run ahead of its schedule).
        assert engine.stats.place_backs >= before

    def test_current_epoch_rows_not_placed_back(self, engine):
        hammer(engine, 7, 50)
        engine.tick(900_000.0)  # same epoch: nothing stale yet
        assert engine.stats.place_backs == 0
        assert engine.rit.is_swapped(7)


class TestWindowBoundary:
    def test_end_window_advances_counter_epoch(self, engine):
        epoch_before = engine.counters.epoch_register.value
        engine.end_window(1_000_000.0)
        assert engine.counters.epoch_register.value == epoch_before + 1

    def test_counter_stale_across_epochs(self, engine):
        engine.counters.read_and_update(5, 50)
        engine.end_window(1_000_000.0)
        result = engine.counters.read_and_update(5, 0)
        assert result.was_stale and result.cumulative_activations == 0


class TestBatchingContract:
    """Horizon soundness plus the SRS-specific quiet instant: `tick`
    must be a strict no-op for any time before `batch_quiet_until`."""

    def test_horizon_replay_performs_no_swap(self, engine):
        hammer(engine, 7, 30)
        horizon = engine.batch_horizon()
        assert horizon == 50 - 1 - 30
        hammer(engine, 7, horizon, start=engine.bank.busy_until)
        assert engine.stats.swaps == 0
        hammer(engine, 7, 1, start=engine.bank.busy_until)
        assert engine.stats.swaps == 1

    def test_row_headroom_replay_performs_no_swap(self, engine):
        hammer(engine, 3, 10)
        headroom = engine.row_headroom(3)
        hammer(engine, 3, headroom, start=engine.bank.busy_until)
        assert engine.stats.swaps == 0
        hammer(engine, 3, 1, start=engine.bank.busy_until)
        assert engine.stats.swaps == 1

    def test_quiet_until_infinite_without_placebacks(self, engine):
        assert engine.batch_quiet_until() == float("inf")

    def test_quiet_until_tracks_the_placeback_schedule(self, engine):
        hammer(engine, 7, 50)  # one swap -> one stale entry next epoch
        engine.end_window(1_000_000.0)
        quiet = engine.batch_quiet_until()
        assert quiet == engine._next_placeback
        assert quiet < float("inf")
        # Strictly before the quiet instant, tick performs nothing.
        engine.tick(quiet - 1.0)
        assert engine.stats.place_backs == 0
        assert engine.batch_quiet_until() == quiet
        # At the instant itself, the place-back runs.
        engine.tick(quiet)
        assert engine.stats.place_backs == 1
