"""Tests for the aggressor-row trackers.

The non-negotiable property: a tracker must never let a row reach the
threshold unnoticed (no under-estimation).
"""

import random

import pytest

from repro.trackers.base import ExactTracker
from repro.trackers.hydra import HydraConfig, HydraTracker
from repro.trackers.misra_gries import MisraGriesTracker


class TestExactTracker:
    def test_triggers_exactly_at_threshold(self):
        tracker = ExactTracker(5)
        for i in range(4):
            assert not tracker.observe(7).triggered
        assert tracker.observe(7).triggered

    def test_count_resets_after_trigger(self):
        tracker = ExactTracker(3)
        for _ in range(3):
            tracker.observe(7)
        assert tracker.count(7) == 0

    def test_end_window_clears(self):
        tracker = ExactTracker(3)
        tracker.observe(7)
        tracker.end_window()
        assert tracker.count(7) == 0

    def test_reset_row(self):
        tracker = ExactTracker(3)
        tracker.observe(7)
        tracker.reset_row(7)
        assert tracker.count(7) == 0

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            ExactTracker(0)


class TestMisraGries:
    def test_tracked_row_triggers_at_threshold(self):
        tracker = MisraGriesTracker(threshold=10, num_entries=8)
        for _ in range(9):
            assert not tracker.observe(5).triggered
        assert tracker.observe(5).triggered

    def test_required_entries_formula(self):
        assert MisraGriesTracker.required_entries(1_360_000, 800) == 1700

    def test_never_underestimates(self):
        """Estimated counts must be >= true counts, under adversarial
        churn that evicts and reinserts rows."""
        tracker = MisraGriesTracker(threshold=1000, num_entries=4)
        rng = random.Random(0)
        true_counts = {}
        for _ in range(5000):
            row = rng.randrange(32)
            true_counts[row] = true_counts.get(row, 0) + 1
            tracker.observe(row)
            tracker.check_invariants()
        for row, true in true_counts.items():
            assert tracker.count(row) >= min(true, tracker.threshold), row

    def test_spillover_bounded_by_n_over_k(self):
        tracker = MisraGriesTracker(threshold=10_000, num_entries=16)
        rng = random.Random(1)
        n = 4000
        for _ in range(n):
            tracker.observe(rng.randrange(10_000))  # near-uniform churn
        assert tracker.spillover <= n / 16 + 1

    def test_hot_row_survives_uniform_churn(self):
        """A genuinely hot row must not be evicted by background noise."""
        tracker = MisraGriesTracker(threshold=100, num_entries=32)
        rng = random.Random(2)
        triggers = 0
        for i in range(6400):
            if i % 2 == 0:
                if tracker.observe(777).triggered:
                    triggers += 1
            else:
                tracker.observe(rng.randrange(100_000))
        # 3200 activations at threshold 100 -> ~32 triggers expected.
        assert triggers >= 25

    def test_saturation_forces_triggers(self):
        """GUPS behaviour: sustained uniform traffic at maximum rate drives
        the spillover toward TS and forces mitigations (Section VII-A)."""
        tracker = MisraGriesTracker(threshold=10, num_entries=10)
        rng = random.Random(3)
        triggered = 0
        for i in range(1000):
            if tracker.observe(rng.randrange(1_000_000)).triggered:
                triggered += 1
        # spillover reaches 10 after >= 100 accesses; then floor entries
        # keep being reinserted at >= threshold.
        assert tracker.spillover >= 9
        assert triggered > 0

    def test_reset_row_moves_to_floor(self):
        tracker = MisraGriesTracker(threshold=10, num_entries=4)
        for _ in range(5):
            tracker.observe(1)
        tracker.reset_row(1)
        assert tracker.count(1) == 0
        tracker.check_invariants()

    def test_end_window_clears_everything(self):
        tracker = MisraGriesTracker(threshold=10, num_entries=4)
        for row in range(8):
            tracker.observe(row)
        tracker.end_window()
        assert tracker.spillover == 0
        assert tracker.occupancy == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MisraGriesTracker(threshold=10, num_entries=0)


class TestHydra:
    def test_group_counting_before_threshold(self):
        tracker = HydraTracker(100, HydraConfig(rows_per_group=4, group_threshold_fraction=0.5, group_threshold_floor=1))
        obs = tracker.observe(0)
        assert not obs.triggered
        assert obs.extra_dram_accesses == 0
        assert tracker.count(1) == 1  # same group as row 0

    def test_transition_to_per_row_tracking(self):
        config = HydraConfig(rows_per_group=4, group_threshold_fraction=0.5, group_threshold_floor=1)
        tracker = HydraTracker(100, config)
        for _ in range(50):  # group threshold = 50
            tracker.observe(0)
        # Next access to any row of the group uses per-row counters.
        obs = tracker.observe(1)
        assert obs.extra_dram_accesses >= 1  # RCC cold miss
        assert tracker.count(1) >= 50  # initialised to group threshold

    def test_never_underestimates_after_transition(self):
        config = HydraConfig(rows_per_group=4, group_threshold_fraction=0.5, group_threshold_floor=1)
        tracker = HydraTracker(100, config)
        for _ in range(60):
            tracker.observe(0)
        # Row 0 truly has 60; estimate must be >= 60.
        assert tracker.count(0) >= 60 or tracker.count(0) == 0  # may have triggered

    def test_triggers_at_threshold(self):
        config = HydraConfig(rows_per_group=1, group_threshold_fraction=0.5, group_threshold_floor=1)
        tracker = HydraTracker(10, config)
        triggered = False
        for _ in range(10):
            triggered = triggered or tracker.observe(0).triggered
        assert triggered

    def test_rcc_hits_avoid_dram_traffic(self):
        config = HydraConfig(rows_per_group=1, group_threshold_fraction=0.5, rcc_entries=4, group_threshold_floor=1)
        tracker = HydraTracker(1000, config)
        # 500 observations heat row 0's group; the next one is its first
        # per-row access, which misses the RCC and fills it.
        for _ in range(500):
            tracker.observe(0)
        assert tracker.observe(0).extra_dram_accesses == 1
        # Row 0's counter now sits in the RCC: no further DRAM traffic.
        before = tracker.dram_counter_accesses
        for _ in range(100):
            assert tracker.observe(0).extra_dram_accesses == 0
        assert tracker.dram_counter_accesses == before

    def test_rcc_misses_cost_dram_accesses(self):
        config = HydraConfig(rows_per_group=1, group_threshold_fraction=0.1, rcc_entries=2, group_threshold_floor=1)
        tracker = HydraTracker(1000, config)
        rng = random.Random(4)
        # Touch many rows in per-row mode so the tiny RCC thrashes.
        for row in range(64):
            for _ in range(110):
                tracker.observe(row)
        before = tracker.dram_counter_accesses
        for _ in range(100):
            tracker.observe(rng.randrange(64))
        assert tracker.dram_counter_accesses > before

    def test_end_window_resets(self):
        tracker = HydraTracker(100)
        for _ in range(60):
            tracker.observe(0)
        tracker.end_window()
        assert tracker.count(0) == 0

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            HydraTracker(100, HydraConfig(group_threshold_fraction=0.0))
