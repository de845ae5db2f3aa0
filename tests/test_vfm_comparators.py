"""Tests for the VFM engines, the half-double motivation, and the
AQUA / BlockHammer comparators."""

import random

import pytest

from repro.attacks.harness import hammer_pattern
from repro.attacks.patterns import double_sided, half_double
from repro.core.aqua import AquaQuarantine, QuarantineFullError
from repro.core.blockhammer import (
    BlockHammerThrottle,
    BloomParameters,
    CountingBloomFilter,
    DualBloomFilter,
    dos_false_positive_delay,
)
from repro.core.mitigation import MitigationKind
from repro.core.scale_srs import ScaleSecureRowSwap
from repro.core.vfm import PARA, TargetedRowRefresh, VictimRefreshMitigation
from repro.dram.bank import Bank
from repro.dram.config import DRAMTiming
from repro.dram.disturbance import DisturbanceModel
from repro.trackers.base import ExactTracker

TRH = 2000
NO_ROLL = DRAMTiming(refresh_window=1e12)
FACTORS = (1.0, 0.002)


def rig(mitigation_name, radius=1):
    bank = Bank(4096, NO_ROLL)
    disturbance = DisturbanceModel(4096, TRH, refresh_window=1e12, distance_factors=FACTORS)
    if mitigation_name == "trr":
        engine = TargetedRowRefresh(bank, disturbance, ExactTracker(100), protected_radius=radius)
    elif mitigation_name == "para":
        engine = PARA(bank, disturbance, trh=TRH, rng=random.Random(5), protected_radius=radius)
    elif mitigation_name == "scale-srs":
        engine = ScaleSecureRowSwap(bank, ExactTracker(TRH // 3), random.Random(7))
    else:
        raise ValueError(mitigation_name)
    return engine, disturbance


class TestVFMAgainstClassicPatterns:
    @pytest.mark.parametrize("name", ["trr", "para", "scale-srs"])
    def test_double_sided_defeated(self, name):
        engine, disturbance = rig(name)
        outcome = hammer_pattern(engine, disturbance, double_sided(100, 2400))
        assert not outcome.any_flip, name

    def test_trr_refreshes_victims(self):
        engine, disturbance = rig("trr")
        hammer_pattern(engine, disturbance, double_sided(100, 600))
        assert engine.victim_refreshes > 0

    def test_para_probability_validation(self):
        bank = Bank(64, NO_ROLL)
        disturbance = DisturbanceModel(64, TRH)
        with pytest.raises(ValueError):
            PARA(bank, disturbance, trh=TRH, probability=0.0)
        with pytest.raises(ValueError):
            PARA(bank, disturbance, trh=0)

    def test_radius_validation(self):
        bank = Bank(64, NO_ROLL)
        disturbance = DisturbanceModel(64, TRH)
        with pytest.raises(ValueError):
            TargetedRowRefresh(bank, disturbance, ExactTracker(10), protected_radius=0)


class TestVictimRefreshBookkeeping:
    def test_refreshes_log_as_victim_refreshes(self):
        bank = Bank(4096, NO_ROLL)
        disturbance = DisturbanceModel(4096, TRH, refresh_window=1e12)
        engine = TargetedRowRefresh(
            bank, disturbance, ExactTracker(10), protected_radius=2,
            keep_events=True,
        )
        hammer_pattern(engine, disturbance, [100] * 30)
        kinds = {event.kind for event in engine.stats.events}
        assert kinds == {MitigationKind.VICTIM_REFRESH}
        assert len(engine.stats.events) == engine.victim_refreshes == 3 * 4
        assert engine.stats.counter_accesses == 0
        assert engine.stats.busy_time == 12 * bank.timing.t_rc


class TestVictimRefreshBatchingContract:
    """TRR's quiescence horizon is its tracker's; PARA (and any VFM
    without a tracker) may refresh on any activation and declares 0."""

    def make_trr(self):
        bank = Bank(4096, NO_ROLL)
        disturbance = DisturbanceModel(4096, TRH, refresh_window=1e12)
        return TargetedRowRefresh(bank, disturbance, ExactTracker(50))

    @staticmethod
    def hammer(engine, row, count, start=0.0):
        bank = engine.bank
        time = start
        for _ in range(count):
            result = bank.access(time, row)
            end = engine.on_activation(result.finish, row)
            assert end == result.finish
            time = result.finish
        return time

    def test_trr_delegates_to_tracker(self):
        engine = self.make_trr()
        self.hammer(engine, 7, 30)
        self.hammer(engine, 9, 5, start=engine.bank.busy_until)
        assert engine.batch_horizon() == engine.tracker.batch_horizon() == 50 - 1 - 30
        assert engine.row_headroom(7) == engine.tracker.row_headroom(7) == 19
        assert engine.row_headroom(9) == engine.tracker.row_headroom(9) == 44
        assert engine.batch_slack() == engine.tracker.batch_slack()

    def test_horizon_replay_performs_no_refresh(self):
        engine = self.make_trr()
        self.hammer(engine, 7, 30)
        horizon = engine.batch_horizon()
        # Worst case within the horizon: every access lands on the
        # hottest row — still no refresh, and `time` comes back as given.
        self.hammer(engine, 7, horizon, start=engine.bank.busy_until)
        assert engine.victim_refreshes == 0
        assert engine.batch_horizon() == 0
        result = engine.bank.access(engine.bank.busy_until, 7)
        assert engine.on_activation(result.finish, 7) > result.finish
        assert engine.victim_refreshes == 2

    def test_para_declares_no_horizon(self):
        engine, _ = rig("para")
        assert engine.batch_horizon() == 0
        assert engine.row_headroom(100) == 0
        assert engine.batch_slack() == 0

    def test_untracked_vfm_declares_no_horizon(self):
        class Untracked(VictimRefreshMitigation):
            def on_activation(self, time, row):
                return time

        bank = Bank(64, NO_ROLL)
        engine = Untracked(bank, DisturbanceModel(64, TRH))
        assert engine.tracker is None
        assert engine.batch_horizon() == 0
        assert engine.row_headroom(3) == 0
        assert engine.batch_slack() == 0


@pytest.mark.slow  # 300k-activation disturbance-model runs
class TestHalfDoubleMotivation:
    """Section II-E: VFM's own refreshes hammer distance-2 rows."""

    def test_half_double_breaks_trr(self):
        engine, disturbance = rig("trr")
        outcome = hammer_pattern(engine, disturbance, half_double(100, 300_000))
        assert 102 in outcome.flipped_rows or 98 in outcome.flipped_rows

    def test_half_double_breaks_para(self):
        engine, disturbance = rig("para")
        outcome = hammer_pattern(engine, disturbance, half_double(100, 300_000))
        assert outcome.any_flip

    def test_half_double_bounces_off_scale_srs(self):
        engine, disturbance = rig("scale-srs")
        outcome = hammer_pattern(engine, disturbance, half_double(100, 300_000))
        assert not outcome.any_flip

    def test_radius_two_moves_flips_to_distance_three(self):
        """The arms race: protecting radius 2 pushes the flip one row
        further out instead of stopping it."""
        engine, disturbance = rig("trr", radius=2)
        outcome = hammer_pattern(engine, disturbance, half_double(100, 300_000))
        distance_3 = {97, 103}
        assert distance_3 & set(outcome.flipped_rows)


class TestAqua:
    def make(self, ts=50):
        bank = Bank(4096, DRAMTiming(refresh_window=1_000_000.0))
        return AquaQuarantine(bank, ExactTracker(ts)), bank

    @staticmethod
    def quarantine_base(engine):
        """First row of the reserved region: the top of the bank."""
        return engine.bank.num_rows - engine.quarantine_rows

    def hammer(self, engine, row, count, start=0.0):
        bank = engine.bank
        time = start
        for _ in range(count):
            result = bank.access(time, engine.resolve(row))
            time = max(result.finish, engine.on_activation(result.finish, row))
        return time

    def test_migration_at_threshold(self):
        engine, bank = self.make()
        self.hammer(engine, 7, 50)
        assert engine.migrations == 1
        assert 7 in engine.resolve_map()
        assert engine.resolve(7) >= self.quarantine_base(engine)

    def test_further_triggers_remigrate(self):
        engine, bank = self.make()
        self.hammer(engine, 7, 150)
        assert engine.migrations == 3
        # Old slots are not reused within the window.
        assert engine.resolve(7) == self.quarantine_base(engine) + 2

    def test_home_location_protected(self):
        engine, bank = self.make()
        self.hammer(engine, 7, 50 * 10)
        # Home row saw TS demand ACTs plus one per re-migration read.
        assert bank.stats.count(7) <= 50 + 1

    def test_window_recycles_quarantine(self):
        engine, bank = self.make()
        self.hammer(engine, 7, 50)
        engine.end_window(1_000_000.0)
        assert 7 not in engine.resolve_map()
        assert engine.resolve(7) == 7
        self.hammer(engine, 8, 50, start=1_000_000.0)
        assert engine.resolve(8) == self.quarantine_base(engine)  # slot 0 reused

    def test_quarantine_exhaustion(self):
        bank = Bank(4096, DRAMTiming(refresh_window=1e12))
        engine = AquaQuarantine(bank, ExactTracker(10), quarantine_rows=2)
        with pytest.raises(QuarantineFullError):
            self.hammer(engine, 7, 10 * 3)

    def test_reserved_fraction(self):
        engine, bank = self.make()
        assert 0 < engine.reserved_fraction() < 0.5

    def test_oversized_quarantine_rejected(self):
        bank = Bank(64, NO_ROLL)
        with pytest.raises(ValueError):
            AquaQuarantine(bank, ExactTracker(10), quarantine_rows=64)


class TestBlockHammer:
    def test_bloom_never_undercounts(self):
        bloom = CountingBloomFilter(BloomParameters(num_counters=256, num_hashes=3))
        for _ in range(10):
            bloom.insert(42)
        assert bloom.estimate(42) >= 10

    def test_dual_filter_rotation_keeps_history(self):
        dual = DualBloomFilter(BloomParameters(num_counters=256, num_hashes=3))
        for _ in range(10):
            dual.insert(42)
        dual.rotate()
        assert dual.estimate(42) >= 10  # shadow filter still remembers
        dual.rotate()
        dual.rotate()
        assert dual.estimate(42) == 0  # fully aged out

    def test_throttle_delay_near_20us_at_4800(self):
        """The paper's DoS number: ~20 us per activation at TRH=4800."""
        bank = Bank(4096, DRAMTiming())
        engine = BlockHammerThrottle(bank, trh=4800)
        delay_us = engine.throttle_delay_ns() / 1000.0
        assert 20 <= delay_us <= 35

    def test_hammering_gets_throttled(self):
        bank = Bank(4096, DRAMTiming(refresh_window=1e9))
        engine = BlockHammerThrottle(bank, trh=100)
        time = 0.0
        for _ in range(80):
            result = bank.access(time, 7)
            time = max(result.finish, engine.on_activation(result.finish, 7))
        assert engine.throttled_activations > 0
        assert engine.total_delay_ns > 0

    def test_row_cannot_reach_trh_quickly(self):
        """Throttling spaces activations so TRH is unreachable within a
        window — the security property, at the cost of latency."""
        window = 1_000_000.0
        bank = Bank(4096, DRAMTiming(refresh_window=window))
        engine = BlockHammerThrottle(bank, trh=100)
        time = 0.0
        acts = 0
        while time < window:
            result = bank.access(time, 7)
            acts += 1
            time = max(result.finish, engine.on_activation(result.finish, 7))
        assert bank.stats.peak_row_activations() < 100 + engine.blacklist_threshold
        assert acts < 100 + engine.blacklist_threshold

    def test_dos_false_positive(self):
        """A tiny (deliberately undersized) filter shows the aliasing DoS:
        an innocent row inherits the attackers' throttle."""
        bank = Bank(1 << 16, DRAMTiming())
        blacklisted, delay = dos_false_positive_delay(
            bank, trh=4800, attacker_rows=64, victim_row=12345,
            bloom=BloomParameters(num_counters=32, num_hashes=2),
        )
        assert blacklisted
        assert delay > 10_000.0  # > 10 us per activation for a benign row

    def test_validation(self):
        bank = Bank(64, NO_ROLL)
        with pytest.raises(ValueError):
            BlockHammerThrottle(bank, trh=0)
        with pytest.raises(ValueError):
            BlockHammerThrottle(bank, trh=100, blacklist_fraction=1.5)
        with pytest.raises(ValueError):
            CountingBloomFilter(BloomParameters(num_counters=0))
