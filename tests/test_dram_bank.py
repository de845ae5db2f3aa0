"""Tests for the bank state machine and activation accounting."""

import pytest

from repro.dram.bank import ActivationStats, Bank
from repro.dram.commands import PagePolicy
from repro.dram.config import DRAMTiming


class TestActivationStats:
    def test_counts_within_window(self):
        stats = ActivationStats(1000.0)
        assert stats.record(5, 0.0) == 1
        assert stats.record(5, 10.0) == 2
        assert stats.count(5) == 2
        assert stats.count(6) == 0

    def test_window_roll_resets_counts(self):
        stats = ActivationStats(1000.0, keep_history=True)
        stats.record(5, 0.0)
        stats.record(5, 1500.0)  # next window
        assert stats.count(5) == 1
        assert stats.window_index == 1
        assert stats.history[0].max_row_activations == 1
        assert stats.closed_max_row_activations == 1
        assert stats.windows_closed == 1

    def test_history_records_hottest_row(self):
        stats = ActivationStats(1000.0, keep_history=True)
        for _ in range(3):
            stats.record(7, 0.0)
        stats.record(9, 0.0)
        stats.finalize(0.0)
        assert stats.history[0].hottest_row == 7
        assert stats.history[0].max_row_activations == 3
        assert stats.history[0].total_activations == 4
        assert stats.history[0].rows_activated == 2

    def test_empty_window_recorded(self):
        stats = ActivationStats(1000.0, keep_history=True)
        stats.record(1, 2500.0)  # skips windows 0 and 1
        assert len(stats.history) == 2
        assert stats.history[0].total_activations == 0

    def test_bank_threads_keep_history_through(self):
        bank = Bank(64, DRAMTiming(refresh_window=1000.0), keep_history=True)
        bank.access(0.0, 3)
        bank.access(1500.0, 3)  # rolls window 0 closed
        assert len(bank.stats.history) == 1
        assert bank.stats.history[0].max_row_activations == 1
        plain = Bank(64, DRAMTiming(refresh_window=1000.0))
        plain.access(0.0, 3)
        plain.access(1500.0, 3)
        assert plain.stats.history == []
        assert plain.stats.windows_closed == 1

    def test_history_off_by_default_but_aggregates_kept(self):
        stats = ActivationStats(1000.0)
        for _ in range(3):
            stats.record(7, 0.0)
        stats.record(9, 0.0)
        stats.record(1, 2500.0)  # closes windows 0 and 1
        assert stats.history == []
        assert stats.windows_closed == 2
        assert stats.closed_total_activations == 4
        assert stats.closed_max_row_activations == 3
        assert stats.peak_row_activations() == 3
        assert stats.ever_exceeded(3)
        assert not stats.ever_exceeded(4)

    def test_time_travel_rejected(self):
        stats = ActivationStats(1000.0)
        stats.record(1, 2500.0)
        with pytest.raises(ValueError):
            stats.record(1, 100.0)

    def test_ever_exceeded(self):
        stats = ActivationStats(1000.0)
        for _ in range(5):
            stats.record(3, 0.0)
        assert stats.ever_exceeded(5)
        assert not stats.ever_exceeded(6)
        stats.finalize(0.0)
        assert stats.ever_exceeded(5)  # survives window roll

    def test_rows_at_or_above(self):
        stats = ActivationStats(1000.0)
        for _ in range(4):
            stats.record(1, 0.0)
        stats.record(2, 0.0)
        assert stats.current_counts() == {1: 4, 2: 1}
        assert stats.ever_exceeded(4)
        assert not stats.ever_exceeded(5)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ActivationStats(0.0)


class TestBankClosedPage:
    def test_access_latency(self, small_bank, fast_timing):
        result = small_bank.access(0.0, 100)
        t = fast_timing
        assert result.start == 0.0
        assert result.finish == t.t_rcd + t.t_cas + t.t_bl
        assert result.activated and not result.row_hit

    def test_trc_enforced_between_activations(self, small_bank, fast_timing):
        first = small_bank.access(0.0, 100)
        second = small_bank.access(first.finish, 100)
        assert second.start >= first.start + fast_timing.t_rc

    def test_every_access_activates(self, small_bank):
        for _ in range(5):
            result = small_bank.access(small_bank.busy_until, 7)
            assert result.activated
        assert small_bank.stats.count(7) == 5

    def test_out_of_range_row_rejected(self, small_bank):
        with pytest.raises(ValueError):
            small_bank.access(0.0, 4096)


class TestBankOpenPage:
    def test_row_hit_is_fast_and_does_not_activate(self, fast_timing):
        bank = Bank(4096, fast_timing, PagePolicy.OPEN)
        miss = bank.access(0.0, 5)
        hit = bank.access(miss.finish, 5)
        assert hit.row_hit and not hit.activated
        assert hit.finish - hit.start < miss.finish - miss.start
        assert bank.stats.count(5) == 1

    def test_row_conflict_pays_precharge(self, fast_timing):
        bank = Bank(4096, fast_timing, PagePolicy.OPEN)
        bank.access(0.0, 5)
        conflict = bank.access(bank.busy_until, 6)
        assert conflict.activated
        # Conflict latency includes precharge of the open row.
        assert conflict.start >= fast_timing.t_rp

    def test_hit_rate_accounting(self, fast_timing):
        bank = Bank(4096, fast_timing, PagePolicy.OPEN)
        bank.access(0.0, 5)
        for _ in range(3):
            bank.access(bank.busy_until, 5)
        assert bank.total_accesses == 4
        assert bank.row_hits == 3


class TestBankOccupyAndActivate:
    def test_occupy_blocks_bank(self, small_bank):
        end = small_bank.occupy(0.0, 2700.0)
        assert end == 2700.0
        result = small_bank.access(0.0, 1)
        assert result.start >= 2700.0

    def test_occupy_closes_open_row(self, fast_timing):
        bank = Bank(4096, fast_timing, PagePolicy.OPEN)
        bank.access(0.0, 5)
        bank.occupy(bank.busy_until, 100.0)
        assert bank.open_row is None

    def test_negative_occupy_rejected(self, small_bank):
        with pytest.raises(ValueError):
            small_bank.occupy(0.0, -1.0)


class TestBankActivationAccounting:
    """``Bank.access`` counts a same-window ACT in-line and calls
    ``ActivationStats.record`` only on a window change; its stats must
    match ``record`` fed the same ``(row, start)`` pairs."""

    WINDOW = 1000.0

    def drive(self, bank, arrivals):
        """Access every ``(time, row)``; returns the ACTs' ``(row, start)``."""
        acts = []
        for time, row in arrivals:
            result = bank.access(time, row)
            if result.activated:
                acts.append((row, result.start))
        return acts

    def arrivals(self):
        # Repeats within window 0, a step into window 1, then a jump
        # over window 2 into window 3 (which closes an empty window).
        rows = [3, 3, 7, 3, 9, 7, 3, 7]
        times = [0.0, 50.0, 120.0, 300.0, 640.0, 900.0, 1100.0, 3050.0]
        return list(zip(times, rows))

    @pytest.mark.parametrize("policy", [PagePolicy.CLOSED, PagePolicy.OPEN])
    @pytest.mark.parametrize("keep_history", [False, True])
    def test_stats_equal_record_of_the_same_acts(self, policy, keep_history):
        bank = Bank(
            64, DRAMTiming(refresh_window=self.WINDOW), policy,
            keep_history=keep_history,
        )
        acts = self.drive(bank, self.arrivals())
        assert {int(start // self.WINDOW) for _, start in acts} == {0, 1, 3}
        reference = ActivationStats(self.WINDOW, keep_history=keep_history)
        for row, start in acts:
            reference.record(row, start)
        stats = bank.stats
        assert stats.current_counts() == reference.current_counts()
        assert stats.window_index == reference.window_index == 3
        assert stats.lifetime_activations == reference.lifetime_activations
        assert stats.windows_closed == reference.windows_closed == 3
        assert stats.closed_total_activations == reference.closed_total_activations
        assert (
            stats.closed_max_row_activations
            == reference.closed_max_row_activations
        )
        assert stats.history == reference.history
        if keep_history:
            assert [record.window_index for record in stats.history] == [0, 1, 2]
            assert stats.history[0].hottest_row == 3
            assert stats.history[2].total_activations == 0

    def test_counts_within_one_window(self):
        bank = Bank(64, DRAMTiming(refresh_window=self.WINDOW))
        acts = self.drive(bank, self.arrivals()[:6])
        assert len(acts) == 6
        assert bank.stats.current_counts() == {3: 3, 7: 2, 9: 1}
        assert bank.stats.lifetime_activations == 6
        assert bank.stats.windows_closed == 0

    def test_access_before_the_current_window_raises(self):
        bank = Bank(64, DRAMTiming(refresh_window=self.WINDOW))
        bank.access(0.0, 3)
        # A latent activation (a swap's) recorded in window 2 moves the
        # stats past the bank's next demand ACT.
        bank.stats.record(5, 2500.0)
        with pytest.raises(ValueError, match="precedes current window"):
            bank.access(100.0, 3)
