"""Tests for the Monte-Carlo, outlier, multi-bank and open-page models."""

import math
import tracemalloc

import pytest

pytestmark = pytest.mark.slow  # Monte-Carlo runs, seconds per test

from repro.attacks.analytical import AttackParameters, JuggernautModel
from repro.attacks.juggernaut import (
    multi_bank_time_to_break_days,
    open_page_time_to_break_days,
)
from repro.attacks.montecarlo import MonteCarloJuggernaut
from repro.attacks.outliers import OutlierModel


class TestMonteCarlo:
    def test_matches_analytical_at_trh_4800(self):
        """Figure 6's validation: the Monte-Carlo experiment tracks the
        analytical curve."""
        params = AttackParameters(trh=4800, ts=800)
        mc = MonteCarloJuggernaut(params, seed=1)
        result = mc.run(rounds=1100, iterations=20_000, probe_windows=100_000)
        analytic = JuggernautModel(params).evaluate(1100)
        assert result.mean_time_to_break_days == pytest.approx(
            analytic.time_to_break_days, rel=0.35
        )

    def test_single_window_break_at_low_trh(self):
        params = AttackParameters(trh=1200, ts=200)
        mc = MonteCarloJuggernaut(params, seed=2)
        result = mc.run(rounds=600, iterations=1000)
        assert result.window_success_probability == pytest.approx(1.0, abs=0.01)
        assert result.mean_time_to_break_days < 1e-3

    def test_infeasible_attack_reports_infinity(self):
        params = AttackParameters(trh=4800, ts=800)
        mc = MonteCarloJuggernaut(params, seed=3)
        model = JuggernautModel(params)
        result = mc.run(rounds=model.max_rounds() + 50, iterations=100)
        assert math.isinf(result.mean_time_to_break_days)

    def test_distribution_quantiles_ordered(self):
        params = AttackParameters(trh=4800, ts=800)
        mc = MonteCarloJuggernaut(params, seed=4)
        result = mc.run(rounds=1100, iterations=10_000, probe_windows=50_000)
        assert result.p05_days <= result.median_time_to_break_days <= result.p95_days

    def test_stochastic_latents_average_out(self):
        """The 1-or-2 latent draw should behave like L=1.5 on average:
        each round adds 1 + Bernoulli(0.5) latent activations."""
        rounds, ts = 1000, 800
        # Success needs B >= k extra latents, B ~ Binomial(rounds, 0.5):
        # 2 * TS + rounds + k == TRH. A huge bank makes a correct random
        # guess (another TS activations) vanishingly unlikely, so the
        # latent draw alone decides each window.
        k = 510
        params = AttackParameters(
            trh=2 * ts + rounds + k,
            ts=ts,
            latent_per_round=1.5,
            rows_per_bank=1 << 40,
        )
        mc = MonteCarloJuggernaut(params, seed=5)
        windows = 20_000
        flags = mc._simulate_windows(rounds=rounds, num_windows=windows)
        expected = sum(math.comb(rounds, b) for b in range(k, rounds + 1)) / 2**rounds
        sigma = math.sqrt(expected * (1.0 - expected) / windows)
        assert 0.1 < expected < 0.5
        assert abs(flags.mean() - expected) < 4 * sigma

    def test_probe_batch_memory_is_bounded(self):
        """A 1M-window batch holds the flags (1 MiB), a compact latent
        buffer and one chunk's draw; whole-batch int64 draws would peak
        at 16 MiB."""
        mc = MonteCarloJuggernaut(AttackParameters(trh=4800, ts=800), seed=6)
        tracemalloc.start()
        try:
            flags = mc._simulate_windows(1200, 1_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(flags) == 1_000_000
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_rejects_fewer_than_one_iteration(self, iterations):
        mc = MonteCarloJuggernaut(AttackParameters(trh=4800, ts=800), seed=7)
        with pytest.raises(ValueError, match="iterations"):
            mc.run(rounds=1100, iterations=iterations)


class TestOutlierModel:
    def test_three_outliers_appear_on_month_scale(self):
        """Figure 13 at swap rate 3 / TRH 4800: a window with three 3-swap
        outliers appears about once a month (the paper reads 31 days)."""
        model = OutlierModel(trh=4800, swap_rate=3)
        days = model.time_to_appear_days(num_rows=3, k=3)
        assert 5 < days < 120

    def test_four_outliers_take_decades(self):
        model = OutlierModel(trh=4800, swap_rate=3)
        years = model.time_to_appear_days(num_rows=4, k=3) / 365
        assert years > 20  # the paper reads 64 years

    def test_time_grows_with_swap_rate(self):
        """Figure 13: pairing each rate with its dangerous outlier class
        (k = rate), higher swap rates push outliers out by orders of
        magnitude."""
        model = OutlierModel(trh=4800)
        times = model.sweep_swap_rates([3, 4, 5, 6], num_rows=3)
        assert times == sorted(times)

    def test_fixed_k_more_common_at_higher_rate(self):
        """Holding k fixed, a higher swap rate means more swaps per window
        and therefore more k-landing collisions."""
        model = OutlierModel(trh=4800)
        times = model.sweep_swap_rates([3, 6], num_rows=3, k=3)
        assert times[0] > times[1]

    def test_max_swaps_per_window(self):
        model = OutlierModel(trh=4800, swap_rate=3)
        assert model.max_swaps_per_window == 1_360_000 // 1600

    def test_expected_rows_decrease_with_k(self):
        model = OutlierModel(trh=4800, swap_rate=3)
        assert model.expected_rows_with_swaps(2) > model.expected_rows_with_swaps(3)
        assert model.expected_rows_with_swaps(3) > model.expected_rows_with_swaps(4)

    def test_llc_rows_needed_section_5c(self):
        model = OutlierModel()
        assert model.llc_rows_needed(num_banks_attacked=1) == 3
        # Multi-bank worst case: 3 outliers x 11 banks x 2 channels = 66.
        assert model.llc_rows_needed(num_banks_attacked=22) == 66


class TestMultiBank:
    def test_single_bank_matches_base_model(self):
        single = multi_bank_time_to_break_days(4800, 6, num_banks=1)
        base = JuggernautModel(AttackParameters(trh=4800, ts=800)).best(step=10)
        assert single == pytest.approx(base.time_to_break_days, rel=0.05)

    def test_16_banks_degrade_attack_to_years(self):
        """Section III-C: 4 hours to ~10 years when hammering all 16
        banks of a channel (paper: 9.9 years)."""
        days = multi_bank_time_to_break_days(4800, 6, num_banks=16)
        years = days / 365
        assert 3 < years < 40

    def test_few_banks_may_help_but_full_channel_collapses(self):
        """Concurrently hammering a handful of banks stays inside the
        channel's ACT throughput and can even parallelise the attack; at
        all 16 banks the per-bank activation rate collapses (paper
        Section III-C), blowing the attack out to years."""
        four = multi_bank_time_to_break_days(4800, 6, 4)
        sixteen = multi_bank_time_to_break_days(4800, 6, 16)
        assert sixteen / four > 1000

    def test_invalid_bank_count(self):
        with pytest.raises(ValueError):
            multi_bank_time_to_break_days(4800, 6, 0)


class TestOpenPage:
    def test_open_page_slows_juggernaut_at_high_trh(self):
        """Section VIII-3: open-page stretches the 4-hour attack to days."""
        closed = JuggernautModel(AttackParameters(trh=4800, ts=800)).best(step=10)
        open_days = open_page_time_to_break_days(4800, 6)
        assert open_days > 10 * closed.time_to_break_days

    def test_low_trh_still_breaks_in_under_a_day(self):
        """Section VIII-3: at TRH <= 3300, Juggernaut beats RRS in under a
        day even at swap rate 10 under open page."""
        assert open_page_time_to_break_days(3300, 10) < 1.0

    def test_ddr5_claim_under_closed_page(self):
        """Section VIII-5: with DDR5's halved window, RRS falls in under a
        day for TRH <= 3100 regardless of swap rate."""
        model = JuggernautModel(
            AttackParameters(
                trh=3100,
                ts=310,
                refreshes_per_window=4096,
                refresh_window=32_000_000.0,
            )
        )
        assert model.best(step=10).time_to_break_days < 1.0
