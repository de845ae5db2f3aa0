"""Tests for the Juggernaut analytical model against the paper's numbers."""

import math

import pytest

from repro.attacks.analytical import (
    AttackParameters,
    JuggernautModel,
    srs_parameters,
)
from repro.attacks.birthday import random_guess_time_to_break_days
from repro.sim.evaluations import SecurityParams


@pytest.fixture
def rrs_4800():
    return JuggernautModel(AttackParameters(trh=4800, ts=800))


class TestEquationPieces:
    def test_usable_time_equation_4(self, rrs_4800):
        # 64 ms - 8192 * 350 ns = 61.13 ms
        assert rrs_4800.usable_time() == pytest.approx(61_132_800.0)

    def test_biasing_time_equation_5(self, rrs_4800):
        per_round = (800 - 1) * 45.0 + 5400.0
        assert rrs_4800.biasing_time(10) == pytest.approx(10 * per_round)

    def test_guesses_equation_7_positive(self, rrs_4800):
        assert rrs_4800.guesses(0) > 1500

    def test_aggressor_activations_equation_1(self, rrs_4800):
        # 2*TS + 1.5*N
        assert rrs_4800.aggressor_activations(1100) == pytest.approx(1600 + 1650)

    def test_required_guesses_equation_3(self, rrs_4800):
        # Figure 7: k = 2 for N >= ~1100 at TRH 4800.
        assert rrs_4800.required_guesses(1100) == 2
        assert rrs_4800.required_guesses(500) == 4
        assert rrs_4800.required_guesses(0) == 4

    def test_latent_only_break_at_low_trh(self):
        # Figure 7 note: at TRH <= 2400 latent activations alone suffice.
        model = JuggernautModel(AttackParameters(trh=1200, ts=200))
        best = model.best(step=10)
        assert best.required_guesses == 0
        assert best.time_to_break_days < 1e-3  # one refresh window


class TestHeadlineNumbers:
    def test_rrs_breaks_in_under_4_hours(self, rrs_4800):
        """Figure 6's headline: Juggernaut breaks RRS at TRH=4800 / swap
        rate 6 in about 4 hours."""
        outcome = rrs_4800.evaluate(1100)
        hours = outcome.time_to_break_days * 24
        assert 1.0 < hours < 4.5

    def test_optimal_rounds_near_1100(self, rrs_4800):
        best = rrs_4800.best(step=10)
        assert 1000 <= best.rounds <= 1300
        assert best.time_to_break_days < 1.0  # the paper's goal: < 1 day

    def test_srs_survives_beyond_2_years(self):
        """Figure 10: SRS at swap rate 6 and TRH=4800 holds > 2 years."""
        model = JuggernautModel(srs_parameters(AttackParameters(trh=4800, ts=800)))
        days = model.best(step=100).time_to_break_days
        assert days > 2 * 365

    def test_srs_attack_gains_nothing_from_rounds(self):
        model = JuggernautModel(srs_parameters(AttackParameters(trh=4800, ts=800)))
        assert model.evaluate(0).time_to_break_days <= model.evaluate(500).time_to_break_days

    def test_naive_attack_takes_years_figure_1a(self):
        # Figure 1a: > 10^3 days at TRH 4800 / swap rate 6.
        days = random_guess_time_to_break_days(4800, 6)
        assert days > 365

    def test_naive_attack_faster_at_lower_trh(self):
        fast = random_guess_time_to_break_days(1200, 6)
        slow = random_guess_time_to_break_days(4800, 6)
        assert fast < slow

    def test_higher_swap_rate_better_for_naive_security(self):
        assert random_guess_time_to_break_days(4800, 8) > random_guess_time_to_break_days(4800, 6)

    def test_juggernaut_beats_naive_by_orders_of_magnitude(self, rrs_4800):
        juggernaut_days = rrs_4800.best(step=10).time_to_break_days
        naive_days = random_guess_time_to_break_days(4800, 6)
        assert naive_days / juggernaut_days > 1000


class TestCliffStructure:
    def test_time_to_break_has_cliffs(self, rrs_4800):
        """Figure 6: k transitions produce steep cliffs; within a constant
        k the time *increases* with rounds (G shrinks, Eq. 7)."""
        outcomes = rrs_4800.sweep(range(0, 1401, 50))
        ks = [o.required_guesses for o in outcomes]
        assert ks == sorted(ks, reverse=True)  # k monotonically non-increasing
        assert len(set(ks)) >= 3  # multiple regimes visible
        # Within the k=4 plateau the time grows with N.
        k4 = [o for o in outcomes if o.required_guesses == 4 and o.feasible]
        times = [o.time_to_break_ns for o in k4]
        assert times == sorted(times)

    def test_infeasible_when_biasing_exceeds_window(self, rrs_4800):
        beyond = rrs_4800.max_rounds() + 100
        assert not rrs_4800.evaluate(beyond).feasible
        assert math.isinf(rrs_4800.evaluate(beyond).time_to_break_ns)


class TestParameterHandling:
    def test_with_swap_rate(self):
        # A security cell derives TS from its swap rate.
        params = SecurityParams(trh=4800, swap_rate=8).attack_parameters("rrs")
        assert params.ts == 600
        assert params.trh == 4800

    def test_swap_rate_property(self):
        assert AttackParameters(trh=4800, ts=800).swap_rate == 6.0

    def test_negative_rounds_rejected(self, rrs_4800):
        with pytest.raises(ValueError):
            rrs_4800.evaluate(-1)

    def test_invalid_swap_rate_rejected(self):
        with pytest.raises(ValueError):
            JuggernautModel(AttackParameters(trh=100, ts=80))

    def test_open_page_act_gap_honoured(self):
        slow = JuggernautModel(AttackParameters(trh=4800, ts=800, act_gap=90.0))
        fast = JuggernautModel(AttackParameters(trh=4800, ts=800))
        assert slow.guesses(0) < fast.guesses(0)
