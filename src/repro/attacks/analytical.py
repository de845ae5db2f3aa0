"""Analytical model of the Juggernaut attack pattern (Section III-B).

The model answers: given a Row Hammer threshold ``TRH``, a swap threshold
``TS`` and DDR4 timing, how long does an attacker need to flip a bit under
a row-swap defense? Juggernaut has two phases:

1. *Biasing*: ``N`` rounds of forced unswap-swap operations, each donating
   ``L`` latent activations (1.5 on average under RRS) to the aggressor
   row's original physical location (Equation 1).
2. *Random guessing*: the attacker hammers randomly chosen rows ``TS``
   times each, hoping the victim location's current occupant is among
   them; ``k`` correct guesses finish the job (Equation 3).

Under SRS there are no unswap-swaps, so phase 1 buys nothing
(Equation 11) and the attack degenerates to the naive random-guess attack.

All equations below carry the paper's numbering. Times are in
nanoseconds internally; the public API reports days.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional

SECONDS_PER_DAY = 86_400.0
NS_PER_DAY = SECONDS_PER_DAY * 1e9


@dataclass(frozen=True)
class AttackParameters:
    """Inputs to the analytical model (Table II plus system constants).

    Attributes:
        trh: Row Hammer threshold (activations per refresh window).
        ts: Swap threshold; ``trh / ts`` is the swap rate.
        rows_per_bank: ``R`` in Equation 8.
        t_rc: Row cycle time (ns).
        t_rfc: Refresh cycle time (ns).
        refreshes_per_window: Refresh commands per window (8192 on DDR4).
        t_swap: Swap latency (ns).
        t_reswap: Unswap-swap latency (ns).
        latent_per_round: ``L`` — latent activations per attack round
            (1.5 under RRS with the swap-buffer optimisation; 0 under SRS).
        refresh_window: Window/epoch length (ns).
        act_gap: Effective time between attacker activations (ns). Equals
            ``t_rc`` under a closed-page controller; larger under an
            open-page controller, which throttles the attack
            (Section VIII-3).
    """

    trh: int = 4800
    ts: int = 800
    rows_per_bank: int = 128 * 1024
    t_rc: float = 45.0
    t_rfc: float = 350.0
    refreshes_per_window: int = 8192
    t_swap: float = 2_700.0
    t_reswap: float = 5_400.0
    latent_per_round: float = 1.5
    refresh_window: float = 64_000_000.0
    act_gap: Optional[float] = None

    @property
    def swap_rate(self) -> float:
        return self.trh / self.ts

    @property
    def effective_act_gap(self) -> float:
        return self.act_gap if self.act_gap is not None else self.t_rc

    def with_swap_rate(self, swap_rate: float) -> "AttackParameters":
        """Same parameters with ``ts`` derived from a new swap rate."""
        return AttackParameters(
            trh=self.trh,
            ts=max(1, int(round(self.trh / swap_rate))),
            rows_per_bank=self.rows_per_bank,
            t_rc=self.t_rc,
            t_rfc=self.t_rfc,
            refreshes_per_window=self.refreshes_per_window,
            t_swap=self.t_swap,
            t_reswap=self.t_reswap,
            latent_per_round=self.latent_per_round,
            refresh_window=self.refresh_window,
            act_gap=self.act_gap,
        )


@dataclass(frozen=True)
class RoundOutcome:
    """Model outputs for one choice of attack rounds ``N``."""

    rounds: int
    aggressor_activations: float  # Eq. 1 (or Eq. 11 when L == 0 and N == 0)
    activations_left: float  # Eq. 2
    required_guesses: int  # k, Eq. 3
    guesses_per_window: float  # G, Eq. 7
    success_probability: float  # p_{k,TS}, Eq. 8
    expected_iterations: float  # Eq. 9
    time_to_break_ns: float  # Eq. 10
    feasible: bool

    @property
    def time_to_break_days(self) -> float:
        return self.time_to_break_ns / NS_PER_DAY


def _binomial_pmf_at_least_once(g: float, p: float, k: int) -> float:
    """``P(X == k)`` for ``X ~ Binomial(G, p)`` — Equation 8.

    ``G`` may be fractional (it is a time quotient); the binomial
    coefficient generalises through the gamma function.
    """
    if k < 0 or g < k:
        return 0.0
    if k == 0:
        return (1.0 - p) ** g
    log_comb = (
        math.lgamma(g + 1.0) - math.lgamma(k + 1.0) - math.lgamma(g - k + 1.0)
    )
    log_p = log_comb + k * math.log(p) + (g - k) * math.log1p(-p)
    return math.exp(log_p)


class JuggernautModel:
    """Evaluates Equations 1-10 for RRS (or SRS via ``latent_per_round=0``)."""

    def __init__(self, params: Optional[AttackParameters] = None):
        self.params = params or AttackParameters()
        if self.params.ts <= 0 or self.params.trh <= 0:
            raise ValueError("thresholds must be positive")
        if self.params.ts * 2 > self.params.trh:
            raise ValueError("swap rate below 2 is not meaningful for the model")

    # ------------------------------------------------------------------
    # Equation-by-equation pieces (exposed for tests and the paper's text)

    def usable_time(self) -> float:
        """Equation 4: window time not consumed by refresh."""
        p = self.params
        return p.refresh_window - p.t_rfc * p.refreshes_per_window

    def biasing_time(self, rounds: int) -> float:
        """Equation 5: time to run ``N`` unswap-swap rounds."""
        p = self.params
        return ((p.ts - 1) * p.effective_act_gap + p.t_reswap) * rounds

    def initial_swap_time(self) -> float:
        """Time to force the initial swap: ``2*TS - 1`` activations plus
        the swap latency (part of Equation 6)."""
        p = self.params
        return p.effective_act_gap * (2 * p.ts - 1) + p.t_swap

    def guessing_time(self, rounds: int) -> float:
        """Equation 6: time left for the random-guess phase."""
        return self.usable_time() - self.biasing_time(rounds) - self.initial_swap_time()

    def guesses(self, rounds: int) -> float:
        """Equation 7: number of random guesses that fit in the window."""
        p = self.params
        per_guess = p.effective_act_gap * (p.ts - 1) + p.t_swap
        return max(0.0, self.guessing_time(rounds)) / per_guess

    def aggressor_activations(self, rounds: int) -> float:
        """Equation 1 (Equation 11 when ``latent_per_round == 0``)."""
        p = self.params
        return 2 * p.ts + p.latent_per_round * rounds

    def required_guesses(self, rounds: int) -> int:
        """Equation 3: correct landings still needed after biasing."""
        p = self.params
        left = p.trh - self.aggressor_activations(rounds)
        if left <= 0:
            return 0
        return math.ceil(left / p.ts)

    # ------------------------------------------------------------------
    # end-to-end evaluation

    def evaluate(self, rounds: int) -> RoundOutcome:
        """Full model output for ``N = rounds``."""
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        p = self.params
        act_aggr = self.aggressor_activations(rounds)
        act_left = p.trh - act_aggr
        k = self.required_guesses(rounds)
        g = self.guesses(rounds)
        feasible = self.guessing_time(rounds) > 0 or k == 0
        if k == 0:
            # Latent activations alone crossed TRH: one window suffices,
            # provided the biasing itself fits in the window.
            feasible = self.biasing_time(rounds) + self.initial_swap_time() <= self.usable_time()
            prob = 1.0 if feasible else 0.0
        else:
            prob = _binomial_pmf_at_least_once(g, 1.0 / p.rows_per_bank, k) if feasible else 0.0
        if prob > 0.0:
            iterations = 1.0 / prob
            time_ns = p.refresh_window * iterations
        else:
            iterations = math.inf
            time_ns = math.inf
        return RoundOutcome(
            rounds=rounds,
            aggressor_activations=act_aggr,
            activations_left=act_left,
            required_guesses=k,
            guesses_per_window=g,
            success_probability=prob,
            expected_iterations=iterations,
            time_to_break_ns=time_ns,
            feasible=feasible,
        )

    def max_rounds(self) -> int:
        """Largest ``N`` whose biasing phase fits into one window."""
        p = self.params
        per_round = (p.ts - 1) * p.effective_act_gap + p.t_reswap
        budget = self.usable_time() - self.initial_swap_time()
        return max(0, int(budget // per_round))

    def sweep(self, rounds: Iterable[int]) -> List[RoundOutcome]:
        return [self.evaluate(n) for n in rounds]

    def best(self, step: int = 1) -> RoundOutcome:
        """The optimal attack: the ``N`` minimising time-to-break.

        The paper picks ``N`` to minimise ``k`` while maximising ``G``
        (Section III-C); an exhaustive scan implements exactly that.
        """
        best_outcome: Optional[RoundOutcome] = None
        for n in range(0, self.max_rounds() + 1, step):
            outcome = self.evaluate(n)
            if best_outcome is None or outcome.time_to_break_ns < best_outcome.time_to_break_ns:
                best_outcome = outcome
        assert best_outcome is not None
        return best_outcome

    def time_to_break_days(self, rounds: Optional[int] = None) -> float:
        """Convenience: days for a given ``N`` (optimal ``N`` if omitted)."""
        outcome = self.best(step=10) if rounds is None else self.evaluate(rounds)
        return outcome.time_to_break_days


def srs_parameters(params: AttackParameters) -> AttackParameters:
    """The same system defended by SRS: no latent activations per round."""
    return AttackParameters(
        trh=params.trh,
        ts=params.ts,
        rows_per_bank=params.rows_per_bank,
        t_rc=params.t_rc,
        t_rfc=params.t_rfc,
        refreshes_per_window=params.refreshes_per_window,
        t_swap=params.t_swap,
        t_reswap=params.t_reswap,
        latent_per_round=0.0,
        refresh_window=params.refresh_window,
        act_gap=params.act_gap,
    )
