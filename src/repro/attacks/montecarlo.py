"""Event-driven Monte-Carlo validation of the Juggernaut model.

The paper validates Equations 1-10 with 100,000-iteration Monte-Carlo
simulations (the 'Experiment' markers of Figure 6). This module
reproduces that validation in two stages, mirroring the Bins-and-Buckets
approach of the artifact:

1. *Within-window simulation*: each simulated window plays out the attack
   stochastically — the per-round latent activations are drawn as 1 or 2
   (the swap-buffer optimisation's coin flip, averaging the paper's
   ``L = 1.5``), and the number of correct random guesses is drawn from
   ``Binomial(G, 1/R)``. The window succeeds when the victim location's
   activation count crosses ``TRH``.
2. *Attack-time sampling*: per-iteration attack times are geometric in the
   per-window success probability estimated in stage 1.

Stage 1 is exact event-driven simulation of one window; stage 2 replaces
an (identically distributed) sequence of independent window replays with
a geometric draw, which is what makes 100,000 iterations tractable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from repro.attacks.analytical import AttackParameters, JuggernautModel, NS_PER_DAY


def derive_seed(params: AttackParameters, salt: str = "") -> int:
    """A stable 64-bit RNG seed derived from the attack parameters.

    Mirrors the performance path's determinism scheme: every stream is a
    pure function of the run's own parameters (plus an optional caller
    ``salt`` distinguishing otherwise-identical draws, e.g. the design
    name or a grid cell's base seed), digested with SHA-256 — never
    Python's per-process-randomized ``hash()``. Distinct parameter
    points therefore sample independent streams, and reruns of the same
    point reproduce bit-identical results, regardless of how cells are
    scheduled across workers.
    """
    record = tuple(
        (f.name, repr(getattr(params, f.name))) for f in fields(params)
    )
    payload = repr((salt, record)).encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


@dataclass
class MonteCarloResult:
    """Summary of a Monte-Carlo run."""

    rounds: int
    iterations: int
    window_success_probability: float
    mean_time_to_break_days: float
    median_time_to_break_days: float
    p05_days: float
    p95_days: float

    @property
    def mean_time_to_break_seconds(self) -> float:
        return self.mean_time_to_break_days * 86_400.0


class MonteCarloJuggernaut:
    """Monte-Carlo simulation of Juggernaut against a swap defense."""

    def __init__(
        self,
        params: Optional[AttackParameters] = None,
        seed: Optional[int] = None,
    ):
        """``seed=None`` (the default) derives the stream from ``params``
        via :func:`derive_seed`, so two simulations of distinct design
        points are automatically independent and each point is
        reproducible on its own — the old fixed-global-seed default made
        parallel sweep cells share one stream. Pass an explicit seed for
        replicate draws of the same point.

        ``params.ts`` must be a whole number of activations (an integral
        float such as ``800.0`` is accepted): the probe evaluates Eq. 1
        in exact integer arithmetic."""
        self.params = params or AttackParameters()
        ts = self.params.ts
        if ts != int(ts):
            raise ValueError(f"swap threshold ts must be a whole number, got {ts!r}")
        self._ts = int(ts)
        self.model = JuggernautModel(self.params)
        if seed is None:
            seed = derive_seed(self.params)
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def _simulate_windows(self, rounds: int, num_windows: int) -> np.ndarray:
        """Play ``num_windows`` independent windows; returns success flags.

        Two binomial draws per window are the whole cost: the latent
        draw (only when the per-round latent count has a fractional
        part) and the correct-guess draw, in that order. Eq. 1 then
        accumulates in place into the drawn int64 arrays — exact integer
        arithmetic, so the order of the additions cannot change a flag.
        """
        p = self.params
        ts = self._ts
        # Latent activations per round: RRS draws 1 or 2 per unswap-swap
        # (mean 1.5); SRS contributes none. Sum of `rounds` independent
        # (low + Bernoulli(frac)) draws: one binomial per window.
        extra = None
        low = 0
        if p.latent_per_round > 0 and rounds > 0:
            low = int(np.floor(p.latent_per_round))
            frac = p.latent_per_round - low
            if frac > 0:
                extra = self.rng.binomial(rounds, frac, size=num_windows)
        whole_guesses = int(self.model.guesses(rounds))
        hits = self.rng.binomial(whole_guesses, 1.0 / p.rows_per_bank, size=num_windows)
        # Eq. 1 with stochastic L, plus the correct guesses' activations.
        hits *= ts
        hits += low * rounds + 2 * ts
        if extra is not None:
            hits += extra
        return hits >= p.trh

    def run(
        self,
        rounds: int,
        iterations: int = 100_000,
        probe_windows: int = 200_000,
        max_expected_iterations: float = 2e6,
    ) -> MonteCarloResult:
        """Estimate the attack-time distribution for ``N = rounds``.

        Args:
            rounds: Attack rounds per window.
            iterations: Independent attack repetitions to sample.
            probe_windows: Windows simulated to estimate the per-window
                success probability; automatically raised when the
                analytical probability is small so the estimate keeps a
                usable number of expected successes.
            max_expected_iterations: When the analytical model predicts an
                expected window count beyond this, the estimator falls back
                to the analytical probability (a direct estimate would need
                an impractically large probe — e.g. the k >= 3 regimes,
                whose per-window success odds are below ~1e-7).
        """
        analytic = self.model.evaluate(rounds)
        p_hat: float
        if not analytic.feasible or analytic.success_probability == 0.0:
            p_hat = 0.0
        elif analytic.expected_iterations > max_expected_iterations:
            p_hat = analytic.success_probability
        else:
            # Aim for >= 200 expected successes in the probe (7% relative
            # error), capped at 5e7 windows.
            needed = int(min(5e7, max(probe_windows, 200 * analytic.expected_iterations)))
            successes = 0
            simulated = 0
            batch = min(needed, 1_000_000)
            while simulated < needed:
                n = min(batch, needed - simulated)
                successes += int(np.count_nonzero(self._simulate_windows(rounds, n)))
                simulated += n
            p_hat = successes / simulated if simulated else 0.0

        if p_hat <= 0.0:
            inf = float("inf")
            return MonteCarloResult(
                rounds=rounds,
                iterations=iterations,
                window_success_probability=0.0,
                mean_time_to_break_days=inf,
                median_time_to_break_days=inf,
                p05_days=inf,
                p95_days=inf,
            )

        windows_needed = self.rng.geometric(p_hat, size=iterations)
        times_days = windows_needed * self.params.refresh_window / NS_PER_DAY
        return MonteCarloResult(
            rounds=rounds,
            iterations=iterations,
            window_success_probability=p_hat,
            mean_time_to_break_days=float(times_days.mean()),
            median_time_to_break_days=float(np.median(times_days)),
            p05_days=float(np.percentile(times_days, 5)),
            p95_days=float(np.percentile(times_days, 95)),
        )
