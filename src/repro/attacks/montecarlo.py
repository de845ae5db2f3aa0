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

Stage 1 probes in batches of up to 1M windows, and each batch draws in
:data:`PROBE_CHUNK`-window chunks. With a scalar ``n`` and ``p``,
numpy's ``Generator.binomial`` fills its output one element at a time
from one bit generator, so chunks whose sizes add up to a batch return
exactly the values of one whole-batch draw: the chunking bounds the
probe's memory and leaves every flag and result unchanged.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Optional

from repro.attacks.analytical import (
    AttackParameters,
    JuggernautModel,
    NS_PER_DAY,
    RoundOutcome,
)

if TYPE_CHECKING:
    import numpy as np

#: Beyond this many expected windows per break, :meth:`MonteCarloJuggernaut.run`
#: uses the analytical probability instead of probing for it.
MAX_EXPECTED_ITERATIONS = 2e6
#: The probe's ceiling, in windows.
MAX_PROBE_WINDOWS = 5e7
#: Windows drawn and evaluated at a time within one probe batch. Splitting
#: a binomial draw into chunks leaves its values unchanged, so this sets
#: only the probe's transient memory: 512 KiB per int64 draw.
PROBE_CHUNK = 1 << 16


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


def probe_size(
    analytic: RoundOutcome,
    probe_windows: int,
    max_expected_iterations: float = MAX_EXPECTED_ITERATIONS,
) -> int:
    """Windows :meth:`MonteCarloJuggernaut.run` simulates for ``analytic``.

    Zero when the run probes nothing: an infeasible or zero-probability
    outcome, or one whose expected window count exceeds
    ``max_expected_iterations`` (the run then uses the analytical
    probability). Otherwise at least ``probe_windows``, raised so the
    probe expects >= 200 successes (7% relative error), capped at
    :data:`MAX_PROBE_WINDOWS`. The probe's cost is linear in this
    count, which is what prices a Monte-Carlo cell.
    """
    if not analytic.feasible or analytic.success_probability == 0.0:
        return 0
    if analytic.expected_iterations > max_expected_iterations:
        return 0
    wanted = max(probe_windows, 200 * analytic.expected_iterations)
    return int(min(MAX_PROBE_WINDOWS, wanted))


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
        import numpy as np

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
        part) and the correct-guess draw. Both go :data:`PROBE_CHUNK`
        windows at a time, and every latent draw precedes the first hits
        draw, so the values match one whole-call draw of each. The
        latents land in one buffer of the smallest signed type that
        holds ``rounds``; Eq. 1 then turns each chunk of hits, in place
        and in exact integer arithmetic, into its slice of the flags. A
        1M-window call holds about 4 MiB: the flags, the latent buffer
        and one chunk's draw.
        """
        import numpy as np

        p = self.params
        ts = self._ts
        # Eq. 1's fixed part: 2 * TS plus the whole latent activations
        # of every round. RRS draws 1 or 2 latents per unswap-swap (mean
        # 1.5); SRS contributes none.
        base = 2 * ts
        latent = None
        if p.latent_per_round > 0 and rounds > 0:
            low = int(np.floor(p.latent_per_round))
            base += low * rounds
            frac = p.latent_per_round - low
            if frac > 0:
                # Sum of `rounds` Bernoulli(frac) draws: one binomial per
                # window. A signed buffer adds to int64 without promotion.
                latent = np.empty(num_windows, dtype=np.min_scalar_type(-rounds))
                for start in range(0, num_windows, PROBE_CHUNK):
                    size = min(PROBE_CHUNK, num_windows - start)
                    latent[start:start + size] = self.rng.binomial(
                        rounds, frac, size=size
                    )
        whole_guesses = int(self.model.guesses(rounds))
        odds = 1.0 / p.rows_per_bank
        flags = np.empty(num_windows, dtype=bool)
        for start in range(0, num_windows, PROBE_CHUNK):
            size = min(PROBE_CHUNK, num_windows - start)
            # Eq. 1 with stochastic L, plus the correct guesses' activations.
            hits = self.rng.binomial(whole_guesses, odds, size=size)
            hits *= ts
            hits += base
            if latent is not None:
                hits += latent[start:start + size]
            np.greater_equal(hits, p.trh, out=flags[start:start + size])
        return flags

    def run(
        self,
        rounds: int,
        iterations: int = 100_000,
        probe_windows: int = 200_000,
        max_expected_iterations: float = MAX_EXPECTED_ITERATIONS,
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
        import numpy as np

        if iterations < 1:
            raise ValueError(f"iterations must be at least 1, got {iterations!r}")
        analytic = self.model.evaluate(rounds)
        needed = probe_size(analytic, probe_windows, max_expected_iterations)
        p_hat: float
        if needed:
            successes = 0
            simulated = 0
            batch = min(needed, 1_000_000)
            while simulated < needed:
                n = min(batch, needed - simulated)
                successes += int(np.count_nonzero(self._simulate_windows(rounds, n)))
                simulated += n
            p_hat = successes / simulated
        else:
            # No probe: zero when infeasible, else the analytical odds.
            p_hat = analytic.success_probability if analytic.feasible else 0.0

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
