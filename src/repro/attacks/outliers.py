"""Poisson model of outlier-row appearance (Section V-B, Figure 13).

Within one refresh window an attacker can force at most
``A = ACT_max / TS`` swaps. Each swap picks a uniformly random target
location among the bank's ``R`` rows, so the number of times any given
location is chosen is ``Binomial(A, 1/R)``. The expected number of
locations chosen exactly ``k`` times is ``R_K = R * p_{k,TS}``
(footnote 4 of the paper), and the probability that ``M`` such locations
appear simultaneously follows a Poisson law:

    P(M rows with k swaps) = exp(-R_K) * R_K^M / M!

The *time to appear* for the event is one window divided by that
probability. At a swap rate of 3 and ``TRH = 4800`` the paper reads off:
three 3-swap outliers only once every ~31 days, four only once every
~64 years — which is why pinning at most a few rows in the LLC suffices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.attacks.analytical import NS_PER_DAY, _binomial_pmf_at_least_once


@dataclass(frozen=True)
class OutlierModel:
    """Outlier-appearance statistics for one bank under attack.

    Attributes:
        trh: Row Hammer threshold.
        swap_rate: ``TRH / TS``; Scale-SRS uses 3.
        rows_per_bank: ``R``.
        max_activations: ``ACT_max`` per bank per window.
        refresh_window_ns: Window length.
    """

    trh: int = 4800
    swap_rate: float = 3.0
    rows_per_bank: int = 128 * 1024
    max_activations: int = 1_360_000
    refresh_window_ns: float = 64_000_000.0

    @property
    def ts(self) -> int:
        return max(1, int(round(self.trh / self.swap_rate)))

    @property
    def max_swaps_per_window(self) -> int:
        """``A``: the most rows an attacker can push past ``TS``."""
        return self.max_activations // self.ts

    def probability_row_chosen(self, k: int) -> float:
        """``p_{k,TS}``: one location receiving exactly ``k`` swap landings."""
        return _binomial_pmf_at_least_once(
            float(self.max_swaps_per_window), 1.0 / self.rows_per_bank, k
        )

    def expected_rows_with_swaps(self, k: int) -> float:
        """``R_K``: expected number of locations with exactly ``k`` landings."""
        return self.rows_per_bank * self.probability_row_chosen(k)

    def probability_of_outliers(self, num_rows: int, k: int = 3) -> float:
        """Poisson probability of ``num_rows`` simultaneous k-swap outliers."""
        lam = self.expected_rows_with_swaps(k)
        if lam <= 0.0:
            return 0.0
        log_p = -lam + num_rows * math.log(lam) - math.lgamma(num_rows + 1)
        return math.exp(log_p)

    def time_to_appear_days(self, num_rows: int, k: int = 3) -> float:
        """Expected days until a window shows ``num_rows`` k-swap outliers."""
        prob = self.probability_of_outliers(num_rows, k)
        if prob <= 0.0:
            return math.inf
        return (self.refresh_window_ns / prob) / NS_PER_DAY

    def sweep_swap_rates(
        self, swap_rates: List[float], num_rows: int, k: Optional[int] = None
    ) -> List[float]:
        """Figure 13: time-to-appear across candidate swap rates.

        By default each rate is paired with the outlier class that
        *matters* at that rate: a location needs ``k = swap_rate``
        landings to approach ``TRH``, so the figure compares rate 3 with
        3-swap outliers against rate 6 with 6-swap outliers — which is
        why a higher swap rate looks so much safer. Pass an explicit
        ``k`` to hold the outlier class fixed instead.
        """
        out = []
        for rate in swap_rates:
            model = OutlierModel(
                trh=self.trh,
                swap_rate=rate,
                rows_per_bank=self.rows_per_bank,
                max_activations=self.max_activations,
                refresh_window_ns=self.refresh_window_ns,
            )
            k_eff = k if k is not None else max(1, int(round(rate)))
            out.append(model.time_to_appear_days(num_rows, k_eff))
        return out
