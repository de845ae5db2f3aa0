"""E1 / Figure 1a: time-to-break RRS under the naive random-guess attack.

Paper series: for TRH in {1200, 2400, 4800} and swap rates 3-8, the
birthday-paradox attack needs months-to-millennia; at TRH=4800 / swap
rate 6 it exceeds 10^3 days (~3 years). This is the security story RRS
told — before Juggernaut.
"""

from report_common import reproduce
from repro.report.figures.motivation import FIG01A_SWAP_RATES, FIG01A_TRH_VALUES


def test_fig01a_random_guess_attack(benchmark, figure_store):
    data, _ = benchmark.pedantic(
        lambda: reproduce("fig01a", figure_store), rounds=1, iterations=1
    )
    series = data.model("random-guess")["series"]
    rates = list(FIG01A_SWAP_RATES)

    # Paper anchor: years at TRH 4800 / swap rate 6 (the intro's "~3
    # years"; our expected-value model reads 2.3 years).
    rate6 = series[4800][rates.index(6)]
    assert rate6 > 700

    # Shape: time-to-break grows by orders of magnitude from rate 3 to 8
    # (individual steps can wiggle — k is an integer, so curves move in
    # cliffs), and at the paper's rate-6 design point higher TRH is
    # strictly harder to break.
    for trh in FIG01A_TRH_VALUES:
        assert series[trh][-1] > series[trh][0] * 1000
        assert series[trh][rates.index(8)] > series[trh][rates.index(4)]
    i6 = rates.index(6)
    assert series[1200][i6] < series[2400][i6] < series[4800][i6]
