"""E9 / Figure 13: time-to-appear of outlier rows vs swap rate.

Paper series (TRH=4800): pairing each swap rate with its dangerous
outlier class (k = rate landings on one location), outliers are already
rare at rate 3 — a window with three 3-swap outliers only once per ~31
days, four only once per ~64 years — which is what licenses Scale-SRS's
reduced swap rate plus pinning.
"""

from report_common import reproduce


def test_fig13_outlier_time_to_appear(benchmark, figure_store):
    data, _ = benchmark.pedantic(
        lambda: reproduce("fig13", figure_store), rounds=1, iterations=1
    )
    values = data.model("outliers")
    sweep_3rows = values["sweep_3rows"]
    sweep_4rows = values["sweep_4rows"]
    anchors = values["anchors"]

    # Paper anchors: ~31 days for 3 outliers, ~64 years for 4 (order).
    assert 5 < anchors["3 rows @ rate 3 (days)"] < 120
    assert 20 < anchors["4 rows @ rate 3 (years)"] < 300

    # Rarity increases with swap rate and with outlier count.
    assert sweep_3rows == sorted(sweep_3rows)
    for three, four in zip(sweep_3rows, sweep_4rows):
        assert four > three
