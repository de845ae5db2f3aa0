"""E16 / Section VIII (3, 5): Juggernaut under open-page and DDR5.

Paper anchors: an open-page controller stretches the TRH=4800 / rate-6
attack from ~4 hours to ~10 days, but the protection evaporates at lower
thresholds (TRH <= 3300 still falls in under a day at swap rate 10); and
under DDR5's halved refresh window, TRH <= 3100 falls in under a day
regardless of the swap rate.
"""

from report_common import reproduce


def test_disc_open_page_and_ddr5(benchmark, figure_store):
    data, _ = benchmark.pedantic(
        lambda: reproduce("disc-open-page", figure_store),
        rounds=1,
        iterations=1,
    )
    values = data.model("open-page")
    results = values["results"]
    ddr5 = values["ddr5"]

    closed = results["closed-page TRH=4800 rate 6 (days)"]
    opened = results["open-page TRH=4800 rate 6 (days)"]
    # Open page slows the attack by at least an order of magnitude at
    # high TRH (paper: 4 hours -> 10 days).
    assert opened / closed > 10
    # ...but low thresholds still fall in under a day.
    assert results["open-page TRH=3300 rate 10 (days)"] < 1.0
    assert results["open-page TRH=1200 rate 6 (days)"] < 1.0
    # DDR5: under a day regardless of swap rate at TRH <= 3100.
    assert all(days < 1.0 for days in ddr5.values())
