"""E3 / Table I: demonstrated Row Hammer thresholds, 2014-2021.

Reproduces the table and its headline: a ~29x drop in eight years.
"""

from report_common import reproduce


def test_table1_trh_history(benchmark, figure_store):
    data, _ = benchmark.pedantic(
        lambda: reproduce("table1", figure_store), rounds=1, iterations=1
    )
    values = data.model("trh-history")
    table = values["history"]

    assert table["DDR3 (old)"] == 139_000
    assert table["LPDDR4 (new)"] == 4_800
    assert 28 <= values["scaling"] <= 30
    assert len(table) == 6
