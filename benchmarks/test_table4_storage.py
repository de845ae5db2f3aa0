"""E13 / Table IV: on-chip storage per bank, RRS vs Scale-SRS.

Paper rows: RIT / swap buffer / place-back buffer / epoch register /
pin buffer, for TRH in {4800, 2400, 1200}; totals 36 KB vs 18.7 KB at
4800 and 251 KB vs 76.9 KB at 1200 — Scale-SRS ~3.3x smaller.
"""

from report_common import reproduce

TRH_VALUES = (4800, 2400, 1200)


def test_table4_storage(benchmark, figure_store):
    data, _ = benchmark.pedantic(
        lambda: reproduce("table4", figure_store), rounds=1, iterations=1
    )
    breakdown = data.model("storage")["breakdown"]
    rrs_4800 = breakdown[4800]["rrs"]

    # Anchors at TRH=4800 (absolute match).
    assert abs(rrs_4800["rit_bytes"] / 1024 - 35.0) < 1.5
    assert abs(breakdown[4800]["scale-srs"]["rit_bytes"] / 1024 - 9.4) < 1.0
    assert abs(rrs_4800["total_bytes"] / 1024 - 36.0) < 1.5

    # Headline ratio: ~2x at 4800 growing past 3x at 1200 (paper: 3.3x).
    ratio_1200 = (
        breakdown[1200]["rrs"]["total_bytes"]
        / breakdown[1200]["scale-srs"]["total_bytes"]
    )
    assert ratio_1200 > 3.0
    # Scale-SRS is smaller everywhere, and the RIT dominates at low TRH.
    for trh in TRH_VALUES:
        rows = breakdown[trh]
        assert rows["scale-srs"]["total_bytes"] < rows["rrs"]["total_bytes"]
    assert breakdown[1200]["rrs"]["rit_bytes"] > rrs_4800["rit_bytes"] * 3.5
