"""E14 / Table V: extra power per channel at TRH=4800.

Paper rows: DRAM power overhead 0.5% (RRS) vs 0.2% (Scale-SRS); SRAM
structure power 903 mW vs 703 mW (23% lower on-chip power). The figure's
TRH=2400/1200 rows extrapolate the same models downward.
"""

from report_common import reproduce


def test_table5_power(benchmark, figure_store):
    data, _ = benchmark.pedantic(
        lambda: reproduce("table5", figure_store), rounds=1, iterations=1
    )
    breakdown = data.model("power")["breakdown"]
    rrs = breakdown[4800]["rrs"]
    scale = breakdown[4800]["scale-srs"]

    assert abs(rrs["dram_overhead_percent"] - 0.5) < 0.02
    assert abs(scale["dram_overhead_percent"] - 0.2) < 0.02
    assert abs(rrs["sram_power_mw"] - 903) < 20
    assert abs(scale["sram_power_mw"] - 703) < 25
    saving = (1.0 - scale["sram_power_mw"] / rrs["sram_power_mw"]) * 100.0
    assert abs(saving - 23.0) < 2.0

    # Extrapolation shape: overheads grow as TRH shrinks, Scale-SRS stays
    # cheaper.
    for trh in (2400, 1200):
        assert (
            breakdown[trh]["rrs"]["dram_overhead_percent"]
            > rrs["dram_overhead_percent"]
        )
        assert (
            breakdown[trh]["scale-srs"]["sram_power_mw"]
            < breakdown[trh]["rrs"]["sram_power_mw"]
        )
