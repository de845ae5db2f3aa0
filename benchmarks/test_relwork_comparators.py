"""E19-E21 / Section IX and VIII-4: the aggressor-focused design space.

Three comparisons the paper makes in prose, measured here:

- **BlockHammer** (E20): throttling is secure but delays blacklisted rows
  by ~20 us *per activation* at TRH=4800 — a denial-of-service surface
  that Bloom-filter aliasing extends to innocent rows.
- **AQUA** (E19): quarantine migration is cheap per event (one row move)
  but reserves a DRAM region; Scale-SRS needs no reserved region.
- **Direction-bit RIT** (E21, Section VIII-4): a direction bit per entry
  removes the mirrored RIT half, nearly halving Scale-SRS's dominant
  structure.
"""

from report_common import reproduce


def test_relwork_comparators(benchmark, figure_store):
    data, _ = benchmark.pedantic(
        lambda: reproduce("relwork-comparators", figure_store),
        rounds=1,
        iterations=1,
    )
    out = data.model("comparators")

    # Paper anchors / qualitative claims.
    assert 15 <= out["throttle_delay_us"] <= 35
    assert out["dos_blacklisted"] and out["dos_delay_us"] > 10
    assert 0.0 < out["aqua_reserved_fraction"] < 0.35
    assert out["aqua_home_acts"] <= 51 and out["scale_home_acts"] <= 101
    # Direction bit nearly halves the RIT (Section VIII-4's "almost 2x").
    assert 1.7 < out["scale_rit_kb_1200"] / out["scale_rit_kb_1200_opt"] < 2.1
    assert out["ratio_1200_opt"] > 4.0
