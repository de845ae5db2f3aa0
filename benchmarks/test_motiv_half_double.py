"""E18 / Section II-E motivation: half-double defeats victim-focused
mitigation; aggressor-focused row swaps do not.

Paper narrative: classic double-sided hammering is stopped by VFM
(PARA / targeted row refresh), but half-double turns VFM's own victim
refreshes into distance-2 hammering — and widening the protected radius
just moves the flip to distance 3. Scale-SRS, which relocates the
aggressor instead of refreshing victims, stops both patterns.
"""

from report_common import reproduce


def test_motivation_half_double(benchmark, figure_store):
    data, _ = benchmark.pedantic(
        lambda: reproduce("motiv-half-double", figure_store),
        rounds=1,
        iterations=1,
    )
    cells = data.results.by("mitigation", "pattern", "radius")

    # Double-sided is stopped by everything.
    for defense in ("trr", "para", "scale-srs"):
        assert not cells[(defense, "double-sided", 1)].any_flip, defense
    # Half-double defeats both VFM designs at distance 2...
    assert {98, 102} & set(cells[("trr", "half-double", 1)].flipped_rows)
    assert cells[("para", "half-double", 1)].any_flip
    # ...moves to distance 3 when VFM widens its radius (arms race)...
    assert {97, 103} & set(cells[("trr", "half-double", 2)].flipped_rows)
    # ...and bounces off the aggressor-focused design.
    assert not cells[("scale-srs", "half-double", 1)].any_flip
