"""E15 / Section III-C: the multi-bank Juggernaut attack.

Paper anchor: at TRH=4800 / swap rate 6, moving from a single-bank attack
(~4 hours) to hammering all 16 banks of a channel degrades the attack to
~9.9 years, because the channel's activate throughput dilutes each bank's
activation rate.
"""

from report_common import reproduce


def test_sec3c_multibank(benchmark, figure_store):
    data, _ = benchmark.pedantic(
        lambda: reproduce("sec3c-multibank", figure_store),
        rounds=1,
        iterations=1,
    )
    days = data.model("multi-bank")["days"]

    # Single bank: the ~4 hour Juggernaut result.
    assert days[1] < 1.0
    # All 16 banks: years (paper: 9.9 years; our throughput model ~11).
    assert 3 * 365 < days[16] < 40 * 365
    # The collapse happens once the channel ACT throughput saturates.
    assert days[16] / days[1] > 1000
