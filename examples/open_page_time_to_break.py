#!/usr/bin/env python3
"""Time to break RRS under an open-page policy (Section VIII-3).

Under open page, same-row accesses merge into one activation, which
throttles the Juggernaut attacker, who needs every access to be a fresh
activation. This study prints the analytical consequence: time-to-break
RRS under open versus closed page across thresholds — protection at
TRH=4800, none at TRH <= 3300.

Usage::

    python examples/open_page_time_to_break.py
"""

from repro.attacks.analytical import AttackParameters, JuggernautModel
from repro.attacks.juggernaut import open_page_time_to_break_days


def attack_consequence() -> None:
    print("=" * 60)
    print("Juggernaut vs RRS under open page (analytical)")
    print("=" * 60)
    for trh, rate in ((4800, 6), (3300, 10), (2400, 6), (1200, 6)):
        closed = JuggernautModel(
            AttackParameters(trh=trh, ts=max(2, trh // rate))
        ).best(step=20).time_to_break_days
        opened = open_page_time_to_break_days(trh, rate)
        print(f"TRH={trh:<5d} rate={rate:<3d} closed-page {closed:>10.3g} d   "
              f"open-page {opened:>10.3g} d")
    print("\n-> open page buys time at TRH=4800 but none at scaled-down")
    print("   thresholds (paper: <1 day for TRH <= 3300 even at rate 10);")
    print("   a real defense such as Scale-SRS is still required.")


def main() -> int:
    attack_consequence()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
