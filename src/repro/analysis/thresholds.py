"""Row Hammer threshold history (Table I).

Demonstrated ``TRH`` values across DRAM generations, 2014-2021. The
headline observation: a 29x drop in eight years (139K on old DDR3 down
to 4.8K on new LPDDR4), which is what motivates designing for
``TRH <= 4800`` and studying scalability down to 512.
"""

from __future__ import annotations

from typing import Dict, Tuple

# generation -> (TRH, citation year-ish note). Ranges keep the lower bound.
TRH_HISTORY: Dict[str, int] = {
    "DDR3 (old)": 139_000,
    "DDR3 (new)": 22_400,
    "DDR4 (old)": 17_500,
    "DDR4 (new)": 10_000,
    "LPDDR4 (old)": 16_800,
    "LPDDR4 (new)": 4_800,
}

LPDDR4_NEW_RANGE: Tuple[int, int] = (4_800, 9_000)


def scaling_factor(older: str = "DDR3 (old)", newer: str = "LPDDR4 (new)") -> float:
    """How much TRH dropped between two generations (about 29x for the
    default pair, as the paper highlights)."""
    return TRH_HISTORY[older] / TRH_HISTORY[newer]
