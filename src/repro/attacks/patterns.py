"""Classic Row Hammer access patterns (Section II background).

Generators for the attack patterns the paper's threat model references:

- *double-sided* [54]: hammer the two rows sandwiching the victim —
  the pattern that set ``TRH = 4800`` on LPDDR4;
- *many-sided* (TRRespass [15]): several aggressor pairs to overwhelm
  in-DRAM TRR samplers;
- *half-double* (Google [16, 25]): heavy far-aggressor hammering plus
  light near-row accesses so the *mitigation's own refreshes* of the
  near rows hammer a distance-2 victim.

Each generator yields aggressor row numbers in hammer order; the
security harness plays them against a bank + mitigation + disturbance
model.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Sequence


def double_sided(victim: int, count: int) -> Iterator[int]:
    """Alternate the two rows sandwiching ``victim``."""
    if victim < 1:
        raise ValueError("victim must have two neighbours")
    for i in range(count):
        yield victim - 1 if i % 2 == 0 else victim + 1


def many_sided(victims: Sequence[int], count: int) -> Iterator[int]:
    """TRRespass-style: cycle through the sandwiching pairs of several
    victims."""
    if not victims:
        raise ValueError("need at least one victim")
    aggressors: List[int] = []
    for victim in victims:
        if victim < 1:
            raise ValueError("victims must have two neighbours")
        aggressors.extend((victim - 1, victim + 1))
    cycle = itertools.cycle(aggressors)
    for _ in range(count):
        yield next(cycle)


def half_double(
    far_aggressor: int,
    count: int,
    near_touch_period: int = 2048,
) -> Iterator[int]:
    """The half-double pattern around victim ``far_aggressor + 2``.

    Hammers ``A`` (the far aggressor) heavily so a victim-focused defense
    keeps refreshing ``A +/- 1``; those refreshes are themselves
    activations and hammer ``A +/- 2``. A sparse sprinkling of direct
    accesses to the near row ``A + 1`` (one per ``near_touch_period``)
    keeps it warm, as in Google's demonstration — sparse enough that the
    defense's tracker does not itself start refreshing ``A + 2``.
    """
    if near_touch_period <= 1:
        raise ValueError("near_touch_period must exceed 1")
    for i in range(count):
        if i % near_touch_period == near_touch_period - 1:
            yield far_aggressor + 1
        else:
            yield far_aggressor
