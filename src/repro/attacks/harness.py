"""Security harness: play an access pattern against a defended bank.

Glue for the motivation and security experiments: drives a hammer
pattern (from :mod:`repro.attacks.patterns`) through a mitigation engine
attached to a bank, feeding every demand activation into a
:class:`DisturbanceModel`, then reports whether any victim flipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.core.mitigation import Mitigation
from repro.dram.disturbance import DisturbanceModel


@dataclass
class HammerOutcome:
    """Result of one hammering session."""

    activations: int
    flipped_rows: List[int]
    hottest_row: int
    hottest_disturbance: float
    victim_refreshes: int
    duration_ns: float

    @property
    def any_flip(self) -> bool:
        return bool(self.flipped_rows)


def hammer_pattern(
    mitigation: Mitigation,
    disturbance: DisturbanceModel,
    pattern: Iterable[int],
    start: float = 0.0,
    deadline: Optional[float] = None,
) -> HammerOutcome:
    """Hammer ``pattern``'s rows in order through ``mitigation``.

    Each access resolves the logical row through the mitigation's
    indirection (identity for VFM, the RIT for row-swap designs), issues
    the bank access, disturbs the physical neighbours, and notifies the
    mitigation. Stops at ``deadline`` if given.

    Indirection and pinning are read through the mitigation's live
    :meth:`~Mitigation.resolve_map` and
    :meth:`~Mitigation.batch_pinned_view`, which see every remap and pin
    the mitigation commits.
    """
    remap = mitigation.resolve_map()
    pinned = mitigation.batch_pinned_view()
    bank = mitigation.bank
    t_rc = bank.timing.t_rc
    access = bank.access
    disturb = disturbance.on_activation
    notify = mitigation.on_activation
    limit = float("inf") if deadline is None else deadline
    time = start
    issued = 0
    for row in pattern:
        if time >= limit:
            break
        if pinned is not None and row in pinned:
            time += t_rc
            continue
        physical = remap.get(row, row) if remap is not None else row
        result = access(time, physical)
        disturb(physical, result.start)
        issued += 1
        finish = result.finish
        end = notify(finish, row)
        time = end if end > finish else finish
    hottest_row, hottest = disturbance.hottest()
    victim_refreshes = getattr(mitigation, "victim_refreshes", 0)
    return HammerOutcome(
        activations=issued,
        flipped_rows=disturbance.flipped_rows(),
        hottest_row=hottest_row,
        hottest_disturbance=hottest,
        victim_refreshes=victim_refreshes,
        duration_ns=time - start,
    )
