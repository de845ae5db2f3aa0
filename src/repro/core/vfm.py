"""Victim-focused mitigations (VFM): PARA and targeted row refresh.

The defenses that preceded aggressor-focused designs (Section II-E):
instead of moving the aggressor, they refresh its victims before the
aggressor reaches ``TRH`` activations. Two representatives:

- :class:`PARA` [24]: on every activation, refresh the neighbours with a
  small probability ``p`` — stateless, but ``p`` must grow as ``TRH``
  shrinks.
- :class:`TargetedRowRefresh` (Graphene-style [44]): an exact/Misra-Gries
  tracker triggers a deterministic neighbour refresh when an aggressor
  crosses ``TRH / 2``.

Both carry VFM's structural flaw: the mitigative refresh is itself an
activation, so protecting distance-1 victims hammers distance-2 rows —
the half-double attack (Section II-E) exploits exactly this, which is
why the paper builds on row swaps instead. These engines exist as
baselines for the motivation experiments (see
``benchmarks/test_motiv_half_double.py``).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.mitigation import Mitigation, MitigationKind
from repro.dram.bank import Bank
from repro.dram.disturbance import DisturbanceModel
from repro.trackers.base import Tracker


class VictimRefreshMitigation(Mitigation):
    """Shared machinery: refresh the rows around an aggressor.

    Args:
        bank: The protected bank.
        disturbance: The charge model; refreshes restore victims there
            (and disturb *their* neighbours — the half-double lever).
        protected_radius: How many rows on each side get refreshed. VFM
            deployments protect radius 1; protecting radius 2 doubles the
            refresh traffic and still leaves radius 3 exposed (the
            arms-race the paper describes).
        tracker: Optional tracker (targeted variants).
    """

    def __init__(
        self,
        bank: Bank,
        disturbance: DisturbanceModel,
        protected_radius: int = 1,
        tracker: Optional[Tracker] = None,
        keep_events: bool = False,
    ):
        super().__init__(bank, tracker, keep_events)
        if protected_radius < 1:
            raise ValueError("protected_radius must be at least 1")
        self.disturbance = disturbance
        self.protected_radius = protected_radius
        self.victim_refreshes = 0

    def _refresh_neighbours(self, time: float, row: int) -> float:
        """Refresh ``row``'s neighbours out to the protected radius."""
        t_rc = self.bank.timing.t_rc
        for distance in range(1, self.protected_radius + 1):
            for victim in (row - distance, row + distance):
                if not 0 <= victim < self.bank.num_rows:
                    continue
                self.disturbance.on_refresh(victim, time)
                time = self._move(
                    MitigationKind.VICTIM_REFRESH, time, t_rc, (victim,),
                    row=victim,
                )
                self.victim_refreshes += 1
        return time


class PARA(VictimRefreshMitigation):
    """Probabilistic Adjacent Row Activation (Kim et al. [24]).

    Refreshes the neighbours of every activated row with probability
    ``p``. For protection, ``p`` must satisfy roughly
    ``(1 - p)^TRH << 1``; the default picks ``p = 8 / TRH``, giving a
    ~3e-4 per-window escape probability.
    """

    def __init__(
        self,
        bank: Bank,
        disturbance: DisturbanceModel,
        trh: int,
        probability: Optional[float] = None,
        protected_radius: int = 1,
        rng: Optional[random.Random] = None,
        keep_events: bool = False,
    ):
        super().__init__(bank, disturbance, protected_radius, None, keep_events)
        if trh <= 0:
            raise ValueError("trh must be positive")
        self.probability = probability if probability is not None else min(1.0, 8.0 / trh)
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        self.rng = rng or random.Random(0x9A7A)

    def on_activation(self, time: float, row: int) -> float:
        if self.rng.random() < self.probability:
            return self._refresh_neighbours(time, row)
        return time


class TargetedRowRefresh(VictimRefreshMitigation):
    """Tracker-driven neighbour refresh (Graphene-style TRR).

    The tracker threshold should be well below ``TRH`` (half is
    customary) so victims are refreshed before the aggressor can deliver
    threshold-many disturbances between refreshes. Tracker triggers are
    its only refreshes; PARA, which may refresh on any ACT, keeps the
    base horizon of 0.
    """

    TRACKER_TRIGGERED = True

    def __init__(
        self,
        bank: Bank,
        disturbance: DisturbanceModel,
        tracker: Tracker,
        protected_radius: int = 1,
        keep_events: bool = False,
    ):
        super().__init__(bank, disturbance, protected_radius, tracker, keep_events)

    def on_activation(self, time: float, row: int) -> float:
        observation = self.tracker.observe(row)
        if observation.triggered:
            return self._refresh_neighbours(time, row)
        return time
