"""Charge-disturbance physics: blast radius and bit flips.

Row Hammer is an analog phenomenon: each ACT of an aggressor row leaks a
little charge from rows within its *blast radius* (Section II-E cites
[29]). This model tracks accumulated disturbance per victim row in
"equivalent aggressor activations": a victim at distance 1 accumulates 1
unit per aggressor ACT, a victim at distance 2 a configurable fraction,
and so on. A row whose accumulated disturbance exceeds ``TRH`` within a
refresh window flips bits.

Crucially for the half-double attack (Section II-E): *any* activation
disturbs neighbours — including the activation performed by a
victim-focused mitigation when it refreshes a victim row. Refreshing row
``r`` restores ``r``'s charge but disturbs ``r +/- d``, which is how
VFM's own mitigative action hammers distance-2 rows.

The model is driven by the security harnesses (it is not wired into the
performance simulator, where per-ACT neighbour updates would be wasted
work: swaps keep every count far below the flip point).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple


@dataclass
class FlipEvent:
    """A bit flip: which row, when, and at what disturbance level."""

    row: int
    time: float
    disturbance: float
    window_index: int


class DisturbanceModel:
    """Accumulates per-row disturbance within refresh windows.

    A row flips when its accumulated disturbance reaches ``trh`` within
    a window. :attr:`flips` records one :class:`FlipEvent` per row per
    window, at the row's first crossing (its time and level); further
    disturbance of an already-flipped row in the same window adds no
    event, even after a targeted refresh restored it. A later window
    records the row again.

    Args:
        num_rows: Rows in the bank.
        trh: Row Hammer threshold — disturbance units at which a row
            flips (the paper's demonstrated values are measured in
            distance-1 aggressor activations, hence unit weight 1.0 at
            distance 1).
        refresh_window: Window after which regular refresh restores every
            row (ns).
        distance_factors: Disturbance per aggressor ACT by distance:
            entry 0 is distance 1, entry 1 is distance 2, ... The default
            models a blast radius of 2 with a weak distance-2 coupling —
            too weak to matter alone, decisive under half-double.
    """

    def __init__(
        self,
        num_rows: int,
        trh: int,
        refresh_window: float = 64_000_000.0,
        distance_factors: Tuple[float, ...] = (1.0, 0.05),
    ):
        if num_rows <= 0:
            raise ValueError("num_rows must be positive")
        if trh <= 0:
            raise ValueError("trh must be positive")
        if not distance_factors or distance_factors[0] <= 0:
            raise ValueError("distance_factors must start with a positive weight")
        self.num_rows = num_rows
        self.trh = trh
        self.refresh_window = refresh_window
        self.distance_factors = distance_factors
        # Flat (offset, factor) taps: below, then above, at each distance.
        self._taps = tuple(
            (sign * (index + 1), factor)
            for index, factor in enumerate(distance_factors)
            for sign in (-1, 1)
        )
        self._disturbance: Dict[int, float] = defaultdict(float)
        self._window_index = 0
        self._next_window = refresh_window
        self._flipped: Set[int] = set()  # rows flipped in this window
        self.flips: List[FlipEvent] = []
        self.total_activations = 0
        self.refreshes = 0

    def _roll(self, time: float) -> None:
        window = int(time // self.refresh_window)
        if window > self._window_index:
            # Regular refresh restored every row at the window boundary.
            self._disturbance.clear()
            self._flipped.clear()
            self._window_index = window
            self._next_window = (window + 1) * self.refresh_window

    def on_activation(self, row: int, time: float) -> None:
        """An ACT on ``row`` disturbs its neighbours out to the radius
        (below, then above, at each distance).

        The hammer harness (``repro.attacks.harness.hammer_pattern``)
        inlines this method expression for expression in its fused
        loop; changes here must be mirrored there (the harness
        differential tests in ``tests/test_security_golden.py`` catch
        any divergence bit-exactly).
        """
        if time >= self._next_window:
            self._roll(time)
        self.total_activations += 1
        levels = self._disturbance
        flipped = self._flipped
        num_rows = self.num_rows
        trh = self.trh
        for offset, factor in self._taps:
            victim = row + offset
            if 0 <= victim < num_rows:
                level = levels[victim] + factor
                levels[victim] = level
                if level >= trh and victim not in flipped:
                    self._flip(victim, time, level)

    def _flip(self, row: int, time: float, level: float) -> None:
        self._flipped.add(row)
        self.flips.append(
            FlipEvent(
                row=row,
                time=time,
                disturbance=level,
                window_index=self._window_index,
            )
        )

    def on_refresh(self, row: int, time: float) -> None:
        """A targeted refresh restores ``row`` — but, being an activation,
        disturbs the rows around it (the half-double lever)."""
        self._roll(time)
        self.refreshes += 1
        self.on_activation(row, time)
        self.total_activations -= 1  # refresh counted separately
        self._disturbance[row] = 0.0

    def disturbance(self, row: int) -> float:
        return self._disturbance.get(row, 0.0)

    def flipped_rows(self) -> List[int]:
        return sorted({flip.row for flip in self.flips})

    def any_flip(self) -> bool:
        return bool(self.flips)

    def hottest(self) -> Tuple[int, float]:
        """(row, disturbance) of the currently most disturbed row."""
        if not self._disturbance:
            return (-1, 0.0)
        row = max(self._disturbance, key=self._disturbance.get)
        return row, self._disturbance[row]
