"""Refresh scheduling for ranks of DRAM banks.

DDR4 issues one all-bank refresh command per rank every ``tREFI`` (7.8 us);
each command occupies the banks for ``tRFC`` (350 ns). Over a 64 ms window
this amounts to 8192 refreshes, which is where the paper's usable-time
equation (Eq. 4) comes from:

    t_actual = 64 ms - tRFC * 8192
"""

from __future__ import annotations

from typing import List, Optional

from repro.dram.config import DRAMTiming


class RefreshScheduler:
    """Computes refresh-induced bank unavailability.

    The scheduler is stateless with respect to simulation order: refreshes
    occur at deterministic instants ``k * tREFI`` and each lasts ``tRFC``.
    Callers use :meth:`delay_through` to push an operation's start time past
    any refreshes that overlap it.
    """

    def __init__(self, timing: Optional[DRAMTiming] = None):
        self.timing = timing or DRAMTiming()
        if self.timing.t_refi <= self.timing.t_rfc:
            raise ValueError("tREFI must exceed tRFC")
        self.refreshes_applied = 0

    def next_refresh_at(self, time: float) -> float:
        """Start instant of the first refresh at or after ``time``."""
        t_refi = self.timing.t_refi
        k = int(time // t_refi)
        candidate = k * t_refi
        if candidate < time:
            candidate = (k + 1) * t_refi
        return candidate

    def in_refresh(self, time: float) -> bool:
        """True if a refresh is in progress at ``time``."""
        phase = time % self.timing.t_refi
        return phase < self.timing.t_rfc

    def delay_through(self, time: float) -> float:
        """Earliest instant at or after ``time`` not inside a refresh.

        Inlined expression-for-expression in ``MemorySystem.read`` and
        the batched engine's fused loop (``repro.sim.engine.batched``).
        """
        if self.in_refresh(time):
            k = int(time // self.timing.t_refi)
            self.refreshes_applied += 1
            return k * self.timing.t_refi + self.timing.t_rfc
        return time

    def refresh_overhead(self, start: float, end: float) -> float:
        """Total refresh busy time within ``[start, end)``."""
        if end <= start:
            return 0.0
        t_refi, t_rfc = self.timing.t_refi, self.timing.t_rfc
        first = int(start // t_refi)
        last = int(end // t_refi)
        total = 0.0
        for k in range(first, last + 1):
            ref_start = k * t_refi
            ref_end = ref_start + t_rfc
            overlap = min(end, ref_end) - max(start, ref_start)
            if overlap > 0:
                total += overlap
        return total

    def refresh_instants(self, start: float, end: float) -> List[float]:
        """Refresh start times within ``[start, end)``."""
        t_refi = self.timing.t_refi
        k = int(start // t_refi)
        if k * t_refi < start:
            k += 1
        out = []
        while k * t_refi < end:
            out.append(k * t_refi)
            k += 1
        return out
