"""Write queue with watermark-based draining (USIMM behaviour).

Writes are not latency-critical: the controller acknowledges them
immediately and buffers them in a per-channel write queue. When the queue
fills past its high watermark it drains down to the low watermark,
occupying banks while it does — which is when writes *do* cost reads
latency. This is the standard USIMM/DDR write-drain policy.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple


class PendingWrite(NamedTuple):
    """A buffered write: its flat bank, row and arrival time.

    A ``NamedTuple`` rather than a dataclass: one is built per posted
    write on the simulation hot path, and tuple construction skips the
    per-field ``object.__setattr__`` a frozen dataclass pays.
    """

    arrival: float
    bank_index: int
    row: int


class WriteQueue:
    """Per-channel buffered writes with high/low watermark draining.

    Args:
        capacity: Maximum buffered writes (per channel).
        high_watermark: Occupancy triggering a drain.
        low_watermark: Occupancy at which a drain stops.
    """

    def __init__(self, capacity: int = 64, high_watermark: int = 40, low_watermark: int = 16):
        if not 0 < low_watermark < high_watermark <= capacity:
            raise ValueError("require 0 < low < high <= capacity")
        self.capacity = capacity
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self._queue: List[PendingWrite] = []

    def __len__(self) -> int:
        return len(self._queue)

    def enqueue(self, write: PendingWrite) -> None:
        if len(self._queue) >= self.capacity:
            raise OverflowError("write queue full; caller must drain first")
        self._queue.append(write)

    def drain(self, issue: Callable[[PendingWrite], None], to_empty: bool = False) -> None:
        """Issue buffered writes oldest-first until the low watermark
        (or empty)."""
        target = 0 if to_empty else self.low_watermark
        while len(self._queue) > target:
            issue(self._queue.pop(0))
