"""FR-FCFS request arbitration (used with the open-page policy).

Under an open-page policy, First-Ready First-Come-First-Served issues
row-buffer hits ahead of older row misses, then falls back to age order.
The request-level performance simulator serialises per-bank traffic by
bank occupancy, which already captures closed-page behaviour; this
arbiter adds the reordering that matters for open-page studies
(Section VIII-3) and is exercised by the open-page example and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.dram.bank import Bank


@dataclass(order=True)
class QueuedRequest:
    """One pending request, ordered by arrival for FCFS tie-breaking."""

    arrival: float
    sequence: int
    row: int = field(compare=False)
    is_write: bool = field(compare=False)
    payload: object = field(compare=False, default=None)


class FRFCFSArbiter:
    """Per-bank FR-FCFS queue.

    Usage: :meth:`enqueue` requests, then :meth:`select` repeatedly with
    the bank's current open row to obtain the issue order.
    """

    def __init__(self, max_queue: int = 64):
        self.max_queue = max_queue
        self._queue: List[QueuedRequest] = []
        self._sequence = 0
        self.row_hit_grants = 0
        self.fcfs_grants = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def is_full(self) -> bool:
        """Whether the queue holds ``max_queue`` requests."""
        return len(self._queue) >= self.max_queue

    def enqueue(self, arrival: float, row: int, is_write: bool, payload: object = None) -> QueuedRequest:
        """Queue a request arriving at ``arrival``; returns it."""
        if self.is_full:
            raise OverflowError("bank queue full")
        request = QueuedRequest(
            arrival=arrival,
            sequence=self._sequence,
            row=row,
            is_write=is_write,
            payload=payload,
        )
        self._sequence += 1
        self._queue.append(request)
        return request

    def select(self, open_row: Optional[int], now: float) -> Optional[QueuedRequest]:
        """Pick the next request: oldest row-hit first, else oldest.

        Only requests that have arrived (``arrival <= now``) are eligible.
        """
        eligible = [r for r in self._queue if r.arrival <= now]
        if not eligible:
            return None
        if open_row is not None:
            hits = [r for r in eligible if r.row == open_row]
            if hits:
                chosen = min(hits)
                self._queue.remove(chosen)
                self.row_hit_grants += 1
                return chosen
        chosen = min(eligible)
        self._queue.remove(chosen)
        self.fcfs_grants += 1
        return chosen

    def drain_through_bank(self, bank: Bank, start: float) -> float:
        """Issue everything queued through ``bank`` in FR-FCFS order;
        returns the time the last access finishes. Test/demo helper."""
        time = start
        while self._queue:
            request = self.select(bank.open_row, time)
            if request is None:
                # Nothing has arrived yet; jump to the next arrival.
                time = min(r.arrival for r in self._queue)
                continue
            result = bank.access(max(time, request.arrival), request.row, request.is_write)
            time = result.finish
        return time
