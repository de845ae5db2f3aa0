"""Trace-driven out-of-order core model (USIMM style).

The model captures the two first-order effects that turn memory latency
into slowdown:

- *Fetch bandwidth*: non-memory instructions retire at ``fetch_width``
  per cycle, so a gap of ``g`` instructions costs ``g / width`` cycles.
- *ROB-limited overlap*: a load blocks retirement until its data returns,
  but the core runs ahead up to ``rob_size`` instructions past the oldest
  incomplete load (and at most ``max_outstanding`` loads in flight), which
  is what gives memory-level parallelism. Writes are posted.

The core does not own a clock loop; the simulation driver advances it one
trace record at a time via :meth:`advance` / :meth:`issue_read`,
so that multiple cores can be interleaved in global time order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Optional, Tuple

from repro.dram.config import SystemConfig

if TYPE_CHECKING:
    import numpy as np


@dataclass
class CoreResult:
    """Final statistics of one core's run."""

    core_id: int
    instructions: int
    memory_reads: int
    memory_writes: int
    finish_time_ns: float
    cycles: float
    ipc: float


class TraceCore:
    """One core consuming a memory-access trace.

    Args:
        core_id: Identifier (used in results).
        config: System parameters (clock, widths, ROB size).
        max_outstanding: MSHR-like cap on loads in flight.
    """

    def __init__(self, core_id: int, config: Optional[SystemConfig] = None, max_outstanding: int = 16):
        self.core_id = core_id
        self.config = config or SystemConfig()
        if max_outstanding <= 0:
            raise ValueError("max_outstanding must be positive")
        self.max_outstanding = max_outstanding
        self.cycle_ns = self.config.core_cycle_ns
        self.clock_ns = 0.0
        self.instructions = 0
        self.memory_reads = 0
        self.memory_writes = 0
        # (instruction index, completion time) of loads in flight.
        self._pending: Deque[Tuple[int, float]] = deque()

    def advance_gap(self, gap: int) -> float:
        """Consume ``gap`` non-memory instructions plus the memory
        instruction itself; returns the core time the access issues at.

        Once the ROB (or the MSHRs) would overflow, the core stalls on
        its oldest loads (see :meth:`advance`). Keep the clock-advance
        arithmetic in sync with :meth:`gap_deltas`.
        """
        return self.advance(
            gap, (gap / self.config.fetch_width + 1.0) * self.cycle_ns
        )

    def advance(self, gap: int, delta: float) -> float:
        """:meth:`advance_gap` with the clock advance ``delta``
        precomputed by :meth:`gap_deltas` (bit-identical to the inline
        arithmetic); the engines' per-access step.

        Adds ``delta`` to the clock, then stalls on the oldest loads
        while the ROB (or the MSHRs) would overflow. Mirrored by the
        batched engine's fused loop.
        """
        if gap < 0:
            raise ValueError("gap must be non-negative")
        instructions = self.instructions + gap + 1
        self.instructions = instructions
        clock = self.clock_ns + delta
        pending = self._pending
        if pending:
            rob_floor = instructions - self.config.rob_size
            while pending and (
                pending[0][0] <= rob_floor or len(pending) >= self.max_outstanding
            ):
                completion = pending.popleft()[1]
                if completion > clock:
                    clock = completion
        self.clock_ns = clock
        return clock

    def gap_deltas(self, gaps: np.ndarray) -> np.ndarray:
        """Per-access clock advances for an array of instruction gaps.

        Element ``i`` is exactly the amount :meth:`advance_gap` would add
        to the clock for ``gaps[i]`` (same IEEE-754 operations, so the
        values are bit-identical). Both simulation engines precompute
        these once per trace (``_DecodedTrace.deltas``) and advance by
        them through :meth:`advance` instead of redoing the division per
        access.
        """
        import numpy as np

        return (
            np.asarray(gaps, dtype=np.float64) / self.config.fetch_width + 1.0
        ) * self.cycle_ns

    def issue_read(self, completion_time: float) -> None:
        """Register an issued load and its (memory-provided) completion."""
        self.memory_reads += 1
        self._pending.append((self.instructions, completion_time))

    def issue_write(self) -> None:
        """Writes are posted: they cost fetch slots only."""
        self.memory_writes += 1

    def drain(self) -> float:
        """Wait for all in-flight loads; returns the final core time."""
        while self._pending:
            _, completion = self._pending.popleft()
            if completion > self.clock_ns:
                self.clock_ns = completion
        return self.clock_ns

    def result(self) -> CoreResult:
        """Final statistics snapshot (call after :meth:`drain`)."""
        cycles = self.clock_ns / self.cycle_ns
        return CoreResult(
            core_id=self.core_id,
            instructions=self.instructions,
            memory_reads=self.memory_reads,
            memory_writes=self.memory_writes,
            finish_time_ns=self.clock_ns,
            cycles=cycles,
            ipc=self.instructions / cycles if cycles > 0 else 0.0,
        )
