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
trace record at a time via :meth:`next_issue` / :meth:`complete_access`,
so that multiple cores can be interleaved in global time order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

import numpy as np

from repro.dram.config import SystemConfig


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
        its oldest loads. Mirrored by the batched engine's fused loop;
        keep the arithmetic in sync with :meth:`gap_deltas`.
        """
        if gap < 0:
            raise ValueError("gap must be non-negative")
        self.instructions += gap + 1
        clock = self.clock_ns + (gap / self.config.fetch_width + 1.0) * self.cycle_ns
        pending = self._pending
        if pending:
            rob_floor = self.instructions - self.config.rob_size
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
        values are bit-identical to the scalar path). The batched
        simulation engine precomputes these once per trace instead of
        redoing the division per access.
        """
        return (
            np.asarray(gaps, dtype=np.float64) / self.config.fetch_width + 1.0
        ) * self.cycle_ns

    def advance_many(self, gaps: np.ndarray) -> np.ndarray:
        """Array-friendly :meth:`advance_gap` over a run of accesses.

        Requires no loads in flight: with an empty pending queue the ROB
        window cannot stall, so the whole run reduces to a cumulative sum
        of :meth:`gap_deltas`. Uses ``np.add.accumulate`` seeded with the
        current clock, whose sequential pairwise adds are bit-identical
        to calling :meth:`advance_gap` in a loop. Returns the per-access
        issue times; the core's clock and instruction count advance past
        the run.
        """
        if self._pending:
            raise ValueError("advance_many requires no loads in flight")
        gaps = np.asarray(gaps)
        if len(gaps) == 0:
            return np.empty(0, dtype=np.float64)
        if int(gaps.min()) < 0:
            raise ValueError("gap must be non-negative")
        issues = np.add.accumulate(
            np.concatenate(([self.clock_ns], self.gap_deltas(gaps)))
        )[1:]
        self.instructions += int(gaps.sum()) + len(gaps)
        self.clock_ns = float(issues[-1])
        return issues

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
