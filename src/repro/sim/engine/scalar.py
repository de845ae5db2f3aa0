"""The scalar reference engine: one heap pop per access.

A min-heap keyed by each core's local clock picks the earliest core,
services exactly one of its accesses, and re-inserts the core — the
shared loop :func:`~repro.sim.engine.base.scalar_stretch`, run over
traces pre-decoded once through the workload plane's slot.
Every other engine is measured against this one: the differential test
harness requires bit-identical results.
"""

from __future__ import annotations

import heapq
from typing import List

from repro.controller.memory_system import MemorySystem
from repro.cpu.core import TraceCore
from repro.sim.engine.base import Engine, decode_traces, scalar_stretch
from repro.workloads.columnar import ColumnarTrace


class ScalarEngine(Engine):
    """Reference engine servicing one access per scheduling step."""

    name = "scalar"

    def drive(
        self,
        cores: List[TraceCore],
        traces: List[ColumnarTrace],
        memory: MemorySystem,
    ) -> None:
        """Global-time-ordered interleaving of cores: a heap keyed by
        each core's local clock processes the earliest core next."""
        decoded = decode_traces(cores, traces, memory)
        heap = [(0.0, core_id) for core_id in range(len(cores))]
        heapq.heapify(heap)
        positions = [0] * len(cores)
        while heap:
            scalar_stretch(cores, decoded, memory, heap, positions)
