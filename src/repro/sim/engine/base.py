"""The engine interface, the decoded trace, and the shared scalar loop.

An *engine* is the component that interleaves every core's trace through
the memory system in global time order. Two implementations exist behind
this interface:

- :class:`~repro.sim.engine.scalar.ScalarEngine` — the reference
  schedule: one heap pop, one access, one heap push.
- :class:`~repro.sim.engine.batched.BatchedEngine` — partitions each
  trace into provably non-interacting *spans* and services eligible
  spans on a fused loop over hoisted state.

Both drive pre-decoded traces (:class:`_DecodedTrace`, shared by the
cells that replay one workload through the workload plane's slot) and
both produce bit-identical :class:`~repro.sim.results.SimulationResult`
values — the batched engine is a faster schedule of the same
arithmetic, never a different model (enforced by
``tests/test_engine_equivalence.py``).

:func:`scalar_stretch` below is the single source of truth for what
servicing one trace record means; the scalar engine runs it for every
access and the batched engine for every access that falls off the
fused loop.
"""

from __future__ import annotations

import abc
import heapq
from typing import List

from repro.controller.memory_system import MemorySystem
from repro.cpu.core import TraceCore
from repro.workloads.columnar import ColumnarTrace


class _DecodedTrace:
    """One core's trace pre-decoded to plain Python lists.

    Indexing a numpy array returns a numpy scalar whose conversion to a
    Python number dominates a per-access loop; one vectorized
    ``tolist`` per column turns every subsequent access into a plain
    list index. ``deltas`` carries the per-access core-clock advance
    (see :meth:`~repro.cpu.core.TraceCore.gap_deltas`) and
    ``bank_index`` the flat bank number of every access.
    """

    __slots__ = (
        "length", "gaps", "is_write", "channel", "row", "bank_index",
        "deltas",
    )

    def __init__(self, trace: ColumnarTrace, core: TraceCore, memory: MemorySystem):
        import numpy as np

        org = memory.config.organization
        self.length = len(trace)
        self.gaps = trace.gaps.tolist()
        self.is_write = trace.is_write.tolist()
        self.channel = trace.channel.tolist()
        self.row = trace.row.tolist()
        self.bank_index = org.bank_index(
            trace.channel.astype(np.int64), trace.rank, trace.bank
        ).tolist()
        self.deltas = core.gap_deltas(trace.gaps).tolist()


def decode_traces(
    cores: List[TraceCore], traces: List[ColumnarTrace], memory: MemorySystem
) -> List[_DecodedTrace]:
    """Decode every core's trace, reusing the workload plane's slot.

    A trace the plane served is decoded once per geometry, which is
    everything else :class:`_DecodedTrace` reads (the core's
    ``fetch_width`` and cycle time, the ranks and banks per channel),
    and kept in the plane's slot: the engines only read decoded traces,
    so every cell replaying the slot's workload shares them. Other
    traces are decoded on every call.
    """
    from repro.workloads import plane

    org = memory.config.organization
    return [
        plane.decoded(
            trace,
            (
                core.config.fetch_width, core.cycle_ns,
                org.ranks_per_channel, org.banks_per_rank,
            ),
            lambda trace=trace, core=core: _DecodedTrace(trace, core, memory),
        )
        for trace, core in zip(traces, cores)
    ]


def scalar_stretch(
    cores: List[TraceCore],
    decoded: List[_DecodedTrace],
    memory: MemorySystem,
    heap: list,
    positions: List[int],
) -> int:
    """Service accesses one heap pop at a time; returns how many.

    A min-heap of ``(core clock, core id)`` picks the earliest core;
    its next record advances the core by the precomputed clock delta
    and goes to the memory system at its flat bank index (reads block
    the core's ROB window on their completion time, writes are posted),
    then the core is re-inserted. Returns at the first refresh-window
    roll — so the batched engine can re-check fused eligibility there —
    or once every trace is consumed; ``heap`` and ``positions`` say
    where to resume.
    """
    boundary = memory._next_window_end
    read = memory.read
    write = memory.write
    heappop = heapq.heappop
    heappush = heapq.heappush
    serviced = 0
    while heap:
        _, core_id = heappop(heap)
        pos = positions[core_id]
        dec = decoded[core_id]
        if pos >= dec.length:
            continue
        core = cores[core_id]
        issue = core.advance(dec.gaps[pos], dec.deltas[pos])
        if dec.is_write[pos]:
            write(issue, dec.channel[pos], dec.bank_index[pos], dec.row[pos])
            core.issue_write()
        else:
            core.issue_read(
                read(issue, dec.channel[pos], dec.bank_index[pos], dec.row[pos])[1]
            )
        serviced += 1
        pos += 1
        positions[core_id] = pos
        if pos < dec.length:
            heappush(heap, (core.clock_ns, core_id))
        if memory._next_window_end != boundary:
            break
    return serviced


class Engine(abc.ABC):
    """Drives every core's access stream through the memory system.

    Engines own only the *interleaving schedule*; all simulated state
    lives in the cores, the banks, and the memory system, so engines are
    stateless and interchangeable per run.
    """

    #: CLI/registry name of the engine implementation.
    name: str = ""

    @abc.abstractmethod
    def drive(
        self,
        cores: List[TraceCore],
        traces: List[ColumnarTrace],
        memory: MemorySystem,
    ) -> None:
        """Consume every trace to exhaustion in global time order.

        ``cores`` and ``traces`` are parallel lists indexed by core id.
        On return every access of every trace has been serviced; the
        caller drains cores and finalizes the memory system.
        """
