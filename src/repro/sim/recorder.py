"""Recording per-core access streams to USIMM trace files.

The recorder dumps the exact per-core streams a
:class:`~repro.sim.simulator.PerformanceSimulation` would consume for a
given ``(workload, params)`` pair — it calls the same
``arrays_for_core`` workload-source hook with the same organization and
seeds, then encodes the coordinates back to physical byte addresses with
the same address mapper. Replaying the recording with identical
parameters (``trace:<out_dir>``) therefore reproduces the original run's
swap and slowdown numbers bit-for-bit; the determinism test in
``tests/test_workload_sources.py`` pins this property.

Recordings are plain text (one ``<gap> <R|W> <hex addr>`` line per
access, ``# key=value`` header comments) so they diff, grep, and
compress well; pass ``compress=True`` for gzip output. The lines are
written by :func:`repro.workloads.trace.write_trace_columns`, the
format's one writer.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, List, Optional

from repro.dram.address import AddressMapper
from repro.sim.simulator import SimulationParams
from repro.workloads.trace import open_trace, write_trace_columns


def trace_file_name(core_id: int, compress: bool = False) -> str:
    """Canonical per-core trace file name (``core3.trace[.gz]``)."""
    return f"core{core_id}.trace" + (".gz" if compress else "")


def record_workload(
    workload: Any,
    params: Optional[SimulationParams] = None,
    out_dir: str = "recorded-trace",
    compress: bool = False,
) -> List[str]:
    """Record a workload's per-core access streams to ``out_dir``.

    Args:
        workload: Any workload-source object (synthetic spec, trace
            workload, ...) exposing ``arrays_for_core``.
        params: Simulation parameters; ``num_cores``,
            ``requests_per_core``, ``seed``, and the bank geometry
            determine the recorded streams exactly as they determine a
            simulation's.
        out_dir: Directory to create; one ``core<i>.trace[.gz]`` file
            per core is written into it.
        compress: Write gzip-compressed files.

    Returns:
        The written file paths, in core order — a directory replayable
        as ``trace:<out_dir>``.
    """
    params = params or SimulationParams()
    organization = params.make_organization()
    mapper = AddressMapper(organization)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    paths: List[str] = []
    for core_id in range(params.num_cores):
        arrays = workload.arrays_for_core(core_id, params, organization)
        path = out / trace_file_name(core_id, compress)
        header = [
            f"workload={getattr(workload, 'name', '?')} core={core_id}",
            f"seed={params.seed} requests={len(arrays)} "
            f"rows_per_bank={organization.rows_per_bank}",
        ]
        with open_trace(str(path), "wt") as stream:
            write_trace_columns(
                stream,
                arrays.gaps,
                arrays.is_write,
                arrays.encode_addresses(mapper),
                header=header,
            )
        paths.append(str(path))
    return paths
