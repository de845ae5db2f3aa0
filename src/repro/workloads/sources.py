"""Workload names and the one resolver that turns a name into a workload.

A workload is named by a string, and :func:`resolve_workload` turns the
name into a workload object the simulator drives through one uniform
hook::

    workload.arrays_for_core(core_id, params, organization)
        -> ColumnarTrace

The name grammar has two prefixes:

- ``synthetic:<name>`` or a plain ``<name>`` — ``gcc``, ``mix1`` and
  ``synthetic:gcc`` all resolve to the named
  :class:`~repro.workloads.suites.WorkloadSpec` of the 78-workload
  suite, generated per core by the
  :class:`~repro.workloads.synthetic.SyntheticTraceGenerator`.
- ``trace:<path>`` — file-backed replay: resolves to a
  :class:`TraceWorkload` that parses recorded USIMM traces with
  :func:`~repro.workloads.trace.load_trace_columns` and decodes them
  with the simulated organization's address mapper. The workload plane
  (:mod:`repro.workloads.plane`) keeps the decoded result for later
  cells, keyed by :meth:`TraceWorkload.store_fingerprint`. The path may
  be a single trace file (every core replays the same stream, rate-mode
  style) or a directory of per-core files as written by
  :func:`repro.sim.recorder.record_workload`.

Both kinds emit the same :class:`~repro.workloads.columnar.ColumnarTrace`
shape, so recorded and synthetic workloads run through the identical
simulator hot path — which is what makes record→replay bit-deterministic.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, ClassVar, List, Tuple

from repro.dram.address import AddressMapper
from repro.dram.config import DRAMOrganization
from repro.workloads.columnar import ColumnarTrace
from repro.workloads.suites import ALL_WORKLOADS, WorkloadSpec
from repro.workloads.trace import load_trace_columns

#: Filename patterns recognised as trace files inside a trace directory.
TRACE_FILE_GLOBS: Tuple[str, ...] = ("*.trace", "*.trace.gz", "*.usimm", "*.usimm.gz")


def resolve_synthetic_name(name: str) -> WorkloadSpec:
    """Look up a named workload of the built-in suite.

    Raises ``KeyError`` (with the unknown name) when no workload
    matches, mirroring :func:`repro.workloads.suites.profile_by_name`.
    """
    for spec in ALL_WORKLOADS:
        if spec.name == name:
            return spec
    raise KeyError(f"unknown workload {name!r}")


def _natural_key(path: Path) -> List[Any]:
    """Sort key ordering ``core2`` before ``core10``."""
    return [
        int(part) if part.isdigit() else part
        for part in re.split(r"(\d+)", path.name)
    ]


@dataclass(frozen=True)
class TraceWorkload:
    """A workload replayed from recorded USIMM trace files.

    Attributes:
        path: A trace file, or a directory of per-core trace files
            (``core0.trace`` ... as written by ``trace record``). With a
            directory, core ``i`` replays file ``i % len(files)`` in
            natural-sorted order; with a single file every core replays
            the same stream (rate mode).
    """

    path: str
    #: Suite label carried into results.
    suite: ClassVar[str] = "TRACE"

    @property
    def name(self) -> str:
        """The workload's name in results: ``trace:<path>``."""
        return f"trace:{self.path}"

    @property
    def is_mix(self) -> bool:
        """Trace directories with several per-core files act like mixes."""
        return len(self.core_files()) > 1

    def core_files(self) -> List[str]:
        """The trace file(s) backing this workload, in core order.

        Raises ``FileNotFoundError`` for a missing path and
        ``ValueError`` for a directory containing no recognisable trace
        files (see :data:`TRACE_FILE_GLOBS`).
        """
        root = Path(self.path)
        if root.is_dir():
            files = sorted(
                {f for pattern in TRACE_FILE_GLOBS for f in root.glob(pattern)},
                key=_natural_key,
            )
            if not files:
                raise ValueError(
                    f"trace directory {self.path!r} contains no trace files "
                    f"(looked for {', '.join(TRACE_FILE_GLOBS)})"
                )
            return [str(f) for f in files]
        if not root.exists():
            raise FileNotFoundError(f"trace path {self.path!r} does not exist")
        return [str(root)]

    def store_fingerprint(self) -> List[Tuple[str, int, int]]:
        """Content token for the result store: ``(basename, mtime_ns,
        size)`` per backing file, core order.

        Replaying the identical path after re-recording it must be a
        different cell as far as persisted results (see
        :mod:`repro.sim.store`) and the workload plane's slot are
        concerned.
        """
        out = []
        for file_path in self.core_files():
            stat = os.stat(file_path)
            out.append(
                (os.path.basename(file_path), stat.st_mtime_ns, stat.st_size)
            )
        return out

    def arrays_for_core(
        self, core_id: int, params: Any, organization: DRAMOrganization
    ) -> ColumnarTrace:
        """Columnar replay arrays for one core (the workload-source hook).

        The recorded byte addresses are decoded with ``organization``'s
        mapper, and the stream is truncated to
        ``params.requests_per_core`` when the recording is longer (a
        shorter recording replays in full).
        """
        files = self.core_files()
        gaps, is_write, addresses = load_trace_columns(
            files[core_id % len(files)]
        )
        arrays = ColumnarTrace.from_addresses(
            gaps, is_write, addresses, AddressMapper(organization)
        )
        return arrays.take(params.requests_per_core)


def resolve_workload(name: str) -> Any:
    """Resolve a workload name to the workload object it names.

    ``trace:<path>`` gives a :class:`TraceWorkload`; ``synthetic:<name>``
    and a plain name look up the synthetic suite (``KeyError`` when no
    workload matches). Any other prefix raises ``ValueError`` naming
    both prefixes.
    """
    prefix, sep, rest = name.partition(":")
    if not sep:
        return resolve_synthetic_name(name)
    if prefix == "synthetic":
        return resolve_synthetic_name(rest)
    if prefix == "trace":
        return TraceWorkload(path=rest)
    raise ValueError(
        f"unknown workload source prefix {prefix!r} in {name!r}; "
        "prefixes: 'synthetic', 'trace'"
    )
