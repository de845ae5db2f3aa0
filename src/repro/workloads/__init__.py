"""Workloads: trace format, synthetic profiles, suites, and sources.

The paper drives USIMM with Pin-captured traces of SPEC2006, SPEC2017,
GAP, PARSEC, BIOBENCH and COMMERCIAL benchmarks (plus GUPS and six
mixes — 78 workloads in total). Those traces are proprietary-toolchain
artifacts; this package substitutes a synthetic trace generator whose
per-benchmark *row-activation statistics* (memory intensity, hot-row
counts and rates, footprint, write share) are modelled per named
benchmark, which is the property row-swap overheads actually depend on.
See DESIGN.md's substitution table.

Recorded traces are first-class too: any workload can be dumped to the
USIMM on-disk format (``python -m repro trace record``) and replayed
with a ``trace:<path>`` workload string. Both the synthetic generator
and the trace loader emit the same columnar representation
(:class:`~repro.workloads.columnar.ColumnarTrace`), so the simulator hot
path is identical for generated and recorded streams — see DESIGN.md,
"Workload sources".
"""

from repro.workloads.trace import TraceParseError, load_trace_columns
from repro.workloads.columnar import ColumnarTrace
from repro.workloads.synthetic import BenchmarkProfile, SyntheticTraceGenerator
from repro.workloads.sources import (
    TraceWorkload,
    resolve_workload_string,
)
from repro.workloads.suites import (
    ALL_WORKLOADS,
    SUITES,
    WorkloadSpec,
    profile_by_name,
    workloads_in_suite,
)

__all__ = [
    "TraceParseError",
    "ColumnarTrace",
    "load_trace_columns",
    "BenchmarkProfile",
    "SyntheticTraceGenerator",
    "TraceWorkload",
    "resolve_workload_string",
    "ALL_WORKLOADS",
    "SUITES",
    "WorkloadSpec",
    "profile_by_name",
    "workloads_in_suite",
]
