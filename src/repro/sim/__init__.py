"""End-to-end performance simulation: wiring, experiments, and sweeps.

The modern entry point is the declarative Experiment API::

    from repro.sim import ExperimentSpec, SimulationParams, run_grid

    spec = ExperimentSpec(
        workloads=["gcc", "lbm"],
        mitigations=["rrs", "scale-srs"],
        grid={"trh": [4800, 1200]},
    )
    table = run_grid(spec).filter(trh=1200).normalized_table()

Workloads may be synthetic names (``"gcc"``) or recorded traces
(``"trace:/path/to/run"``); :func:`record_workload` dumps any workload's
per-core streams to replayable USIMM files.

Experiments are not limited to performance: ``ExperimentSpec(kind=...)``
runs the security and analytical evaluation legs through the same
engine (:mod:`repro.sim.evaluations`), and ``run_grid(store=...)``
persists completed cells in a content-addressed
:class:`~repro.sim.store.ResultStore` for resumable, shardable grids.
Execution backends (:mod:`repro.sim.pool`) scale the same grids from a
single process to a multi-host ``ssh`` fan-out without changing specs.
"""

from repro.sim.engine import (
    ENGINE_NAMES,
    BatchedEngine,
    Engine,
    ScalarEngine,
    make_engine,
    resolve_engine_name,
)
from repro.sim.experiment import (
    ExperimentCell,
    ExperimentSpec,
    ResultSet,
    RunStats,
    baseline_view,
    plan_cells,
    resolve_workload,
    run_grid,
)
from repro.sim.pool import (
    HostStats,
    Pool,
    PoolTask,
    ProcessPool,
    SerialPool,
    SshPool,
    available_cpu_count,
    parse_hosts,
)
from repro.sim.store import (
    MergeStats,
    ResultStore,
    cell_digest,
    parse_shard,
    shard_of,
)
from repro.sim.evaluations import (
    HammerParams,
    HammerResult,
    ModelParams,
    ModelResult,
    PowerParams,
    PowerResult,
    SecurityParams,
    SecurityResult,
    StorageParams,
    StorageResult,
)
from repro.sim.factory import (
    MITIGATION_NAMES,
    TRACKER_NAMES,
    make_mitigation_factory,
    make_tracker,
)
from repro.sim.recorder import record_workload, write_columnar_trace
from repro.sim.results import SimulationResult, normalized_performance
from repro.sim.simulator import PerformanceSimulation, SimulationParams

__all__ = [
    "ENGINE_NAMES",
    "Engine",
    "BatchedEngine",
    "ScalarEngine",
    "make_engine",
    "resolve_engine_name",
    "ExperimentCell",
    "ExperimentSpec",
    "ResultSet",
    "RunStats",
    "baseline_view",
    "plan_cells",
    "resolve_workload",
    "run_grid",
    "Pool",
    "PoolTask",
    "HostStats",
    "SerialPool",
    "ProcessPool",
    "SshPool",
    "available_cpu_count",
    "parse_hosts",
    "MergeStats",
    "ResultStore",
    "cell_digest",
    "parse_shard",
    "shard_of",
    "SecurityParams",
    "SecurityResult",
    "StorageParams",
    "StorageResult",
    "PowerParams",
    "PowerResult",
    "HammerParams",
    "HammerResult",
    "ModelParams",
    "ModelResult",
    "make_mitigation_factory",
    "make_tracker",
    "MITIGATION_NAMES",
    "TRACKER_NAMES",
    "record_workload",
    "write_columnar_trace",
    "SimulationResult",
    "normalized_performance",
    "PerformanceSimulation",
    "SimulationParams",
]
