"""Result records for performance simulations."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, List, Optional, Sequence

from repro.cpu.core import CoreResult

if TYPE_CHECKING:  # avoid a runtime cycle with repro.sim.simulator
    from repro.sim.simulator import SimulationParams


@dataclass
class SimulationResult:
    """Outcome of simulating one workload under one mitigation."""

    #: Evaluation kind of this record (see :mod:`repro.sim.evaluations`);
    #: heterogeneous :class:`~repro.sim.experiment.ResultSet`s dispatch
    #: serialization and analytics on it.
    kind: ClassVar[str] = "perf"

    workload: str
    suite: str
    mitigation: str
    trh: int
    swap_rate: float
    tracker: str
    cores: List[CoreResult] = field(default_factory=list)
    swaps: int = 0
    place_backs: int = 0
    pins: int = 0
    mitigation_busy_ns: float = 0.0
    max_row_activations: int = 0
    llc_pin_hits: int = 0
    # Full parameter record of the run (set by PerformanceSimulation);
    # the experiment layer uses it to pair results with their baselines.
    params: Optional["SimulationParams"] = None

    @property
    def sum_ipc(self) -> float:
        """Summed per-core IPC (the paper's performance metric)."""
        return sum(core.ipc for core in self.cores)

    @property
    def finish_time_ns(self) -> float:
        """Wall-clock finish of the slowest core (ns)."""
        return max((core.finish_time_ns for core in self.cores), default=0.0)

    @property
    def total_instructions(self) -> int:
        """Instructions retired across all cores."""
        return sum(core.instructions for core in self.cores)

    @property
    def total_memory_accesses(self) -> int:
        """Memory reads plus writes across all cores."""
        return sum(core.memory_reads + core.memory_writes for core in self.cores)

    def summary(self) -> str:
        """One-line progress summary (used by ``grid --verbose``)."""
        return (
            f"{self.workload:<14s} {self.mitigation:<13s} TRH={self.trh:<6d} "
            f"sumIPC={self.sum_ipc:7.3f} swaps={self.swaps:<6d} "
            f"maxACT={self.max_row_activations}"
        )


def normalized_performance(baseline: SimulationResult, candidate: SimulationResult) -> float:
    """Performance of ``candidate`` relative to ``baseline`` (<= 1 when the
    mitigation slows the system down)."""
    if baseline.sum_ipc <= 0:
        raise ValueError("baseline has zero IPC")
    return candidate.sum_ipc / baseline.sum_ipc


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (the paper's cross-workload aggregation)."""
    if not values:
        raise ValueError("no values")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def slowdown_percent(normalized: float) -> float:
    """Slowdown in percent from a normalized performance value."""
    return (1.0 - normalized) * 100.0

