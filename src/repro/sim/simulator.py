"""The end-to-end performance simulator (a thin driver over an engine).

Wires trace-driven cores, the memory system, and a mitigation together,
then hands the interleaving loop to a simulation *engine*
(:mod:`repro.sim.engine`): ``scalar`` is the reference schedule and
``auto`` the span-fused batched engine; both produce bit-identical
results. The paper runs 1 billion instructions per core through USIMM;
a pure-Python reproduction cannot, so the simulator supports *time scaling*: the refresh window and the Row
Hammer thresholds are divided by ``time_scale``, which preserves the
quantity the mitigation overhead depends on — swaps per window and the
fraction of bank time they steal — while shrinking wall-clock cost by the
same factor (see DESIGN.md's substitution table).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, List, Optional

from repro.controller.memory_system import MemorySystem
from repro.core.pin_buffer import PinBuffer
from repro.cpu.core import TraceCore
from repro.dram.commands import PagePolicy
from repro.dram.config import DRAMOrganization, DRAMTiming, SystemConfig
from repro.registry import MITIGATIONS
from repro.sim.engine import make_engine
from repro.sim.factory import make_mitigation_factory
from repro.sim.results import SimulationResult


@dataclass(frozen=True)
class SimulationParams:
    """Knobs of a performance simulation.

    Attributes:
        trh: Row Hammer threshold in *unscaled* (64 ms window) terms.
        swap_rate: ``TRH / TS``; ``None`` selects the mitigation default
            (6 for RRS/SRS, 3 for Scale-SRS).
        tracker: Tracker type (``misra-gries``, ``hydra``, ``exact``).
        num_cores: Cores to simulate (the paper uses 8; 4 keeps test and
            benchmark budgets reasonable and preserves relative results).
        requests_per_core: Trace length per core.
        time_scale: Refresh-window/threshold scaling factor (see module
            docstring). 1 = the paper's real 64 ms window.
        seed: Base RNG seed.
        policy: Row-buffer policy.
        rows_per_bank: Override to shrink banks (tests); ``None`` keeps
            the Table III 128K rows.
        engine: Simulation engine (``scalar`` or ``auto``; see
            :mod:`repro.sim.engine`). Engines are bit-identical —
            this knob trades wall-clock, never numbers. Defaults to
            ``scalar``, the reference engine.
    """

    trh: int = 1200
    swap_rate: Optional[float] = None
    tracker: str = "misra-gries"
    num_cores: int = 4
    requests_per_core: int = 60_000
    time_scale: int = 16
    seed: int = 2024
    policy: PagePolicy = PagePolicy.CLOSED
    rows_per_bank: Optional[int] = None
    engine: str = "scalar"

    def scaled_timing(self) -> DRAMTiming:
        """Timing with the window *and* the mitigation latencies divided by
        ``time_scale``.

        Scaling all three together preserves the quantity slowdown is made
        of: swaps-per-window stays constant (thresholds scale with the
        window) and each swap steals ``t_swap / window`` of bank time
        (both scale). Demand-access timing (tRC, tRCD, ...) is left at
        real values so baseline IPC is undistorted.
        """
        timing = DRAMTiming()
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if self.time_scale == 1:
            return timing
        scale = self.time_scale
        return replace(
            timing,
            refresh_window=timing.refresh_window / scale,
            t_swap=timing.t_swap / scale,
            t_reswap=timing.t_reswap / scale,
            t_counter=timing.t_counter / scale,
        )

    @property
    def scaled_trh(self) -> int:
        """The Row Hammer threshold after time scaling (floor of 8)."""
        scaled = int(round(self.trh / self.time_scale))
        return max(8, scaled)

    def make_organization(self) -> DRAMOrganization:
        """The DRAM organization these parameters simulate.

        Shared by the simulator and the trace recorder so a recording
        made under some parameters decodes identically when replayed
        under the same parameters.
        """
        organization = DRAMOrganization()
        if self.rows_per_bank is not None:
            organization = replace(organization, rows_per_bank=self.rows_per_bank)
        return organization


class PerformanceSimulation:
    """Simulates one workload under one mitigation.

    Args:
        workload: Any workload-source object — a synthetic
            :class:`~repro.workloads.suites.WorkloadSpec`, a
            :class:`~repro.workloads.sources.TraceWorkload`, or anything
            else exposing ``name``, ``suite``, and
            ``arrays_for_core(core_id, params, organization)``.
        mitigation: A registered mitigation name.
        params: Simulation knobs (defaults to :class:`SimulationParams`).
    """

    def __init__(
        self,
        workload: Any,
        mitigation: str,
        params: Optional[SimulationParams] = None,
    ):
        self.workload = workload
        self.mitigation_name = mitigation
        self.params = params or SimulationParams()
        params = self.params

        timing = params.scaled_timing()
        organization = params.make_organization()
        self.config = SystemConfig(
            timing=timing, organization=organization, num_cores=params.num_cores
        )
        swap_rate = params.swap_rate
        if swap_rate is None:
            swap_rate = MITIGATIONS.get(mitigation).default_swap_rate
        self.swap_rate = swap_rate or 0.0
        self.pin_buffer = PinBuffer()
        factory = make_mitigation_factory(
            mitigation,
            trh=params.scaled_trh,
            timing=timing,
            swap_rate=swap_rate,
            tracker=params.tracker,
            seed=params.seed,
            pin_buffer=self.pin_buffer,
        )
        self.memory = MemorySystem(self.config, factory, policy=params.policy)

    def run(self, engine: Optional[Any] = None) -> SimulationResult:
        """Drive every core's trace through the memory system.

        Per-core access streams come from the workload source's
        ``arrays_for_core`` hook — synthetic generation and recorded
        replay feed the identical engine. The interleaving itself is the
        engine's job (:mod:`repro.sim.engine`); this driver builds the
        cores, delegates, and assembles the result.

        Args:
            engine: Optional pre-built :class:`~repro.sim.engine.Engine`
                instance overriding ``params.engine`` (tests use it to
                inspect an engine's span counters after the run).
        """
        from repro.workloads import plane

        params = self.params
        traces = list(
            plane.traces_for(self.workload, params, self.config.organization)
        )
        cores: List[TraceCore] = [
            TraceCore(core_id, self.config)
            for core_id in range(params.num_cores)
        ]

        memory = self.memory
        if engine is None:
            engine = make_engine(params.engine)
        engine.drive(cores, traces, memory)

        finish = 0.0
        for core in cores:
            finish = max(finish, core.drain())
        residual_block = memory.finalize(finish)
        if residual_block > 0:
            # The final partial window's unravel burst would freeze the
            # machine; charge it to every core so partial-window runs do
            # not flatter the no-unswap ablation.
            for core in cores:
                core.clock_ns += residual_block

        result = SimulationResult(
            workload=self.workload.name,
            suite=self.workload.suite,
            mitigation=self.mitigation_name,
            trh=params.trh,
            swap_rate=self.swap_rate,
            tracker=params.tracker,
            cores=[core.result() for core in cores],
            swaps=memory.total_swaps(),
            place_backs=sum(m.stats.place_backs for m in memory.mitigations),
            pins=sum(m.stats.pins for m in memory.mitigations),
            mitigation_busy_ns=memory.total_mitigation_busy_ns(),
            max_row_activations=memory.max_row_activations(),
            llc_pin_hits=memory.llc_hits_from_pins,
            params=params,
        )
        return result
