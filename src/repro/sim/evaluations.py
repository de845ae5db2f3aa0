"""The built-in evaluation kinds of the experiment engine.

The paper's evaluation has three legs — performance simulation
(Figures 12/14/15), Monte-Carlo/analytical security analysis (Figure 6's
time-to-break), and closed-form models (the Table IV storage and Table V
power models among them) — plus the motivation and comparison numbers
around them (Table I, Figures 1a and 13, Sections II-E, III-C, V-C, VIII
and IX). This module registers each as an *evaluation kind* with
:func:`repro.registry.register_evaluation`, so all of them run through
the same engine (:mod:`repro.sim.experiment`): declarative grids,
process-pool parallelism, deterministic per-cell seeding, JSON/CSV
export, and the content-addressed result store
(:mod:`repro.sim.store`).

The four kinds:

- ``perf`` — today's performance-simulator path, unchanged semantics: a
  cell is (workload, mitigation, :class:`SimulationParams`) and runs
  :class:`~repro.sim.simulator.PerformanceSimulation`.
- ``security`` — Juggernaut time-to-break at one design point: a cell
  is (design in ``rrs``/``srs``, :class:`SecurityParams`), gridable over
  swap rate, TRH, and the attacker's round budget. The analytical model
  (Equations 1-10) always runs; ``iterations > 0`` adds the Figure 6
  Monte-Carlo validation with a per-cell derived seed.
- ``hammer`` — the Section II-E micro-rig: one access pattern
  (double-sided or half-double) played through one defense
  (``trr``/``para``/``scale-srs``) on a bank with a disturbance model
  (:func:`~repro.attacks.harness.hammer_pattern`).
- ``model`` — the paper's closed-form and one-off numbers (threshold
  history, the random-guess and outlier models, the multi-bank and
  open-page attacks, LLC pinning, the related-work comparators, the
  Table IV storage and Table V power models): one cell per
  :data:`MODELS` entry, its record a mapping of JSON values.

Every runner is a module-level function of the cell alone (picklable,
deterministic), and every result record is a flat dataclass carrying
``workload``/``mitigation``/``trh`` plus its full parameter record, so
heterogeneous :class:`~repro.sim.experiment.ResultSet`s filter, merge,
and export uniformly. The ``hammer`` and ``model`` runners import their
rigs when a cell runs, so importing this module stays cheap.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, ClassVar, Dict, List, Mapping, Optional

from repro.analysis.storage import StorageModel
from repro.attacks.analytical import (
    AttackParameters,
    JuggernautModel,
    RoundOutcome,
    srs_parameters,
)
from repro.attacks.montecarlo import (
    MonteCarloJuggernaut,
    derive_seed,
    probe_size,
)
from repro.registry import register_evaluation
from repro.sim.experiment import (
    ExperimentCell,
    _params_from_dict,
    _params_to_dict,
    resolve_workload,
    result_from_dict,
    result_to_dict,
)
from repro.sim.results import SimulationResult
from repro.sim.simulator import PerformanceSimulation, SimulationParams

# ----------------------------------------------------------------------
# perf — the performance simulator (the engine's original kind)


def _perf_cell_cost(cell: ExperimentCell) -> float:
    """Cost of one perf cell: one unit per simulated memory request,
    x3 where the batched engine cannot fuse (the scalar engine, or a
    Hydra-tracked cell) and x1.5 for mitigation cells (swaps add work
    over the baseline). A real cell costs thousands of units, so a
    grid of them pools once a cell reaches the pool's break-even
    (:data:`~repro.sim.pool.SERIAL_BREAK_EVEN`)."""
    params = cell.params
    cost = float((params.requests_per_core or 0) * (params.num_cores or 1))
    if params.engine == "scalar" or params.tracker == "hydra":
        cost *= 3.0
    if cell.mitigation != "baseline":
        cost *= 1.5
    return cost


@register_evaluation(
    "perf",
    params_cls=SimulationParams,
    result_cls=SimulationResult,
    subjects=None,  # validated against the mitigation registry
    scenario="-",
    # v2: AQUA logs Hydra's counter traffic, which moves its
    # `mitigation_busy_ns` under `--tracker hydra`.
    schema_version=2,
    params_to_dict=_params_to_dict,
    params_from_dict=_params_from_dict,
    # Identity ignores the engine: engines are bit-identical by contract
    # (like baseline dedup), so a store filled under one engine serves
    # resumes under the other, and merge() dedups across engines.
    key_params_to_dict=lambda params: _params_to_dict(
        replace(params, engine="scalar")
    ),
    result_to_dict=result_to_dict,
    result_from_dict=result_from_dict,
    cell_cost=_perf_cell_cost,
)
def run_perf_cell(cell: ExperimentCell) -> SimulationResult:
    """Run one performance cell through the simulator driver."""
    return PerformanceSimulation(
        resolve_workload(cell.workload), cell.mitigation, cell.params
    ).run()


# ----------------------------------------------------------------------
# security — Juggernaut time-to-break (Figure 6)


@dataclass(frozen=True)
class SecurityParams:
    """Knobs of one security (time-to-break) cell.

    Attributes:
        trh: Row Hammer threshold.
        swap_rate: ``TRH / TS``; the swap threshold is derived as
            ``max(2, int(trh / swap_rate))`` (the CLI's historical
            truncation, kept for bit-compatibility with the old
            single-shot commands).
        rounds: The attacker's biasing-round budget ``N``; ``None``
            scans for the optimal budget (the paper's Section III-C
            strategy) with granularity ``step``.
        step: Scan granularity for the optimal-``N`` search (RRS).
        srs_step: SRS scan granularity; ``None`` uses ``10 * step``
            (the SRS landscape is flat — phase 1 buys nothing, so the
            optimum is always ``N = 0`` and the scan only confirms it).
            The ``attack`` CLI shim passes ``max(100, step)`` to keep
            its historical numbers.
        iterations: Monte-Carlo attack samples (Figure 6's 'Experiment'
            series); ``0`` runs the analytical model only.
        probe_windows: Monte-Carlo windows probed to estimate the
            per-window success probability (see
            :class:`~repro.attacks.montecarlo.MonteCarloJuggernaut`).
        seed: Base seed folded into the per-cell derived Monte-Carlo
            stream; replicated cells increment it.
        rows_per_bank: ``R`` in Equation 8.
        act_gap: Effective attacker activation gap (ns); ``None`` means
            ``t_rc`` (closed page), larger models open-page throttling.
    """

    trh: int = 4800
    swap_rate: float = 6.0
    rounds: Optional[int] = None
    step: int = 20
    srs_step: Optional[int] = None
    iterations: int = 0
    probe_windows: int = 200_000
    seed: int = 2024
    rows_per_bank: int = 128 * 1024
    act_gap: Optional[float] = None

    def attack_parameters(self, design: str) -> AttackParameters:
        """The :class:`AttackParameters` this cell evaluates for ``design``
        (``srs`` zeroes the latent activations per round, Equation 11)."""
        base = AttackParameters(
            trh=self.trh,
            ts=max(2, int(self.trh / self.swap_rate)),
            rows_per_bank=self.rows_per_bank,
            act_gap=self.act_gap,
        )
        if design == "srs":
            return srs_parameters(base)
        return base


@dataclass
class SecurityResult:
    """Time-to-break of one design at one security design point."""

    #: Evaluation kind of this record.
    kind: ClassVar[str] = "security"

    workload: str
    mitigation: str  # the defended design: "rrs" or "srs"
    trh: int
    swap_rate: float
    ts: int
    rounds: int  # the N actually evaluated (optimal when params.rounds is None)
    required_guesses: int
    guesses_per_window: float
    success_probability: float
    expected_iterations: float
    days: float  # analytical time-to-break (Equation 10)
    feasible: bool
    iterations: int = 0  # Monte-Carlo samples (0 = analytical only)
    mc_window_success: Optional[float] = None
    mc_days_mean: Optional[float] = None
    mc_days_median: Optional[float] = None
    mc_days_p05: Optional[float] = None
    mc_days_p95: Optional[float] = None
    mc_seed: Optional[int] = None
    params: Optional[SecurityParams] = None


def _security_csv_row(result: SecurityResult) -> List[object]:
    return [
        result.workload, result.mitigation, result.trh, result.swap_rate,
        result.ts, result.rounds, result.required_guesses,
        f"{result.guesses_per_window:.6g}",
        f"{result.success_probability:.6g}", f"{result.days:.6g}",
        result.feasible, result.iterations,
        "" if result.mc_days_mean is None else f"{result.mc_days_mean:.6g}",
        "" if result.mc_days_median is None else f"{result.mc_days_median:.6g}",
        "" if result.mc_days_p05 is None else f"{result.mc_days_p05:.6g}",
        "" if result.mc_days_p95 is None else f"{result.mc_days_p95:.6g}",
        "" if result.mc_seed is None else result.mc_seed,
    ]


#: Cost units (microseconds) of one Monte-Carlo probe window — its
#: two binomial draws — and of one sampled attack time.
PROBE_WINDOW_COST = 0.06
ATTACK_SAMPLE_COST = 0.04


def _security_outcome(
    params: "SecurityParams", design: str, model: JuggernautModel
) -> RoundOutcome:
    """The analytical outcome a security cell evaluates: ``params.rounds``
    as given, else the optimal-``N`` scan at the design's granularity."""
    if params.rounds is not None:
        return model.evaluate(params.rounds)
    if design == "rrs":
        step = params.step
    elif params.srs_step is not None:
        step = params.srs_step
    else:
        step = params.step * 10
    return model.best(step=max(1, step))


def _security_cell_cost(cell: ExperimentCell) -> float:
    """Cost of one security cell (scheduling hint).

    Analytical evaluation is tens of microseconds at a fixed round
    budget and a few hundred units when the optimal-``N`` scan runs.
    A Monte-Carlo cell adds its probe — the windows
    :func:`~repro.attacks.montecarlo.probe_size` picks for the cell's
    outcome, up to 5e7 of them (seconds) — and its attack-time samples.
    """
    params: SecurityParams = cell.params
    cost = 50.0
    if params.rounds is None:
        cost += 200.0
    if params.iterations > 0:
        model = JuggernautModel(params.attack_parameters(cell.mitigation))
        outcome = _security_outcome(params, cell.mitigation, model)
        windows = probe_size(outcome, params.probe_windows)
        cost += PROBE_WINDOW_COST * windows
        cost += ATTACK_SAMPLE_COST * params.iterations
    return cost


@register_evaluation(
    "security",
    params_cls=SecurityParams,
    result_cls=SecurityResult,
    subjects=("rrs", "srs"),
    scenario="juggernaut",
    schema_version=1,
    cell_cost=_security_cell_cost,
    csv_header=(
        "workload", "mitigation", "trh", "swap_rate", "ts", "rounds",
        "required_guesses", "guesses_per_window", "success_probability",
        "days", "feasible", "iterations", "mc_days_mean", "mc_days_median",
        "mc_days_p05", "mc_days_p95", "mc_seed",
    ),
    csv_row=_security_csv_row,
)
def run_security_cell(cell: ExperimentCell) -> SecurityResult:
    """Evaluate Juggernaut against one design at one parameter point.

    The Monte-Carlo stream (when ``iterations > 0``) is seeded from a
    SHA-256 digest of the attack parameters, the design, the cell's base
    seed, and the chosen round budget — matching the perf path's
    everything-derives-from-the-cell determinism, so parallel cells are
    independent and any cell reruns bit-identically in isolation.
    """
    params: SecurityParams = cell.params
    design = cell.mitigation
    attack = params.attack_parameters(design)
    model = JuggernautModel(attack)
    outcome = _security_outcome(params, design, model)
    result = SecurityResult(
        workload=cell.workload,
        mitigation=design,
        trh=params.trh,
        swap_rate=params.swap_rate,
        ts=attack.ts,
        rounds=outcome.rounds,
        required_guesses=outcome.required_guesses,
        guesses_per_window=outcome.guesses_per_window,
        success_probability=outcome.success_probability,
        expected_iterations=outcome.expected_iterations,
        days=outcome.time_to_break_days,
        feasible=outcome.feasible,
        iterations=params.iterations,
        params=params,
    )
    if params.iterations > 0:
        seed = derive_seed(
            attack, salt=f"{design}|{params.seed}|{outcome.rounds}"
        )
        mc = MonteCarloJuggernaut(attack, seed=seed).run(
            outcome.rounds,
            iterations=params.iterations,
            probe_windows=params.probe_windows,
        )
        result.mc_window_success = mc.window_success_probability
        result.mc_days_mean = mc.mean_time_to_break_days
        result.mc_days_median = mc.median_time_to_break_days
        result.mc_days_p05 = mc.p05_days
        result.mc_days_p95 = mc.p95_days
        result.mc_seed = seed
    return result


# ----------------------------------------------------------------------
# hammer — access patterns against a defended bank (Section II-E)

#: Rows of the hammer rig's bank and disturbance model.
HAMMER_ROWS = 4096
#: Disturbance one activation adds at distance 1 and 2 (half-double
#: lives on the faint distance-2 coupling).
HAMMER_DISTANCE_FACTORS = (1.0, 0.002)
#: Activations after which TRR refreshes an aggressor's neighbours.
TRR_TRACKER_THRESHOLD = 100


@dataclass(frozen=True)
class HammerParams:
    """Knobs of one hammer cell.

    Attributes:
        pattern: ``double-sided`` (alternate ``row - 1``/``row + 1``) or
            ``half-double`` (hammer ``row``, sparsely touching
            ``row + 1``).
        hammers: Pattern length in activations.
        radius: Victim-refresh radius of ``trr``/``para``; Scale-SRS
            ignores it.
        trh: Disturbance threshold of the bank; PARA's refresh
            probability and Scale-SRS's tracker (``trh // 3``) derive
            from it.
        row: The pattern's anchor row: the double-sided victim, the
            half-double far aggressor.
        para_seed: Seed of PARA's refresh coin.
        swap_seed: Seed of Scale-SRS's swap destinations.
    """

    pattern: str = "double-sided"
    hammers: int = 2400
    radius: int = 1
    trh: int = 2000
    row: int = 100
    para_seed: int = 5
    swap_seed: int = 7

    def hammer_rows(self):
        """The pattern's rows in hammer order."""
        from repro.attacks.patterns import double_sided, half_double

        patterns = {"double-sided": double_sided, "half-double": half_double}
        if self.pattern not in patterns:
            raise ValueError(
                f"unknown hammer pattern {self.pattern!r}; "
                f"options: {tuple(patterns)}"
            )
        return patterns[self.pattern](self.row, self.hammers)


@dataclass
class HammerResult:
    """One pattern against one defense: the fields of
    :class:`~repro.attacks.harness.HammerOutcome`."""

    #: Evaluation kind of this record.
    kind: ClassVar[str] = "hammer"

    workload: str
    mitigation: str  # the defense: "trr", "para" or "scale-srs"
    trh: int
    activations: int
    flipped_rows: List[int]
    hottest_row: int
    hottest_disturbance: float
    victim_refreshes: int
    duration_ns: float
    params: Optional[HammerParams] = None

    @property
    def any_flip(self) -> bool:
        """Whether any victim row flipped."""
        return bool(self.flipped_rows)


def _half_double_rig(defense: str, params: HammerParams):
    """One defense wired to a fresh bank and disturbance model."""
    from repro.core.scale_srs import ScaleSecureRowSwap
    from repro.core.vfm import PARA, TargetedRowRefresh
    from repro.dram.bank import Bank
    from repro.dram.config import DRAMTiming
    from repro.dram.disturbance import DisturbanceModel
    from repro.trackers.base import ExactTracker

    timing = DRAMTiming(refresh_window=1e12)
    bank = Bank(HAMMER_ROWS, timing)
    disturbance = DisturbanceModel(
        HAMMER_ROWS,
        params.trh,
        refresh_window=1e12,
        distance_factors=HAMMER_DISTANCE_FACTORS,
    )
    if defense == "trr":
        engine = TargetedRowRefresh(
            bank,
            disturbance,
            ExactTracker(TRR_TRACKER_THRESHOLD),
            protected_radius=params.radius,
        )
    elif defense == "para":
        engine = PARA(
            bank,
            disturbance,
            trh=params.trh,
            rng=random.Random(params.para_seed),
            protected_radius=params.radius,
        )
    else:
        engine = ScaleSecureRowSwap(
            bank, ExactTracker(params.trh // 3), random.Random(params.swap_seed)
        )
    return engine, disturbance


@register_evaluation(
    "hammer",
    params_cls=HammerParams,
    result_cls=HammerResult,
    subjects=("trr", "para", "scale-srs"),
    scenario="hammer-rig",
    schema_version=1,
    # One unit per pattern activation: a 300k-activation half-double
    # cell is well above the pool's break-even and gets a worker.
    cell_cost=lambda cell: float(cell.params.hammers),
)
def run_hammer_cell(cell: ExperimentCell) -> HammerResult:
    """Play one pattern through one defense on a fresh rig.

    ``hammer_pattern`` is looked up on its module at call time, so
    instrumentation that rebinds it sees every cell.
    """
    from repro.attacks import harness

    params: HammerParams = cell.params
    engine, disturbance = _half_double_rig(cell.mitigation, params)
    outcome = harness.hammer_pattern(engine, disturbance, params.hammer_rows())
    return HammerResult(
        workload=cell.workload,
        mitigation=cell.mitigation,
        trh=params.trh,
        params=params,
        **asdict(outcome),
    )


# ----------------------------------------------------------------------
# model — the paper's one-off numbers

#: Figure 1a's swap-rate axis and threshold series.
FIG01A_SWAP_RATES = (3, 4, 5, 6, 7, 8)
FIG01A_TRH_VALUES = (1200, 2400, 4800)
#: Figure 13's swap-rate axis (TRH=4800).
FIG13_SWAP_RATES = (3, 4, 5, 6)
#: The Table IV/V threshold series.
TABLE_TRH_VALUES = (4800, 2400, 1200)
#: Section III-C's banks-hammered axis (TRH=4800, swap rate 6).
MULTI_BANK_COUNTS = (1, 2, 4, 8, 16)


def _trh_history() -> Dict[str, Any]:
    """Table I: demonstrated thresholds and the DDR3-to-LPDDR4 drop."""
    from repro.analysis.thresholds import TRH_HISTORY, scaling_factor

    return {"history": dict(TRH_HISTORY), "scaling": scaling_factor()}


def _random_guess() -> Dict[str, Any]:
    """Figure 1a: random-guess attack days per TRH, across swap rates."""
    from repro.attacks.birthday import random_guess_time_to_break_days

    return {
        "series": {
            trh: [
                random_guess_time_to_break_days(trh, rate)
                for rate in FIG01A_SWAP_RATES
            ]
            for trh in FIG01A_TRH_VALUES
        }
    }


def _outliers() -> Dict[str, Any]:
    """Figure 13: outlier-row rarity sweeps plus the paper's anchors."""
    from repro.attacks.outliers import OutlierModel

    base = OutlierModel(trh=4800)
    rate3 = OutlierModel(trh=4800, swap_rate=3)
    return {
        "sweep_3rows": base.sweep_swap_rates(
            list(FIG13_SWAP_RATES), num_rows=3
        ),
        "sweep_4rows": base.sweep_swap_rates(
            list(FIG13_SWAP_RATES), num_rows=4
        ),
        "anchors": {
            "3 rows @ rate 3 (days)": rate3.time_to_appear_days(3),
            "4 rows @ rate 3 (years)": rate3.time_to_appear_days(4) / 365,
        },
    }


def _multi_bank() -> Dict[str, Any]:
    """Section III-C: Juggernaut days vs banks hammered."""
    from repro.attacks.juggernaut import multi_bank_time_to_break_days

    return {
        "days": {
            banks: multi_bank_time_to_break_days(4800, 6, banks)
            for banks in MULTI_BANK_COUNTS
        }
    }


def _open_page() -> Dict[str, Any]:
    """Section VIII: Juggernaut under open-page policy and DDR5."""
    from repro.attacks.juggernaut import open_page_time_to_break_days

    closed = JuggernautModel(AttackParameters(trh=4800, ts=800)).best(step=10)
    results = {
        "closed-page TRH=4800 rate 6 (days)": closed.time_to_break_days,
        "open-page TRH=4800 rate 6 (days)": open_page_time_to_break_days(
            4800, 6
        ),
        "open-page TRH=3300 rate 10 (days)": open_page_time_to_break_days(
            3300, 10
        ),
        "open-page TRH=1200 rate 6 (days)": open_page_time_to_break_days(
            1200, 6
        ),
    }
    ddr5 = {}
    for rate in (6, 8, 10):
        model = JuggernautModel(
            AttackParameters(
                trh=3100,
                ts=max(2, 3100 // rate),
                refresh_window=32_000_000.0,
                refreshes_per_window=4096,
            )
        )
        ddr5[rate] = model.best(step=10).time_to_break_days
    return {"results": results, "ddr5": ddr5}


def llc_pin_rig():
    """Section V-C's worst case, live: 3 rows pinned in each of 11 banks
    on 2 channels of the default system's LLC.

    Returns ``(system config, pin buffer, LLC, lines installed)``.
    """
    from repro.core.pin_buffer import PinBuffer
    from repro.cpu.cache import SetAssociativeCache
    from repro.dram.config import SystemConfig

    system = SystemConfig()
    buffer = PinBuffer(num_entries=66, llc_ways=system.llc_ways)
    cache = SetAssociativeCache.from_config(system, pin_buffer=buffer)
    installed = 0
    for channel in range(2):
        for bank in range(11):
            for row in range(3):
                buffer.pin((channel, 0, bank), row)
                installed += cache.pin_row(
                    (channel, 0, bank),
                    row,
                    row_base_address=(channel * 11 + bank) * (1 << 20)
                    + row * 8192,
                )
    return system, buffer, cache, installed


def _llc_pinning() -> Dict[str, Any]:
    """Section V-C: pin-buffer size and the LLC share of pinned rows."""
    from repro.attacks.outliers import OutlierModel

    system, buffer, _, installed = llc_pin_rig()
    return {
        "llc_size_bytes": system.llc_size_bytes,
        "pin_entries": buffer.num_entries,
        "pin_entry_bits": buffer.entry_bits,
        "pin_buffer_bytes": buffer.storage_bits / 8,
        "pinned_rows": len(buffer),
        "installed": installed,
        "single_bank_bytes": 3 * 8 * 1024 * 2,
        "multi_bank_bytes": buffer.llc_bytes_reserved(),
        "rarity_days": OutlierModel(
            trh=4800, swap_rate=3
        ).time_to_appear_days(3),
    }


def _comparators() -> Dict[str, Any]:
    """Sections VIII-4 and IX: BlockHammer, AQUA, and the direction-bit
    RIT, measured."""
    from repro.core.aqua import AquaQuarantine
    from repro.core.blockhammer import (
        BlockHammerThrottle,
        BloomParameters,
        dos_false_positive_delay,
    )
    from repro.core.scale_srs import ScaleSecureRowSwap
    from repro.dram.bank import Bank
    from repro.dram.config import DRAMTiming
    from repro.trackers.base import ExactTracker

    out: Dict[str, Any] = {}
    bank = Bank(128 * 1024, DRAMTiming())
    throttle = BlockHammerThrottle(bank, trh=4800)
    out["throttle_delay_us"] = throttle.throttle_delay_ns() / 1000.0
    dos_bank = Bank(1 << 16, DRAMTiming())
    blacklisted, dos_delay = dos_false_positive_delay(
        dos_bank,
        trh=4800,
        attacker_rows=64,
        victim_row=12345,
        bloom=BloomParameters(num_counters=32, num_hashes=2),
    )
    out["dos_blacklisted"] = blacklisted
    out["dos_delay_us"] = dos_delay / 1000.0

    timing = DRAMTiming(refresh_window=1_000_000.0)
    ts = 50
    aqua_bank = Bank(4096, timing)
    aqua = AquaQuarantine(aqua_bank, ExactTracker(ts))
    scale_bank = Bank(4096, timing)
    scale = ScaleSecureRowSwap(
        scale_bank, ExactTracker(ts * 2), random.Random(3)
    )
    for engine in (aqua, scale):
        time = 0.0
        for _ in range(500):
            result = engine.bank.access(time, engine.resolve(7))
            time = max(result.finish, engine.on_activation(result.finish, 7))
    out["aqua_reserved_fraction"] = aqua.reserved_fraction()
    out["aqua_migrations"] = aqua.migrations
    out["aqua_home_acts"] = aqua_bank.stats.count(7)
    out["scale_swaps"] = scale.stats.swaps
    out["scale_home_acts"] = scale_bank.stats.count(7)

    base = StorageModel()
    optimised = StorageModel(direction_bit_optimization=True)
    out["scale_rit_kb_1200"] = base.rit_bytes(1200, "scale-srs") / 1024
    out["scale_rit_kb_1200_opt"] = (
        optimised.rit_bytes(1200, "scale-srs") / 1024
    )
    out["ratio_1200_opt"] = optimised.storage_ratio(1200)
    return out


def _fields(row: Any, **extra: Any) -> Dict[str, Any]:
    """A breakdown record's numbers, without its ``design``/``trh``
    labels (the model's mapping keys carry those)."""
    values = {
        key: value
        for key, value in asdict(row).items()
        if key not in ("design", "trh")
    }
    values.update(extra)
    return values


def _storage() -> Dict[str, Any]:
    """Table IV: each design's per-bank SRAM inventory (bytes) per
    threshold, and the in-DRAM swap counters' share of capacity."""
    model = StorageModel()
    return {
        "breakdown": {
            trh: {
                design: _fields(row, total_bytes=row.total_bytes)
                for design, row in rows.items()
            }
            for trh, rows in model.table(TABLE_TRH_VALUES).items()
        },
        "dram_counter_fraction": model.dram_counter_overhead_fraction(),
    }


def _power() -> Dict[str, Any]:
    """Table V: each design's DRAM overhead (percent) and SRAM power
    (mW) per threshold."""
    from repro.analysis.power import PowerModel

    model = PowerModel()
    return {
        "breakdown": {
            trh: {
                design: _fields(row)
                for design, row in model.table(trh).items()
            }
            for trh in TABLE_TRH_VALUES
        }
    }


#: The ``model`` kind's subjects: name -> zero-argument function
#: returning the model's values (JSON scalars, lists, and mappings
#: keyed by ``str`` or ``int``).
MODELS: Dict[str, Callable[[], Dict[str, Any]]] = {
    "trh-history": _trh_history,
    "random-guess": _random_guess,
    "outliers": _outliers,
    "multi-bank": _multi_bank,
    "open-page": _open_page,
    "llc-pinning": _llc_pinning,
    "comparators": _comparators,
    "storage": _storage,
    "power": _power,
}


@dataclass(frozen=True)
class ModelParams:
    """Parameters of a ``model`` cell: none — each model is one fixed
    computation, named by the cell's subject."""


@dataclass
class ModelResult:
    """The values one :data:`MODELS` entry computed."""

    #: Evaluation kind of this record.
    kind: ClassVar[str] = "model"
    #: Models have no threshold axis.
    trh: ClassVar[Optional[int]] = None

    workload: str
    mitigation: str  # the model name, a MODELS key
    values: Dict[str, Any]
    params: Optional[ModelParams] = None


def _encode_value(value: Any) -> Any:
    """JSON form of a model value.

    Mappings become ``{"items": [[key, value], ...]}``, which keeps
    ``int`` keys and key order; non-finite floats become
    ``{"float": "inf"}``; every other value is already JSON.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return {"float": repr(value)}
    if isinstance(value, Mapping):
        return {
            "items": [[key, _encode_value(item)] for key, item in value.items()]
        }
    if isinstance(value, (list, tuple)):
        return [_encode_value(item) for item in value]
    return value


def _decode_value(value: Any) -> Any:
    """Inverse of :func:`_encode_value`."""
    if isinstance(value, dict):
        if "float" in value:
            return float(value["float"])
        return {key: _decode_value(item) for key, item in value["items"]}
    if isinstance(value, list):
        return [_decode_value(item) for item in value]
    return value


def _model_result_to_dict(result: ModelResult) -> Dict[str, Any]:
    return {
        "workload": result.workload,
        "mitigation": result.mitigation,
        "values": _encode_value(result.values),
        "params": None if result.params is None else {},
    }


def _model_result_from_dict(data: Mapping[str, Any]) -> ModelResult:
    return ModelResult(
        workload=data["workload"],
        mitigation=data["mitigation"],
        values=_decode_value(data["values"]),
        params=None if data.get("params") is None else ModelParams(),
    )


@register_evaluation(
    "model",
    params_cls=ModelParams,
    subjects=tuple(MODELS),
    scenario="paper",
    schema_version=1,
    result_to_dict=_model_result_to_dict,
    result_from_dict=_model_result_from_dict,
    # Figures resolve one-cell model grids, which run in-process
    # whatever their cost; the hint only shapes ad-hoc grids.
    cell_cost=lambda cell: 20.0,
)
def run_model_cell(cell: ExperimentCell) -> ModelResult:
    """Compute one paper model."""
    return ModelResult(
        workload=cell.workload,
        mitigation=cell.mitigation,
        values=MODELS[cell.mitigation](),
        params=cell.params,
    )
