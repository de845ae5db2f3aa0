"""Golden outputs of the report's security cells, pinned to the bit.

The Figure 6 Monte-Carlo probe, the Section IX BlockHammer DoS
measurement and the Section II-E hammer rig all feed the report digest.
These tests pin their exact outputs, recorded before their inner loops
were optimised, plus reference implementations of the unoptimised
loops kept here so an edit to the fast paths is checked against the
plain arithmetic it replaced:

- exact :class:`MonteCarloResult`s at four points (a probe spanning
  three batches, an SRS point with no latent draw, a whole-number
  latent count, an infeasible point), and the per-window flags of
  ``_simulate_windows`` against the original Eq. 1 expression;
- ``dos_false_positive_delay`` and its final Bloom counters against a
  one-activation-per-insert loop, over five filter geometries;
- the full JSON of every ``hammer`` cell shape at a reduced scale at
  which TRR and PARA still flip rows, and the rig's flip events: one
  per flipped row in the single window;
- the fused ``hammer_pattern`` against its per-access loop on the full
  end state of bank, disturbance model, tracker and mitigation, for
  every defense the harness drives (TRR, PARA, Scale-SRS, RRS, SRS,
  AQUA) on four patterns, plus a deadline stop, mid-pattern window
  rolls, an open-page bank, overdue SRS place-backs and an
  out-of-range row;
- the four 300k-activation half-double cells at full report scale,
  and (slow tier) Figure 6's three Monte-Carlo cells and the flip
  events of those half-double cells.

A mismatch means a security number the report prints moved. Update a
value only for an intended model change, and record why in the commit.
"""

import enum
import json
import random

import numpy as np
import pytest

from repro.attacks.analytical import (
    AttackParameters,
    JuggernautModel,
    srs_parameters,
)
from repro.attacks.harness import HammerOutcome, hammer_pattern
from repro.attacks.patterns import double_sided, half_double, many_sided
from repro.attacks.montecarlo import MonteCarloJuggernaut, MonteCarloResult
from repro.core import blockhammer
from repro.core.blockhammer import (
    BlockHammerThrottle,
    BloomParameters,
    dos_false_positive_delay,
)
from repro.core.aqua import AquaQuarantine
from repro.core.mitigation import MitigationKind
from repro.core.rrs import RandomizedRowSwap
from repro.core.scale_srs import ScaleSecureRowSwap
from repro.core.srs import SecureRowSwap
from repro.core.vfm import PARA, TargetedRowRefresh
from repro.dram.bank import Bank
from repro.dram.commands import PagePolicy
from repro.dram.config import DRAMTiming
from repro.dram.disturbance import DisturbanceModel
from repro.sim.evaluations import HammerParams, SecurityParams, _half_double_rig
from repro.sim.experiment import ExperimentSpec, run_grid
from repro.trackers.base import ExactTracker

INF = float("inf")

# ----------------------------------------------------------------------
# Monte-Carlo probe

#: name -> (attack parameters, rounds, probe windows, iterations, seed)
MC_POINTS = {
    # 2.1M probe windows: batches of 1M, 1M and 0.1M.
    "rrs-3-batches": (AttackParameters(trh=2400, ts=400), 600, 2_100_000, 2000, 11),
    "srs": (srs_parameters(AttackParameters(trh=1200, ts=300)), 0, 200_000, 2000, 12),
    "whole-latent": (
        AttackParameters(trh=1200, ts=200, latent_per_round=1.0),
        400,
        200_000,
        2000,
        13,
    ),
    "infeasible": (AttackParameters(trh=4800, ts=800), 1476 + 50, 200_000, 100, 14),
}

MC_RESULTS = {
    "rrs-3-batches": MonteCarloResult(
        rounds=600,
        iterations=2000,
        window_success_probability=0.00013952380952380952,
        mean_time_to_break_days=0.005390849259259259,
        median_time_to_break_days=0.0037662962962962962,
        p05_days=0.00028362962962962966,
        p95_days=0.015919037037037037,
    ),
    "srs": MonteCarloResult(
        rounds=0,
        iterations=2000,
        window_success_probability=0.00039834514888402694,
        mean_time_to_break_days=0.00174253,
        median_time_to_break_days=0.0011962962962962964,
        p05_days=9.477777777777777e-05,
        p95_days=0.005134888888888889,
    ),
    "whole-latent": MonteCarloResult(
        rounds=400,
        iterations=2000,
        window_success_probability=0.0006270267531414674,
        mean_time_to_break_days=0.0012062937037037036,
        median_time_to_break_days=0.0008292592592592593,
        p05_days=6.740740740740741e-05,
        p95_days=0.0036648518518518514,
    ),
    "infeasible": MonteCarloResult(
        rounds=1526,
        iterations=100,
        window_success_probability=0.0,
        mean_time_to_break_days=INF,
        median_time_to_break_days=INF,
        p05_days=INF,
        p95_days=INF,
    ),
}


def reference_flags(params, rng, rounds, num_windows):
    """The probe's original Eq. 1 evaluation, kept verbatim."""
    ts = params.ts
    if params.latent_per_round > 0 and rounds > 0:
        low = int(np.floor(params.latent_per_round))
        frac = params.latent_per_round - low
        extra = (
            rng.binomial(rounds, frac, size=num_windows)
            if frac > 0
            else np.zeros(num_windows, dtype=np.int64)
        )
        latents = low * rounds + extra
    else:
        latents = np.zeros(num_windows, dtype=np.int64)
    base = 2 * ts + latents
    guesses = JuggernautModel(params).guesses(rounds)
    hits = rng.binomial(int(guesses), 1.0 / params.rows_per_bank, size=num_windows)
    total = base + hits * ts
    return total >= params.trh


@pytest.mark.parametrize("name", sorted(MC_POINTS))
def test_montecarlo_result(name):
    params, rounds, probe, iterations, seed = MC_POINTS[name]
    result = MonteCarloJuggernaut(params, seed=seed).run(
        rounds, iterations=iterations, probe_windows=probe
    )
    assert result == MC_RESULTS[name]


def test_rrs_probe_spans_three_batches(monkeypatch):
    params, rounds, probe, iterations, seed = MC_POINTS["rrs-3-batches"]
    batches = []
    original = MonteCarloJuggernaut._simulate_windows

    def counting(self, rounds, num_windows):
        batches.append(num_windows)
        return original(self, rounds, num_windows)

    monkeypatch.setattr(MonteCarloJuggernaut, "_simulate_windows", counting)
    MonteCarloJuggernaut(params, seed=seed).run(
        rounds, iterations=iterations, probe_windows=probe
    )
    assert batches == [1_000_000, 1_000_000, 100_000]


@pytest.mark.parametrize("seed", [21, 22])
@pytest.mark.parametrize(
    "params, rounds",
    [
        # Fractional latent count: a latent draw, then the hits draw.
        (AttackParameters(trh=2400, ts=400), 600),
        # k == 0 at this budget: many windows succeed.
        (AttackParameters(trh=1200, ts=200), 300),
        # SRS: no latent draw.
        (srs_parameters(AttackParameters(trh=1200, ts=300)), 0),
        # Whole latent count: no latent draw either.
        (AttackParameters(trh=1200, ts=200, latent_per_round=2.0), 200),
    ],
    ids=["rrs", "rrs-k0", "srs", "whole-latent"],
)
def test_simulate_windows_matches_reference(params, rounds, seed):
    mc = MonteCarloJuggernaut(params, seed=seed)
    rng = np.random.default_rng(seed)
    # Two calls in a row: the second continues both streams.
    for size in (50_000, 7_001):
        flags = mc._simulate_windows(rounds, size)
        expected = reference_flags(params, rng, rounds, size)
        assert flags.dtype == bool
        np.testing.assert_array_equal(flags, expected)


def test_integral_float_ts_matches_int_ts():
    """An integral float ``ts`` runs the in-place probe like its int."""
    params = AttackParameters(trh=2400, ts=400)
    as_float = AttackParameters(trh=2400, ts=400.0)
    flags = MonteCarloJuggernaut(params, seed=23)._simulate_windows(600, 10_000)
    same = MonteCarloJuggernaut(as_float, seed=23)._simulate_windows(600, 10_000)
    np.testing.assert_array_equal(flags, same)


def test_fractional_ts_is_rejected():
    with pytest.raises(ValueError, match="whole number"):
        MonteCarloJuggernaut(AttackParameters(trh=2400, ts=400.5), seed=23)


# ----------------------------------------------------------------------
# BlockHammer DoS

#: (counters, hashes, attacker rows, trh, victim row, bank rows)
DOS_GEOMETRIES = [
    (1024, 4, 64, 600, 12345, 1 << 16),  # the default filter
    (32, 2, 64, 400, 12345, 1 << 16),  # the report's filter, smaller TRH
    (3, 4, 8, 300, 17, 4096),  # 4 hashes into 3 slots: hashes collide
    (7, 3, 16, 1000, 2048, 1 << 14),
    (1, 1, 5, 200, 0, 1024),  # one counter: every row aliases
]


def reference_dos(bank, trh, attacker_rows, victim_row, bloom):
    """The DoS measurement with one filter insert per activation."""
    engine = BlockHammerThrottle(bank, trh, bloom=bloom)
    per_row = engine.blacklist_threshold - 1
    for attacker in range(1, attacker_rows + 1):
        row = (victim_row + attacker * 7919) % bank.num_rows
        for _ in range(per_row):
            engine.filters.insert(row)
    blacklisted = engine.is_blacklisted(victim_row)
    delay = engine.throttle_delay_ns() if blacklisted else 0.0
    return blacklisted, delay, engine


@pytest.mark.parametrize("geometry", DOS_GEOMETRIES, ids=str)
def test_dos_false_positive_delay_matches_reference(monkeypatch, geometry):
    counters, hashes, attackers, trh, victim, rows = geometry
    bloom = BloomParameters(num_counters=counters, num_hashes=hashes)
    engines = []

    class Recorded(BlockHammerThrottle):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(blockhammer, "BlockHammerThrottle", Recorded)
    got = dos_false_positive_delay(
        Bank(rows, DRAMTiming()),
        trh=trh,
        attacker_rows=attackers,
        victim_row=victim,
        bloom=bloom,
    )
    monkeypatch.undo()
    blacklisted, delay, reference = reference_dos(
        Bank(rows, DRAMTiming()), trh, attackers, victim, bloom
    )
    assert got == (blacklisted, delay)
    (engine,) = engines
    for mine, theirs in zip(engine.filters.filters, reference.filters.filters):
        assert mine._counters == theirs._counters
    assert sum(engine.filters.filters[0]._counters) > 0


def test_collision_geometry_collides():
    """The 3-counter geometry really hashes some row twice into one slot."""
    engine = BlockHammerThrottle(
        Bank(4096, DRAMTiming()),
        300,
        bloom=BloomParameters(num_counters=3, num_hashes=4),
    )
    slots = engine.filters.filters[0]._slots(17 + 7919)
    assert len(set(slots)) < len(slots)


def test_report_dos_cell():
    """The report's comparator geometry: the victim is blacklisted."""
    blacklisted, delay = dos_false_positive_delay(
        Bank(1 << 16, DRAMTiming()),
        trh=4800,
        attacker_rows=64,
        victim_row=12345,
        bloom=BloomParameters(num_counters=32, num_hashes=2),
    )
    assert blacklisted is True
    assert delay == 26666.666666666668


# ----------------------------------------------------------------------
# hammer rig


def hammer_record(defense, pattern, hammers, radius, trh, outcome):
    """The full JSON record of one hammer cell at the default anchor row
    and seeds; ``outcome`` holds the HammerOutcome fields in order."""
    activations, flipped, hottest_row, hottest, refreshes, duration = outcome
    return {
        "kind": "hammer",
        "workload": "hammer-rig",
        "mitigation": defense,
        "trh": trh,
        "activations": activations,
        "flipped_rows": flipped,
        "hottest_row": hottest_row,
        "hottest_disturbance": hottest,
        "victim_refreshes": refreshes,
        "duration_ns": duration,
        "params": {
            "pattern": pattern,
            "hammers": hammers,
            "radius": radius,
            "trh": trh,
            "row": 100,
            "para_seed": 5,
            "swap_seed": 7,
        },
    }


def run_hammer(defense, pattern, hammers, radius, trh):
    spec = ExperimentSpec(
        kind="hammer",
        mitigations=[defense],
        base_params=HammerParams(
            pattern=pattern, hammers=hammers, radius=radius, trh=trh
        ),
    )
    (record,) = json.loads(run_grid(spec, max_workers=1).to_json())["results"]
    return record


#: Reduced scale: TRH 200, 20k half-double activations.
REDUCED_HAMMER_CELLS = [
    ("trr", "double-sided", 2400, 1,
     (2400, [], 99, 38.40000000000003, 48, 110160.0)),
    ("trr", "half-double", 20_000, 1,
     (20_000, [98, 100, 102], 100, 407.0, 398, 917898.0)),
    ("trr", "half-double", 20_000, 2,
     (20_000, [100], 100, 407.7960000000024, 796, 935808.0)),
    ("para", "double-sided", 2400, 1,
     (2400, [], 99, 143.40000000000026, 184, 116268.0)),
    ("para", "half-double", 20_000, 1,
     (20_000, [98, 100, 102], 100, 1617.0, 1608, 972348.0)),
    ("scale-srs", "double-sided", 2400, 1,
     (2400, [], 100, 132.0, 0, 206808.0)),
    ("scale-srs", "half-double", 20_000, 1,
     (20_000, [], 1072, 198.0, 0, 1728978.0)),
]


@pytest.mark.parametrize(
    "defense, pattern, hammers, radius, outcome",
    REDUCED_HAMMER_CELLS,
    ids=lambda value: str(value) if not isinstance(value, tuple) else "",
)
def test_hammer_cell_record(defense, pattern, hammers, radius, outcome):
    expected = hammer_record(defense, pattern, hammers, radius, 200, outcome)
    assert run_hammer(defense, pattern, hammers, radius, 200) == expected


def check_flip_events(defense, radius, hammers, trh, outcome):
    """The rig's disturbance model keeps one flip event per flipped row
    (one window), and its row summaries match the pinned record."""
    _, flipped, hottest_row, hottest, _, _ = outcome
    params = HammerParams(
        pattern="half-double", hammers=hammers, radius=radius, trh=trh
    )
    engine, disturbance = _half_double_rig(defense, params)
    hammer_pattern(engine, disturbance, params.hammer_rows())
    assert disturbance.flipped_rows() == flipped
    assert disturbance.any_flip() == bool(flipped)
    assert disturbance.hottest() == (hottest_row, hottest)
    assert sorted(flip.row for flip in disturbance.flips) == flipped
    for flip in disturbance.flips:
        assert flip.window_index == 0
        assert trh <= flip.disturbance < trh + 1


@pytest.mark.parametrize(
    "defense, radius, outcome",
    [
        (defense, radius, outcome)
        for defense, pattern, _, radius, outcome in REDUCED_HAMMER_CELLS
        if pattern == "half-double"
    ],
    ids=["trr-r1", "trr-r2", "para", "scale-srs"],
)
def test_half_double_flip_events(defense, radius, outcome):
    check_flip_events(defense, radius, 20_000, 200, outcome)


def reference_hammer(mitigation, disturbance, pattern, start=0.0, deadline=None):
    """The harness as a per-access loop: ``is_pinned``/``resolve``,
    ``Bank.access``, ``DisturbanceModel.on_activation`` and
    ``Mitigation.on_activation`` once per access, the last two only when
    the access activated a row (as ``MemorySystem`` gates them)."""
    bank = mitigation.bank
    limit = INF if deadline is None else deadline
    time = start
    issued = 0
    for row in pattern:
        if time >= limit:
            break
        if mitigation.is_pinned(row):
            time += bank.timing.t_rc
            continue
        physical = mitigation.resolve(row)
        result = bank.access(time, physical)
        if not result.activated:
            time = result.finish
            continue
        disturbance.on_activation(physical, result.start)
        issued += 1
        time = max(result.finish, mitigation.on_activation(result.finish, row))
    hottest_row, hottest = disturbance.hottest()
    return HammerOutcome(
        activations=issued,
        flipped_rows=disturbance.flipped_rows(),
        hottest_row=hottest_row,
        hottest_disturbance=hottest,
        victim_refreshes=getattr(mitigation, "victim_refreshes", 0),
        duration_ns=time - start,
    )


def state_of(value):
    """Plain-data snapshot of an object graph, for bit-exact equality.

    Walks instance attributes recursively, so one snapshot of a
    mitigation covers its bank (timing state, ``total_accesses``,
    per-row counts, lifetime activations, window records), its
    disturbance model (levels, flip events, totals), its tracker
    (counts, observations, triggers), its indirection and pin state,
    its RNG state and its ``MitigationStats`` with the event log.
    """
    if isinstance(value, random.Random):
        return ("Random", value.getstate())
    if value is None or isinstance(value, (bool, int, float, str, enum.Enum)):
        return value
    if isinstance(value, dict):
        return {key: state_of(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [state_of(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return ("set", sorted(value))
    return (type(value).__name__, state_of(vars(value)))


def rig_state(mitigation, disturbance):
    if mitigation.tracker is not None:
        # ExactTracker lowers its max-count bound lazily inside
        # batch_horizon (which only the fused loop calls); settle it on
        # both sides so the snapshots compare the counts themselves.
        mitigation.tracker.batch_horizon()
    return state_of(mitigation), state_of(disturbance)


#: Rows of the differential rig's bank (AQUA carves its quarantine from
#: the top).
DIFF_ROWS = 2048
#: Defenses of the differential test: name -> engine builder.
DIFF_DEFENSES = {
    "trr-r1": lambda bank, model: TargetedRowRefresh(
        bank, model, ExactTracker(100), protected_radius=1, keep_events=True
    ),
    "trr-r2": lambda bank, model: TargetedRowRefresh(
        bank, model, ExactTracker(100), protected_radius=2, keep_events=True
    ),
    "para": lambda bank, model: PARA(
        bank, model, trh=model.trh, rng=random.Random(5), keep_events=True
    ),
    "scale-srs": lambda bank, model: ScaleSecureRowSwap(
        bank, ExactTracker(model.trh // 3), random.Random(7), keep_events=True
    ),
    "rrs": lambda bank, model: RandomizedRowSwap(
        bank, ExactTracker(50), random.Random(11), keep_events=True
    ),
    "srs": lambda bank, model: SecureRowSwap(
        bank, ExactTracker(50), random.Random(13), keep_events=True
    ),
    # The harness never ends a window, so the quarantine must hold
    # every migration of the longest pattern.
    "aqua": lambda bank, model: AquaQuarantine(
        bank, ExactTracker(50), quarantine_rows=512, keep_events=True
    ),
}
DIFF_PATTERNS = {
    "double-sided": lambda: list(double_sided(100, 3000)),
    "half-double": lambda: list(half_double(100, 6000, near_touch_period=64)),
    "many-sided": lambda: list(many_sided([100, 200, 203, 300], 4000)),
    # Rows whose blast radius crosses the bank's edges.
    "bank-edges": lambda: [0, 1, DIFF_ROWS - 1, DIFF_ROWS - 2] * 1000,
}


def differential_rig(defense, window=1_000_000.0, policy=PagePolicy.CLOSED):
    """A fresh defended bank plus disturbance model (TRH 200, a
    distance-2 coupling strong enough to flip rows)."""
    bank = Bank(
        DIFF_ROWS, DRAMTiming(refresh_window=window), policy, keep_history=True
    )
    model = DisturbanceModel(
        DIFF_ROWS, 200, refresh_window=window, distance_factors=(1.0, 0.05)
    )
    return DIFF_DEFENSES[defense](bank, model), model


def check_against_reference(defense, pattern, deadline=None, **rig_args):
    """Fused harness and per-access loop leave identical end states."""
    fused_rig = differential_rig(defense, **rig_args)
    reference_rig = differential_rig(defense, **rig_args)
    outcome = hammer_pattern(*fused_rig, pattern, deadline=deadline)
    expected = reference_hammer(*reference_rig, pattern, deadline=deadline)
    assert outcome == expected
    assert rig_state(*fused_rig) == rig_state(*reference_rig)
    return fused_rig, outcome


@pytest.mark.parametrize("pattern", sorted(DIFF_PATTERNS))
@pytest.mark.parametrize("defense", sorted(DIFF_DEFENSES))
def test_harness_matches_per_access_loop(defense, pattern):
    (engine, model), outcome = check_against_reference(
        defense, DIFF_PATTERNS[pattern]()
    )
    assert outcome.activations > 0
    assert engine.bank.total_accesses > 0


@pytest.mark.parametrize("defense", sorted(DIFF_DEFENSES))
def test_harness_matches_per_access_loop_at_deadline(defense):
    pattern = DIFF_PATTERNS["half-double"]()
    _, outcome = check_against_reference(defense, pattern, deadline=50_000.0)
    assert 0 < outcome.activations < len(pattern)


@pytest.mark.parametrize("defense", sorted(DIFF_DEFENSES))
def test_harness_matches_per_access_loop_across_windows(defense):
    """A 100 us window: ActivationStats and the disturbance model both
    roll twice inside the pattern (short enough that no design's
    per-window swap or quarantine capacity runs out, since the harness
    never ends a mitigation epoch)."""
    (engine, model), outcome = check_against_reference(
        defense, DIFF_PATTERNS["double-sided"]() * 2, window=100_000.0
    )
    assert engine.bank.stats.windows_closed >= 2
    assert model._window_index >= 2


@pytest.mark.parametrize("defense", sorted(DIFF_DEFENSES))
def test_harness_matches_per_access_loop_open_page(defense):
    """Open-page row hits activate nothing: no disturbance, no notify."""
    pattern = [row for row in DIFF_PATTERNS["half-double"]() for _ in (0, 1)]
    (engine, model), outcome = check_against_reference(
        defense, pattern, policy=PagePolicy.OPEN
    )
    assert engine.bank.row_hits > 0
    assert outcome.activations < len(pattern)


def test_harness_matches_per_access_loop_through_placebacks():
    """SRS with a lazy place-back due: the activation that finishes
    past ``batch_quiet_until`` takes the full path, where ``tick`` runs
    (the hammer keeps the bank busy, so it reschedules the place-back).
    Here that activation is also the row's threshold-th, with the rest
    of its span still pending: the pending rows must be committed
    before it, or its trigger (and swap) would be missed."""

    def warmed():
        engine, model = differential_rig("srs")
        reference_hammer(engine, model, [7] * 500)
        engine.end_window(engine.bank.busy_until)
        return engine, model

    fused, reference = warmed(), warmed()
    engine = fused[0]
    threshold = engine.tracker.threshold
    assert engine.batch_horizon() == threshold - 1
    warm_events = len(engine.stats.events)
    quiet = engine.batch_quiet_until()
    timing = engine.bank.timing
    # Back-to-back ACTs of row 7 from `start`: the threshold-th one is
    # the first to finish at or past the place-back instant.
    latency = timing.t_rcd + timing.t_cas + timing.t_bl
    start = quiet - latency - (threshold - 1) * timing.t_rc + 1.0
    pattern = [7] * 60 + DIFF_PATTERNS["many-sided"]()
    outcome = hammer_pattern(*fused, pattern, start=start)
    assert outcome == reference_hammer(*reference, pattern, start=start)
    assert rig_state(*fused) == rig_state(*reference)
    assert engine.batch_quiet_until() > quiet
    swap = engine.stats.events[warm_events + 1]
    assert (swap.kind, swap.row) == (MitigationKind.SWAP, 7)
    assert quiet <= swap.time < quiet + timing.t_rc


def test_harness_rejects_out_of_range_rows_like_the_bank():
    pattern = [99, 101] * 50 + [DIFF_ROWS] + [99] * 10
    fused, reference = differential_rig("trr-r1"), differential_rig("trr-r1")
    with pytest.raises(ValueError, match="out of range"):
        hammer_pattern(*fused, pattern)
    with pytest.raises(ValueError, match="out of range"):
        reference_hammer(*reference, pattern)
    assert rig_state(*fused) == rig_state(*reference)


def test_open_page_row_hits_do_not_activate():
    """One row hammered on an open-page bank: one activation, and the
    rest are row hits that disturb nothing and are never notified."""
    engine, model = differential_rig("trr-r1", policy=PagePolicy.OPEN)
    outcome = hammer_pattern(engine, model, [100] * 500)
    assert outcome.activations == 1
    assert model.disturbance(99) == 1.0
    assert model.disturbance(101) == 1.0
    assert engine.tracker.observations == 1
    assert engine.victim_refreshes == 0
    assert engine.bank.row_hits == 499


def test_harness_follows_aqua_quarantine_view():
    """AQUA's ``resolve_map`` is its live forward table: the harness
    must follow every quarantine migration through it."""
    pattern = [99, 101] * 600
    (engine, _), _ = check_against_reference("aqua", pattern)
    assert engine.migrations > 0


# ----------------------------------------------------------------------
# full report scale

#: Figure 6's Monte-Carlo cells: rounds -> (mc window success, mean,
#: median, p05, p95 days, derived seed).
FIG06_MC = {
    1100: (4.929086407448047e-06, 0.1504387274814815, 0.10564814814814814,
           0.008009962962962964, 0.4488229259259259, 12051022370652860415),
    1200: (3.02e-06, 0.24670070492592594, 0.17255037037037035,
           0.013889555555555556, 0.7333742962962961, 13719012600833401773),
    1300: (9e-07, 0.8189898129629629, 0.5763718518518519,
           0.041251740740740755, 2.433707888888888, 4965097503312294455),
}

#: The report's four 300k-activation half-double cells.
HALF_DOUBLE_CELLS = [
    ("trr", 1,
     (300_000, [98, 100, 102], 98, 3597.7099999881243, 5998, 13769898.0)),
    ("trr", 2,
     (300_000, [97, 100, 103], 97, 3003.9979999998855, 11996, 14039808.0)),
    ("para", 1,
     (300_000, [99, 100, 101], 100, 2654.0, 2508, 13612848.0)),
    ("scale-srs", 1,
     (251_228, [], 1321, 1998.0, 0, 14531820.0)),
]


@pytest.mark.slow
def test_fig06_montecarlo_cells():
    spec = ExperimentSpec(
        kind="security",
        mitigations=["rrs"],
        base_params=SecurityParams(
            trh=4800, swap_rate=6.0, iterations=20_000, probe_windows=100_000
        ),
        grid={"rounds": sorted(FIG06_MC)},
    )
    records = json.loads(run_grid(spec, max_workers=1).to_json())["results"]
    assert [r["rounds"] for r in records] == sorted(FIG06_MC)
    for record in records:
        got = tuple(
            record[field]
            for field in (
                "mc_window_success", "mc_days_mean", "mc_days_median",
                "mc_days_p05", "mc_days_p95", "mc_seed",
            )
        )
        assert got == FIG06_MC[record["rounds"]]


@pytest.mark.parametrize(
    "defense, radius, outcome",
    HALF_DOUBLE_CELLS,
    ids=["trr-r1", "trr-r2", "para", "scale-srs"],
)
def test_report_half_double_cell(defense, radius, outcome):
    expected = hammer_record(
        defense, "half-double", 300_000, radius, 2000, outcome
    )
    assert run_hammer(defense, "half-double", 300_000, radius, 2000) == expected


@pytest.mark.slow
@pytest.mark.parametrize(
    "defense, radius, outcome",
    HALF_DOUBLE_CELLS,
    ids=["trr-r1", "trr-r2", "para", "scale-srs"],
)
def test_report_half_double_flip_events(defense, radius, outcome):
    check_flip_events(defense, radius, 300_000, 2000, outcome)
