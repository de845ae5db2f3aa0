"""The mitigation contract, checked on every registered design.

``Mitigation`` defines the lookups (``resolve``/``is_pinned`` from the
live ``resolve_map``/``batch_pinned_view`` views), the tracker-delegated
batching budgets, and the tracker counter-traffic charge once; these
tests drive each registered design through real triggers and check
that what it reports agrees with those definitions.
"""

import pytest

from repro.core.aqua import AquaQuarantine
from repro.core.mitigation import BaselineMitigation, MitigationKind
from repro.dram.bank import Bank
from repro.dram.config import DRAMTiming
from repro.registry import MITIGATIONS
from repro.sim.factory import make_mitigation_factory
from repro.trackers.hydra import HydraTracker

TRH = 240
HOT = 700
NUM_ROWS = 2048

#: Designs whose every mitigative action between window rolls is a
#: tracker trigger, and which therefore report the tracker's budgets.
DELEGATING = {"baseline", "rrs", "rrs-no-unswap", "srs", "scale-srs"}
#: Designs that report no budget: every access takes the scalar path.
SCALAR_ONLY = {"aqua", "blockhammer"}


def _build(name, tracker):
    timing = DRAMTiming(refresh_window=1_000_000.0)
    factory = make_mitigation_factory(
        name, TRH, timing, tracker=tracker, seed=5, keep_events=True
    )
    return factory(Bank(NUM_ROWS, timing), (0, 0, 0))


def _budgets(mitigation, row):
    return (
        mitigation.batch_horizon(),
        mitigation.row_headroom(row),
        mitigation.batch_slack(),
    )


def _expected_budgets(name, mitigation, row):
    tracker = mitigation.tracker
    if name in SCALAR_ONLY:
        return (0, 0, 0)
    if tracker is None:
        return (BaselineMitigation.UNBOUNDED_HORIZON, 0, 0)
    return (
        tracker.batch_horizon(),
        tracker.row_headroom(row),
        tracker.batch_slack(),
    )


@pytest.mark.parametrize("tracker", ["misra-gries", "hydra"])
@pytest.mark.parametrize("name", MITIGATIONS.names())
def test_design_honours_the_mitigation_contract(name, tracker):
    assert name in DELEGATING | SCALAR_ONLY, (
        f"new design {name!r}: add it to DELEGATING or SCALAR_ONLY"
    )
    mitigation = _build(name, tracker)
    assert type(mitigation).TRACKER_TRIGGERED == (name in DELEGATING)
    counters = getattr(mitigation, "counters", None)
    bank = mitigation.bank
    time = 0.0
    for step in range(1500):
        if step == 1000 and counters is not None:
            # Charge the hot row's current location to 2 x TS, so its
            # next trigger crosses the detection threshold and
            # Scale-SRS pins the row.
            for _ in range(2):
                counters.read_and_update(
                    mitigation.resolve(HOT), mitigation.tracker.threshold
                )
        assert _budgets(mitigation, HOT) == _expected_budgets(
            name, mitigation, HOT
        )
        if mitigation.is_pinned(HOT):
            time += bank.timing.t_rc
            continue
        result = bank.access(time, mitigation.resolve(HOT))
        time = max(result.finish, mitigation.on_activation(result.finish, HOT))

    actions = [
        e for e in mitigation.stats.events
        if e.kind is not MitigationKind.COUNTER_ACCESS
    ]
    if mitigation.tracker is not None:
        assert len(actions) >= 3, "the hot row should trigger several times"
    if name == "scale-srs":
        assert mitigation.is_pinned(HOT)

    remap = mitigation.resolve_map() or {}
    pinned = mitigation.batch_pinned_view() or set()
    touched = {HOT, *remap, *remap.values(), *pinned}
    touched.update(e.row for e in mitigation.stats.events if e.row >= 0)
    touched.update(
        e.partner for e in mitigation.stats.events if e.partner is not None
    )
    for row in touched:
        assert mitigation.resolve(row) == remap.get(row, row)
        assert mitigation.is_pinned(row) == (row in pinned)


def test_aqua_logs_hydra_counter_traffic():
    """AQUA charges and logs Hydra's counter-cache misses like RRS/SRS:
    one ``COUNTER_ACCESS`` event per missing observation, counted in
    ``counter_accesses`` and ``busy_time``."""
    timing = DRAMTiming(refresh_window=1_000_000.0)
    bank = Bank(4096, timing)
    aqua = AquaQuarantine(bank, HydraTracker(120), keep_events=True)
    twin = HydraTracker(120)
    # Rows of one 128-row Hydra group: the group turns hot, then every
    # first touch of a row misses the counter cache.
    pattern = [row for _ in range(4) for row in range(256, 384, 3)]
    expected_events = expected_accesses = 0
    time = 0.0
    for row in pattern:
        extra = twin.observe(row).extra_dram_accesses
        expected_events += extra > 0
        expected_accesses += extra
        result = bank.access(time, aqua.resolve(row))
        time = max(result.finish, aqua.on_activation(result.finish, row))

    assert expected_events > 0
    logged = [
        e for e in aqua.stats.events if e.kind is MitigationKind.COUNTER_ACCESS
    ]
    assert len(logged) == aqua.stats.counter_accesses == expected_events
    per_access = timing.t_cas + timing.t_bl
    assert sum(e.duration for e in logged) == pytest.approx(
        expected_accesses * per_access
    )
    migrations = sum(
        e.duration for e in aqua.stats.events if e.kind is MitigationKind.SWAP
    )
    assert aqua.stats.busy_time == pytest.approx(
        migrations + expected_accesses * per_access
    )
