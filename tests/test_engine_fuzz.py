"""Cross-engine differential fuzzing: random scenarios, bit-identical.

The equivalence suite pins known-dangerous scenarios; this harness
samples the scenario space at random — workload shape (uniform, hammer,
streaming, mixed, per-core), page policy, Row Hammer threshold, swap
rate, mitigation x tracker, core count, trace length, and time scale
(which controls how many refresh-window boundaries the run straddles) —
and asserts that the scalar and batched engines agree to the last bit,
plus the span-accounting invariants that prove the fused spans cover
the trace exactly (``fast_accesses + scalar_accesses`` equals the total
demand accesses; the engine's internal assertions prove no span crossed
a recorded swap, pin, or place-back).

Every scenario is a pure function of one integer seed, so any failure
is reproducible from its seed alone. Assertion messages carry the
minimal repro command:

    FUZZ_SEEDS=<seed> python -m pytest tests/test_engine_fuzz.py -k explicit

Tiers:

- fast (default): a small fixed seed set, runs in CI on every push;
- ``-m slow``: a wide sweep whose width scales with the ``FUZZ_CASES``
  environment knob (default 100 seeds);
- ``FUZZ_SEEDS=3,17``: replay exactly those seeds (the repro channel).
"""

import os
import random
from dataclasses import replace

import numpy as np
import pytest

from repro.dram.commands import PagePolicy
from repro.sim.engine import BatchedEngine
from repro.sim.experiment import result_to_dict
from repro.sim.simulator import PerformanceSimulation, SimulationParams
from repro.workloads.columnar import ColumnarTrace

FAST_SEEDS = list(range(10))
SLOW_BASE = 1000

MITIGATION_POOL = ("baseline", "rrs", "rrs-no-unswap", "srs", "scale-srs")
TRACKER_POOL = ("misra-gries", "exact", "hydra")
PATTERNS = ("uniform", "hammer", "stream", "mixed")


class FuzzWorkload:
    """Per-core columnar traces derived deterministically from a seed."""

    suite = "FUZZ"

    def __init__(self, seed):
        self.seed = seed
        self.name = f"fuzz-{seed}"

    def arrays_for_core(self, core_id, params, organization):
        rng = np.random.default_rng((self.seed << 8) + core_id)
        n = params.requests_per_core
        rows_per_bank = organization.rows_per_bank
        pattern = PATTERNS[int(rng.integers(len(PATTERNS)))]
        if pattern == "uniform":
            row = rng.integers(0, rows_per_bank, n)
        elif pattern == "hammer":
            targets = rng.integers(0, rows_per_bank, int(rng.integers(2, 7)))
            row = targets[rng.integers(0, len(targets), n)]
        elif pattern == "stream":
            start = int(rng.integers(0, rows_per_bank))
            row = (start + np.arange(n)) % rows_per_bank
        else:  # mixed: hammer a few rows amid uniform noise
            targets = rng.integers(0, rows_per_bank, int(rng.integers(2, 5)))
            row = np.where(
                rng.random(n) < 0.5,
                targets[rng.integers(0, len(targets), n)],
                rng.integers(0, rows_per_bank, n),
            )
        # A narrow bank set concentrates pressure on few trackers; a
        # wide one exercises many hoisted banks.
        bank_spread = int(rng.integers(1, organization.banks_per_rank + 1))
        return ColumnarTrace(
            gaps=rng.integers(0, int(rng.integers(2, 40)), n),
            is_write=rng.random(n) < rng.uniform(0.0, 0.45),
            channel=rng.integers(0, organization.channels, n).astype(np.int16),
            rank=rng.integers(
                0, organization.ranks_per_channel, n
            ).astype(np.int16),
            bank=rng.integers(0, bank_spread, n).astype(np.int16),
            row=row.astype(np.int32),
            column=rng.integers(0, 128, n).astype(np.int32),
        )


def scenario_from_seed(seed):
    """The scenario is a pure function of the seed: every axis of the
    space is drawn from one `random.Random(seed)`."""
    rng = random.Random(seed)
    mitigation = rng.choice(MITIGATION_POOL)
    params = SimulationParams(
        trh=rng.choice((200, 400, 800, 1200)),
        swap_rate=rng.choice((None, 3.0, 6.0)),
        tracker=rng.choice(TRACKER_POOL),
        num_cores=rng.choice((1, 2, 3)),
        requests_per_core=rng.choice((400, 900, 1600, 2400)),
        # 2048 shrinks the window enough that runs straddle many
        # refresh boundaries; 16 keeps thresholds realistic.
        time_scale=rng.choice((16, 64, 256, 2048)),
        seed=seed,
        policy=rng.choice((PagePolicy.CLOSED, PagePolicy.OPEN)),
        rows_per_bank=rng.choice((4096, 16384)),
        engine="scalar",
    )
    return FuzzWorkload(seed), mitigation, params


def comparable(result):
    data = result_to_dict(result)
    data.pop("params")
    return data


def check_seed(seed):
    workload, mitigation, params = scenario_from_seed(seed)
    repro = (
        f"\nscenario: seed={seed} mitigation={mitigation} "
        f"tracker={params.tracker} policy={params.policy.value} "
        f"trh={params.trh} swap_rate={params.swap_rate} "
        f"cores={params.num_cores} requests={params.requests_per_core} "
        f"time_scale={params.time_scale}"
        f"\nrepro: FUZZ_SEEDS={seed} python -m pytest "
        "tests/test_engine_fuzz.py -k explicit"
    )
    spec = workload  # a FuzzWorkload object, driven straight into the simulator
    scalar = PerformanceSimulation(
        spec, mitigation, replace(params, engine="scalar")
    ).run()
    engine = BatchedEngine()
    try:
        batched = PerformanceSimulation(
            spec, mitigation, replace(params, engine="auto")
        ).run(engine=engine)
    except AssertionError as exc:
        # Engine-internal span assertions carry no scenario context;
        # attach the seed and repro command before re-raising.
        raise AssertionError(str(exc) + repro) from exc

    assert comparable(scalar) == comparable(batched), (
        "engines diverged" + repro
    )
    counters = engine.counters
    total = scalar.total_memory_accesses
    assert (
        counters["fast_accesses"] + counters["scalar_accesses"] == total
    ), "span accounting does not cover the trace" + repro
    if mitigation == "baseline":
        # Unbounded horizon: everything outside window rolls fuses.
        assert counters["fast_accesses"] > 0, (
            "baseline must engage the fast path" + repro
        )
    if params.tracker == "hydra" and mitigation != "baseline":
        # Hydra declares no batchability: nothing may fuse.
        assert counters["fast_accesses"] == 0, (
            "hydra-tracked cells must not fuse" + repro
        )


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_fuzz_fast(seed):
    check_seed(seed)


@pytest.mark.slow
def test_fuzz_slow_sweep():
    cases = int(os.environ.get("FUZZ_CASES", "100"))
    for seed in range(SLOW_BASE, SLOW_BASE + cases):
        check_seed(seed)


@pytest.mark.skipif(
    not os.environ.get("FUZZ_SEEDS"),
    reason="set FUZZ_SEEDS=<comma-separated seeds> to replay failures",
)
def test_fuzz_explicit():
    for token in os.environ["FUZZ_SEEDS"].split(","):
        check_seed(int(token))
