"""Results are a function of parameters alone, across processes.

Python randomizes string hashing per process (``PYTHONHASHSEED``), so
a seed or an iteration order drawn from ``hash()`` of a string, or from
a set of strings, would give each interpreter different numbers. The
same grid, run in fresh interpreters under two hash seeds, must
serialize to the same :meth:`ResultSet.to_json`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# ``perf`` cells on two hot workloads under each tracker, and one
# Monte-Carlo ``security`` cell, as one plan run in-process.
SCRIPT = """
import json
from repro.sim import ExperimentSpec, SimulationParams, run_grid
from repro.sim.evaluations import SecurityParams

specs = [
    ExperimentSpec(
        workloads=["gcc", "hmmer"],
        mitigations=["rrs", "scale-srs"],
        base_params=SimulationParams(
            trh=1200, num_cores=2, requests_per_core=1500, time_scale=32,
            tracker=tracker,
        ),
    )
    for tracker in ("misra-gries", "hydra")
] + [
    ExperimentSpec(
        kind="security",
        mitigations=["rrs"],
        base_params=SecurityParams(
            trh=1200, rounds=1100, iterations=200, rows_per_bank=8192,
        ),
    )
]
print(run_grid(*specs, max_workers=1).to_json())
"""


def run_under_hash_seed(seed: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_results_do_not_depend_on_the_hash_seed():
    first, second = (run_under_hash_seed(seed) for seed in ("0", "1"))
    records = json.loads(first)["results"]
    trackers = {r["tracker"] for r in records if r["kind"] == "perf"}
    assert trackers == {"misra-gries", "hydra"}
    assert any(
        r["swaps"] > 0 for r in records
        if r["kind"] == "perf" and r["tracker"] == "hydra"
    )
    (security,) = [r for r in records if r["kind"] == "security"]
    assert security["mc_window_success"] is not None
    assert first == second
