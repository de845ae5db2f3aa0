"""Record a workload's access streams, then replay them as a trace workload.

Demonstrates the workload-source architecture end to end:

1. record ``gcc``'s per-core streams to USIMM trace files,
2. replay the recording through the grid engine via ``trace:<dir>``,
3. check the replay reproduces the original swap/slowdown numbers.

Usage::

    PYTHONPATH=src python examples/record_replay.py [workload] [out_dir]
"""

import sys
import tempfile

from repro.sim import ExperimentSpec, SimulationParams, record_workload, run_grid
from repro.sim.experiment import resolve_workload


def replay(workload: str, out_dir: str) -> int:
    """Record ``workload`` into ``out_dir``, replay it, compare both runs."""
    params = SimulationParams(num_cores=2, requests_per_core=5_000, time_scale=32)

    print(f"recording {workload} -> {out_dir}")
    for path in record_workload(resolve_workload(workload), params, out_dir=out_dir):
        print(f"  wrote {path}")

    results = {}
    for name in (workload, f"trace:{out_dir}"):
        spec = ExperimentSpec(
            workloads=[name], mitigations=["rrs"], base_params=params
        )
        result_set = run_grid(spec, max_workers=1)
        (result,) = [r for r in result_set if r.mitigation == "rrs"]
        results[name] = (result_set.normalized(result), result.swaps)
        print(f"{name:<40s} norm={results[name][0]:.4f} swaps={results[name][1]}")

    assert results[workload] == results[f"trace:{out_dir}"], "replay diverged!"
    print("replay reproduces the original run exactly")
    return 0


def main() -> int:
    """Run the record → replay → compare loop and print both tables.

    The recording goes to the directory given as the second argument,
    or to a temporary one that is deleted afterwards.
    """
    workload = sys.argv[1] if len(sys.argv) > 1 else "gcc"
    if len(sys.argv) > 2:
        return replay(workload, sys.argv[2])
    with tempfile.TemporaryDirectory(prefix="trace-") as out_dir:
        return replay(workload, out_dir)


if __name__ == "__main__":
    sys.exit(main())
