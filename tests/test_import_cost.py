"""Only computing code loads numpy and the process-pool stack.

Importing the package, planning, store reads, rendering and the
non-computing commands must load neither, so a fully reused resume pays
for neither. ``conftest.py`` already imports numpy into this process,
so every check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.sim import ExperimentSpec, SimulationParams, run_grid

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules only computing code may load.
HEAVY = (
    "numpy",
    "multiprocessing",
    "concurrent.futures",
    "concurrent.futures.process",
    "logging",
)

# Prints, as the script's last line, which HEAVY modules it loaded.
_REPORT = f"""
import json as _json, sys as _sys
print(_json.dumps([m for m in {HEAVY!r} if m in _sys.modules]))
"""

# One tiny rrs cell plus its baseline.
SPEC = ExperimentSpec(
    workloads=["povray"],
    mitigations=["rrs"],
    base_params=SimulationParams(
        trh=1200, num_cores=1, requests_per_core=800, time_scale=32
    ),
)


def run_script(tmp_path, body: str) -> list:
    """Run ``body`` as a script in a fresh interpreter; return the lines
    it printed, the last one decoded (the HEAVY modules it loaded)."""
    script = tmp_path / "probe.py"
    script.write_text(textwrap.dedent(body) + _REPORT)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(tmp_path),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[:-1] + [json.loads(lines[-1])]


def test_importing_the_package_loads_no_compute_stack(tmp_path):
    out = run_script(tmp_path, "import repro, repro.report, repro.sim, repro.cli")
    assert out == [[]]


def test_resumed_grid_loads_no_compute_stack(tmp_path):
    store = tmp_path / "store"
    assert run_grid(SPEC, store=str(store)).run_stats.executed == 2
    out = run_script(tmp_path, f"""
        from repro.sim import ExperimentSpec, SimulationParams, run_grid
        spec = ExperimentSpec(
            workloads=["povray"],
            mitigations=["rrs"],
            base_params=SimulationParams(
                trh=1200, num_cores=1, requests_per_core=800, time_scale=32
            ),
        )
        stats = run_grid(spec, store={str(store)!r}).run_stats
        print(stats.executed, stats.reused)
    """)
    assert out == ["0 2", []]


def test_analytic_report_loads_no_compute_stack(tmp_path):
    out = run_script(tmp_path, """
        from repro.cli import main
        main(["report", "--figure", "table4", "fig07",
              "--store", "store", "--out", "out"])
    """)
    assert out[-1] == []
    assert any(line.startswith("report: executed ") for line in out[:-1])
    assert (tmp_path / "out" / "table4.csv").is_file()
    assert (tmp_path / "out" / "fig07.csv").is_file()


def test_pooled_workers_inherit_numpy(tmp_path):
    """The pool loads numpy before it forks: a worker running a cell
    that imports nothing already holds it."""
    out = run_script(tmp_path, """
        import sys

        from repro.sim import ExperimentSpec, ProcessPool, plan_cells
        from repro.sim.pool import PoolTask


        def numpy_loaded(cell):
            return "numpy" in sys.modules


        if __name__ == "__main__":
            spec = ExperimentSpec(workloads=["povray"], mitigations=["rrs"])
            pending = list(enumerate(plan_cells(spec)))
            print("numpy" in sys.modules)
            recorded = []
            ProcessPool(2).run(PoolTask(pending, numpy_loaded, recorded.extend))
            print(sorted(recorded))
    """)
    assert out[:-1] == ["False", "[(0, True), (1, True)]"]
    assert "numpy" in out[-1]
