"""Tests of the benchmark's own code.

Run from the repository root::

    python3 -m pytest perfbench -q

The smoke tests drive ``run.py`` end to end at the ``tiny`` scale (the
report workloads still take ~15-25 s each: the Monte-Carlo cells and
the Half-Double harness do not scale with the report's request count).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def bench(workload, trace=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in spec()[key]]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    assert "setup_s" in names


@pytest.mark.parametrize("workload", [w["name"] for w in spec()["workloads"]])
def test_smoke_passes_output_check(workload):
    result = last_json(bench(workload))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    result = last_json(bench("grid-swap", trace=1))
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec()["per_layer"]}
    # Pool workers were traced: their cells and engine drives show up.
    assert metrics["pool.cells"]["value"] == 21
    assert metrics["cell.perf_n"]["value"] == 21
    assert metrics["engine.drive_s"]["value"] > 0
    assert 0.5 < metrics["trace.coverage"]["value"] <= 1.0


def test_tracer_restores_every_wrapped_attribute(tmp_path):
    import repro.report  # noqa: F401  (binds the names the tracer rebinds)
    from layers import install
    from tracer import Tracer

    def snapshot():
        state = {}
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                state[(name, key)] = value
                if isinstance(value, type):
                    for attr, member in list(vars(value).items()):
                        state[(name, key, attr)] = member
        return state

    before = snapshot()
    tracer = Tracer(str(tmp_path))
    with tracer:
        install(tracer)
        wrapped = snapshot()
        assert sum(wrapped[k] is not before[k] for k in before) >= 20
        from repro.attacks.harness import hammer_pattern
        from repro.report.figures import motivation

        assert motivation.hammer_pattern is hammer_pattern
    after = snapshot()
    assert all(after[k] is before[k] for k in before)


def test_fails_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("grid-swap", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
