"""End-to-end benchmark of what users run: ``repro report`` and ``repro grid``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload report-cold --seed 77 \
        --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

- ``report-cold``   — every figure and table against an empty store;
- ``report-resume`` — the same against a store a cold pass filled
  during set-up (the store is filled once per run and copied into each
  operation's fresh directory);
- ``grid-swap``     — a swap-design grid (3 workloads x RRS/SRS/
  Scale-SRS x TRH 2400/1200), default jobs, no store.

Every operation runs in a fresh interpreter with the caller's
``REPRO_*`` settings cleared and private temp, store, output and trace
cache directories. Operations repeat until ``--seconds`` have passed
(at least one). With ``--trace 0`` the last stdout line carries the
end-to-end metrics (medians over the operations); with ``--trace 1``
one untraced and one traced operation give the per-layer metrics.
Output digests are checked against the recorded ones at the default
seed, and against the run's first result at any other seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "digests.json")

sys.path.insert(0, HERE)
from op import WORKLOADS  # noqa: E402

DEFAULT_SEED = 77
#: Set-ups measured per run at least (operations plus set-up probes).
MIN_SETUPS = 9
#: No operation starts later than this into the run (the run must end
#: well within three minutes).
START_DEADLINE_S = 60.0
OP_TIMEOUT_S = 70.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class OpFailed(Exception):
    """An operation crashed, timed out, or produced wrong output."""


class HostProbe:
    """Measures how fast the host runs right now, while operations run.

    The container shares its CPUs, caches and memory bandwidth with
    other tenants, and their load moves the program's wall time by
    tens of percent within a minute. While an operation runs, the
    orchestrator (a separate, otherwise idle process) times a short,
    fixed, memory-bound pure-Python kernel every ``PERIOD_S`` in thread
    CPU seconds, so waiting for a CPU does not count. When the
    operation keeps only some of the CPUs busy, the kernel runs on one
    of those: left alone, the scheduler would put it on an idle CPU,
    whose neighbours are not the program's. :meth:`factor` turns the
    mean of the samples taken during an interval into a speed factor,
    ``REFERENCE_S / mean``; end-to-end times are reported multiplied by
    it, i.e. in seconds on a host where the kernel takes
    ``REFERENCE_S``. The kernel is the benchmark's own code, so no
    change to the program moves it directly.
    """

    PERIOD_S = 0.1
    REFERENCE_S = 0.003

    def __init__(self) -> None:
        self._values = list(range(1_000_000))
        self._index = [(i * 7919) % len(self._values) for i in range(10_000)]
        self._cpus = os.sched_getaffinity(0)
        self.samples: list = []

    def sample(self, pid: int) -> None:
        """Time the kernel once, on a CPU process ``pid``'s tree runs on."""
        busy = running_cpus(pid) & self._cpus
        if busy and busy != self._cpus:
            os.sched_setaffinity(0, {min(busy)})
        try:
            start = time.thread_time()
            total = 0
            for i in self._index:
                total += self._values[i]
            self.samples.append((time.monotonic(), time.thread_time() - start))
        finally:
            # Operations spawned later inherit this process's CPU set.
            os.sched_setaffinity(0, self._cpus)

    def factor(self, start: float = 0.0, end: float = float("inf")) -> float:
        """Speed factor over ``[start, end]`` (monotonic seconds)."""
        inside = [c for t, c in self.samples if start <= t <= end]
        if len(inside) < 3:
            inside = [c for _, c in self.samples]
        return self.REFERENCE_S / statistics.fmean(inside)


def running_cpus(pid: int) -> set:
    """CPUs on which ``pid`` or one of its descendants is running now."""
    cpus, pending = set(), [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children",
                          encoding="ascii") as handle:
                    pending.extend(int(child) for child in handle.read().split())
        except (OSError, ValueError):
            continue  # the process ended meanwhile
        if fields[0] == "R":
            cpus.add(int(fields[36]))  # field 39, "processor"
    return cpus


def child_env(work: str) -> dict:
    """The caller's environment minus every ``REPRO_*`` knob, with the
    program's caches and temp files pointed into ``work``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["REPRO_TRACE_CACHE"] = os.path.join(work, "trace-cache")
    env["TMPDIR"] = work
    return env


class Runner:
    """Spawns operations and keeps the run's references and failures."""

    def __init__(self, workload: str, seed: int, scale: str, run_dir: str):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.run_dir = run_dir
        self.count = 0
        self.errors: list = []
        self.reference: dict = {}
        self.probe = HostProbe()
        with open(DIGESTS, encoding="utf-8") as handle:
            recorded = json.load(handle)
        if (recorded["seed"], recorded["scale"]) != (seed, scale):
            recorded = {}
        self.recorded = recorded

    def spawn(self, workload: str, *extra: str) -> dict:
        """Run one operation in a fresh interpreter, probing the host
        while it runs; returns its record with ``setup_s`` (spawn to
        ready) and ``factor`` (host speed over the timed section)."""
        self.count += 1
        work = os.path.join(self.run_dir, f"op{self.count}")
        os.makedirs(work)
        result = os.path.join(work, "result.json")
        log = os.path.join(work, "output.log")
        argv = [
            sys.executable, os.path.join(HERE, "op.py"),
            "--workload", workload, "--seed", str(self.seed),
            "--scale", self.scale, "--work", work, "--result", result,
            *extra,
        ]
        spawned = time.monotonic()
        with open(log, "w", encoding="utf-8") as sink:
            # Its own session, so a timeout also kills its pool workers.
            proc = subprocess.Popen(
                argv, cwd=work, env=child_env(work),
                stdout=sink, stderr=subprocess.STDOUT, start_new_session=True,
            )
            try:
                while proc.poll() is None:
                    if time.monotonic() - spawned > OP_TIMEOUT_S:
                        raise OpFailed(
                            f"{workload}: timed out after {OP_TIMEOUT_S:.0f} s"
                        )
                    self.probe.sample(proc.pid)
                    time.sleep(HostProbe.PERIOD_S)
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            with open(log, encoding="utf-8") as handle:
                output = handle.read()
            raise OpFailed(
                f"{workload}: exit {proc.returncode}\n{output[-4000:]}"
            )
        with open(result, encoding="utf-8") as handle:
            record = json.load(handle)
        record["setup_s"] = record["ready"] - spawned
        if "start" in record:
            record["factor"] = self.probe.factor(record["start"], record["end"])
        record["work"] = work
        return record

    def check(self, record: dict, resumed: bool) -> None:
        """Output check: digest, leaked segments, cell accounting.

        Both report workloads share one reference: a resumed report
        must reproduce the cold report's artifacts byte for byte.
        """
        if record["leaked_shm"]:
            raise OpFailed(f"leaked shared memory: {record['leaked_shm']}")
        if record["executed"] + record["reused"] != record["planned"]:
            raise OpFailed(f"cell accounting does not add up: {record}")
        if resumed and record["executed"] != 0:
            raise OpFailed(
                f"resume executed {record['executed']} cells, expected 0"
            )
        key = "grid-swap" if self.workload == "grid-swap" else "report"
        expected = self.recorded.get(key) or self.reference.get(key)
        if expected is None:
            self.reference[key] = record["digest"]
        elif record["digest"] != expected:
            raise OpFailed(
                f"{key} output digest {record['digest']} != {expected}"
            )

    def _extra(self, *extra: str) -> tuple:
        if self.workload == "report-resume":
            return ("--store-from", self.fill_store) + extra
        return extra

    def operation(self, *extra: str) -> dict:
        """Spawn and check one operation of this run's workload."""
        record = self.spawn(self.workload, *self._extra(*extra))
        self.check(record, resumed=self.workload == "report-resume")
        return record

    def setup_probe(self) -> float:
        """Set-up time of one more operation that stops once prepared."""
        return self.spawn(self.workload, *self._extra("--setup-only"))["setup_s"]

    def fill(self) -> None:
        """report-resume set-up: one cold pass fills the shared store
        (its artifacts become the resume's reference output)."""
        record = self.spawn("report-cold")
        self.check(record, resumed=False)
        self.fill_store = os.path.join(record["work"], "store")


def measure(runner: Runner, seconds: float, started: float) -> dict:
    """Operations until ``seconds`` pass; medians of the end-to-end
    metrics, times in reference-host seconds. Failed operations are
    counted, not measured."""
    ops, setups = [], []
    attempted = failed = 0
    begin = time.monotonic()
    while attempted == 0 or (
        time.monotonic() - begin < seconds
        and time.monotonic() - started < START_DEADLINE_S
    ):
        attempted += 1
        try:
            record = runner.operation()
        except OpFailed as error:
            failed += 1
            runner.errors.append(str(error))
            continue
        ops.append(record)
        setups.append(record["setup_s"])
    while ops and len(setups) < MIN_SETUPS:
        setups.append(runner.setup_probe())
    metrics = {}
    if ops:
        # Set-ups are too short to sample on their own: they take the
        # host speed of the whole run.
        run_factor = runner.probe.factor(begin)
        values = {
            "wall_s": statistics.median(r["wall_s"] * r["factor"] for r in ops),
            "cpu_s": statistics.median(r["cpu_s"] * r["factor"] for r in ops),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ops),
            "setup_s": statistics.median(setups) * run_factor,
        }
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()
        }
    raw = ("wall_s", "cpu_s", "setup_s", "factor", "executed", "reused",
           "digest")
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "host": ops[0]["host"] if ops else None,
            "ops": [{k: r[k] for k in raw} for r in ops],
            "setups": setups}


def traced(runner: Runner) -> dict:
    """One untraced and one traced operation; per-layer metrics."""
    plain = runner.operation()
    trace = runner.operation("--trace")
    if trace["digest"] != plain["digest"]:
        raise OpFailed("traced output differs from untraced output")
    layers = dict(trace["layers"])
    for name, value in trace["plane"].items():
        layers[f"workloads.{name}"] = value
    layers["run.executed_cells"] = plain["executed"]
    layers["run.reused_cells"] = plain["reused"]
    wall = plain["wall_s"] * plain["factor"]
    layers["run.sim_req_per_s"] = plain["perf_requests"] / wall
    layers["run.host_factor"] = plain["factor"]
    layers["trace.overhead_ratio"] = trace["wall_s"] * trace["factor"] / wall
    layers["host.cpu_available"] = plain["host"]["cpu_available"]
    return {"attempted": 2, "failed": 0, "host": plain["host"],
            "metrics": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="problem size (tiny: the benchmark's own tests)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    # Build step: byte-compile the program once, as an install would.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", SRC],
        check=True, stdout=subprocess.DEVNULL,
    )
    os.makedirs(WORK_ROOT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    runner = Runner(args.workload, args.seed, args.scale, run_dir)
    try:
        try:
            if args.workload == "report-resume":
                runner.fill()
            if args.trace:
                summary = traced(runner)
            else:
                summary = measure(runner, args.seconds, started)
        except OpFailed as error:
            runner.errors.append(str(error))
            summary = {"attempted": max(1, runner.count), "failed": 1,
                       "metrics": {}, "host": None}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for error in runner.errors:
        print(f"perfbench: FAILED: {error}", file=sys.stderr)
    print(json.dumps({"host": summary.get("host"), "workload": args.workload,
                      "seed": args.seed, "ops": summary.get("ops"),
                      "setups": summary.get("setups")}))
    metrics = summary["metrics"]
    if args.trace and metrics:
        metrics = {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in per_layer_units()
        }
    print(json.dumps({
        "correct": summary["failed"] == 0 and not runner.errors,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


def per_layer_units():
    """``(name, unit)`` of every per-layer metric BENCHMARK.json names."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


if __name__ == "__main__":
    sys.exit(main())
