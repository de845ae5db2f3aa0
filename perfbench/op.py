"""One benchmark operation, run in a fresh interpreter by ``run.py``.

An operation is one workload run, exactly as a user command performs
it: ``report-cold`` and ``report-resume`` are ``repro report --all``
(build → resolve → render → write for every registered figure) against
an empty or a pre-filled store, ``grid-swap`` is ``repro grid`` over a
swap-design matrix. Everything uses the program's defaults (engine,
worker count, workload plane, chunking); only the scale and the seed
are pinned.

The result (timings, resource use, output digests, cell counts and,
with ``--trace``, per-layer metrics) is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time

WORKLOADS = ("report-cold", "report-resume", "grid-swap")

#: Pinned problem sizes. ``tiny`` exists for the benchmark's own tests.
SCALES = {
    "full": {"report_requests": 3000, "report_cores": 2,
             "grid_requests": 12000, "grid_cores": 4},
    "tiny": {"report_requests": 300, "report_cores": 1,
             "grid_requests": 1500, "grid_cores": 1},
}

GRID_WORKLOADS = ("gcc", "hmmer", "povray")
GRID_DESIGNS = ("rrs", "srs", "scale-srs")
GRID_TRH = (2400, 1200)

SHM_DIR = "/dev/shm"


def shm_segments() -> set:
    """Names of the program's shared-memory segments now alive."""
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith("repro-")}
    except OSError:
        return set()


def tree_digest(out_dir: str) -> str:
    """sha256 over every ``.md``/``.csv`` artifact (name and bytes)."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if not name.endswith((".md", ".csv")):
            continue
        with open(os.path.join(out_dir, name), "rb") as handle:
            content = handle.read()
        digest.update(name.encode() + b"\0")
        digest.update(hashlib.sha256(content).digest())
    return digest.hexdigest()


def report_pass(report, config, store_dir, out_dir, tracer=None) -> dict:
    """``repro report --all --store S --out O`` through its public calls."""
    planned = executed = reused = 0
    plane = None
    perf_cells = {}
    for name in report.figure_names():
        info, spec = report.build_figure(name, config)
        if tracer is not None:
            from layers import trace_analytic

            trace_analytic(tracer, spec)
        data = report.resolve_figure(spec, store=store_dir, jobs=None, reuse=True)
        artifact = report.render_figure(info, spec, data)
        report.write_artifact(artifact, out_dir)
        planned += data.stats.planned
        executed += data.stats.executed
        reused += data.stats.reused
        if data.stats.workloads is not None:
            plane = data.stats.workloads if plane is None else plane + data.stats.workloads
        for result in data.results.of_kind("perf"):
            params = result.params
            key = (result.workload, result.mitigation, repr(params))
            perf_cells[key] = params.num_cores * params.requests_per_core
    return {
        "planned": planned,
        "executed": executed,
        "reused": reused,
        "plane": plane,
        # A cold pass computes every distinct perf cell exactly once.
        "perf_requests": sum(perf_cells.values()) if executed else 0,
        "digest": tree_digest(out_dir),
    }


def grid_pass(sim, spec) -> dict:
    """``repro grid`` with default jobs and no store."""
    results = sim.run_grid(spec)
    stats = results.run_stats
    requests = sum(
        r.params.num_cores * r.params.requests_per_core for r in results
    )
    return {
        "planned": stats.planned,
        "executed": stats.executed,
        "reused": stats.reused,
        "plane": stats.workloads,
        "perf_requests": requests,
        "digest": hashlib.sha256(results.to_json().encode()).hexdigest(),
    }


def host_record() -> dict:
    """CPUs, interpreter, worker count and the engines defaults resolve to."""
    from repro.registry import MITIGATIONS
    from repro.sim.engine import resolve_engine_name
    from repro.sim.pool import available_cpu_count
    from repro.sim.simulator import SimulationParams

    params = SimulationParams()
    engines = {
        design: resolve_engine_name(params.engine, design, params.tracker)
        for design in ("baseline",) + GRID_DESIGNS
        if design in MITIGATIONS.names()
    }
    return {
        "cpu_count": os.cpu_count(),
        "cpu_available": available_cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workers": available_cpu_count(),
        "default_engine": params.engine,
        "engines": engines,
    }


def usage() -> tuple:
    """(CPU seconds of this process and its reaped workers, peak RSS in
    KiB of this process or its largest worker).

    This process's peak comes from ``VmHWM``: ``ru_maxrss`` would also
    count the spawning parent's memory, inherited until ``exec``.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                peak = int(line.split()[1])
    return cpu, max(peak, kids.ru_maxrss)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--work", required=True,
                        help="this operation's scratch directory")
    parser.add_argument("--result", required=True, help="JSON result path")
    parser.add_argument("--store-from",
                        help="pre-filled store to copy (report-resume)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="prepare, record the set-up time, and exit")
    args = parser.parse_args(argv)

    import repro  # noqa: F401  (set-up cost: importing the program)
    import repro.report as report
    import repro.sim as sim

    scale = SCALES[args.scale]
    store_dir = os.path.join(args.work, "store")
    out_dir = os.path.join(args.work, "out")
    if args.workload == "grid-swap":
        spec = sim.ExperimentSpec(
            workloads=list(GRID_WORKLOADS),
            mitigations=list(GRID_DESIGNS),
            grid={"trh": list(GRID_TRH)},
            base_params=sim.SimulationParams(
                num_cores=scale["grid_cores"],
                requests_per_core=scale["grid_requests"],
                time_scale=32,
                seed=args.seed,
            ),
        )
        store_dir = None
    else:
        config = report.ReportConfig(
            requests=scale["report_requests"],
            cores=scale["report_cores"],
            seed=args.seed,
        )
        if args.workload == "report-resume":
            if not args.store_from:
                parser.error("report-resume needs --store-from")
            shutil.copytree(args.store_from, store_dir)
        else:
            os.makedirs(store_dir)
    ready = time.monotonic()
    record = {"ready": ready, "host": host_record()}
    if args.setup_only:
        return _write(args.result, record)

    tracer = None
    if args.trace:
        from layers import install
        from tracer import Tracer

        spool = os.path.join(args.work, "spool")
        os.makedirs(spool)
        tracer = Tracer(spool)
        install(tracer)

    before = shm_segments()
    cpu0, _ = usage()
    record["start"] = time.monotonic()
    start = time.perf_counter()
    try:
        if store_dir is None:
            outcome = grid_pass(sim, spec)
        else:
            outcome = report_pass(report, config, store_dir, out_dir, tracer)
    finally:
        wall = time.perf_counter() - start
        record["end"] = time.monotonic()
        if tracer is not None:
            tracer.restore()
    cpu1, peak_kb = usage()
    plane = outcome.pop("plane")
    record.update(outcome)
    record.update({
        "wall_s": wall,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_kb / 1024.0,
        "leaked_shm": sorted(shm_segments() - before),
        "plane": {
            name: getattr(plane, name, 0)
            for name in ("generated", "attached", "trace_hits", "decode_hits")
        },
    })
    if tracer is not None:
        from layers import Spans, layer_metrics

        spans = Spans(tracer.collect(), os.getpid())
        record["layers"] = layer_metrics(
            spans, wall, store_dir, record["host"]["cpu_available"]
        )
    return _write(args.result, record)


def _write(path: str, record: dict) -> int:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
