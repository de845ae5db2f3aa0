"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list-workloads`` — the 78-workload suite with profiles.
- ``list-mitigations`` — registered mitigations and trackers.
- ``run`` — performance comparison of mitigations on one workload.
- ``sweep`` — normalized performance across TRH values (parallel).
- ``grid`` — a workloads x mitigations x TRH grid through the parallel
  experiment engine, with optional CSV/JSON export.
- ``trace record`` — dump a workload's per-core access streams to
  replayable USIMM trace files.
- ``trace info`` — summary statistics of a trace file or directory.
- ``attack`` — the Juggernaut model at a design point.
- ``security-sweep`` — time-to-break RRS/SRS across swap rates x TRH.
- ``outliers`` — the Figure 13 outlier-appearance model.
- ``storage`` — the Table IV storage model.
- ``power`` — the Table V power model.
- ``report`` — emit registered paper figures/tables (markdown + CSV)
  from the result store, executing only missing cells.
- ``store ls`` / ``store prune`` — inspect and clean a result store.

Mitigation and tracker choices are generated from
:mod:`repro.registry`, so a newly registered design shows up here with
no CLI change. Workload arguments are names everywhere: suite names
(``gcc``, ``synthetic:gcc``) and recorded traces
(``trace:/path/to/run``). The simulation commands take ``--engine
{scalar,auto}``; ``auto`` runs the batched engine, and engines are
bit-identical, so the flag only trades wall-clock time (see
:mod:`repro.sim.engine`).

``grid``, ``attack`` and ``security-sweep`` route through the
experiment engine (:mod:`repro.sim.experiment`),
so they share parallel execution (``--jobs``), CSV/JSON export, and
the persistent result store: ``--store DIR`` saves every completed
cell, ``--resume`` reuses stored cells bit-identically (rerun a killed
grid and only the missing cells execute), and ``--shard i/n`` runs one
digest-stable slice of the grid — ``n`` such runs cover the grid
exactly once, against a shared store or against one store each whose
``*.json`` files are then copied into one (see :mod:`repro.sim.store`).

``report`` sits on top of the same engine: every registered figure
(:mod:`repro.report`) resolves its grids against ``--store`` and only
missing cells execute, so ``repro report --all --store DIR`` run twice
prints ``report: executed 0`` the second time, and ``--shard i/n``
splits a full-paper reproduction across hosts.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis.power import PowerModel
from repro.analysis.storage import StorageModel
from repro.attacks.outliers import OutlierModel
from repro.dram.address import AddressMapper
from repro.dram.config import DRAMOrganization
from repro.registry import MITIGATIONS, TRACKERS
from repro.sim import (
    ExperimentSpec,
    ResultSet,
    ResultStore,
    SecurityParams,
    SimulationParams,
    parse_shard,
    record_workload,
    run_grid,
)
from repro.sim.engine import ENGINE_NAMES
from repro.sim.experiment import resolve_workload
from repro.workloads.columnar import ColumnarTrace
from repro.workloads.sources import TraceWorkload
from repro.workloads.suites import ALL_WORKLOADS, PROFILES
from repro.workloads.trace import load_trace_columns


def _cmd_list_workloads(args: argparse.Namespace) -> int:
    print(f"{'name':<16s}{'suite':<12s}{'mpki':>7s}{'hot rows':>10s}{'hot frac':>10s}")
    for spec in ALL_WORKLOADS:
        if args.suite and spec.suite != args.suite:
            continue
        profile = PROFILES.get(spec.components[0])
        if spec.is_mix:
            print(f"{spec.name:<16s}{spec.suite:<12s}{'mix of: ' + ', '.join(spec.components)}")
        else:
            print(
                f"{spec.name:<16s}{spec.suite:<12s}{profile.mpki:>7.1f}"
                f"{profile.hot_row_count:>10d}{profile.hot_access_fraction:>10.3f}"
            )
    return 0


def _cmd_list_mitigations(args: argparse.Namespace) -> int:
    print("mitigations:")
    for info in MITIGATIONS:
        rate = f"rate {info.default_swap_rate:g}" if info.default_swap_rate else "no swap rate"
        print(f"  {info.name:<14s}{rate:<14s}{info.description}")
    print("trackers:")
    for tracker in TRACKERS:
        print(f"  {tracker.name:<14s}{'':<14s}{tracker.description}")
    return 0


def _resolve_workloads(names: Sequence[str]) -> List[Any]:
    """Resolve every workload string before anything is planned.

    An unknown name or source prefix, or a ``trace:`` path with no
    trace files behind it, ends the command with a one-line error
    naming the string instead of a traceback from a cell.
    """
    workloads = []
    for name in names:
        try:
            workload = resolve_workload(name)
            core_files = getattr(workload, "core_files", None)
            if callable(core_files):
                core_files()
        except (KeyError, ValueError, OSError) as error:
            message = error.args[0] if error.args else error
            raise SystemExit(f"bad workload {name!r}: {message}")
        workloads.append(workload)
    return workloads


def _params_from_args(args: argparse.Namespace, trh: Optional[int] = None) -> SimulationParams:
    return SimulationParams(
        trh=trh if trh is not None else args.trh,
        num_cores=args.cores,
        requests_per_core=args.requests,
        time_scale=args.time_scale,
        tracker=args.tracker,
        engine=args.engine,
    )


def _open_store(path: str, create: bool = True) -> ResultStore:
    """The result store at ``path``, or a one-line exit when ``path`` is
    a regular file, unwritable, or an old packed store. ``create=False``
    never creates a missing directory (``store ls``/``prune`` only
    inspect)."""
    if not create and not os.path.isdir(path):
        raise SystemExit(f"no result store at {path}")
    try:
        return ResultStore(path)
    except ValueError as error:
        raise SystemExit(str(error))
    except OSError as error:
        raise SystemExit(
            f"cannot create result store directory {path}: "
            f"{error.strerror or error}"
        )


def _run_eval(
    spec: ExperimentSpec,
    args: argparse.Namespace,
    progress=None,
) -> ResultSet:
    """Run a spec through the engine with the shared store/shard flags.

    Every command sizes its worker pool from the pending cells' costs
    — serial when no cell pays for a worker's start-up
    (:func:`~repro.sim.pool.sized_pool`); ``--jobs N`` caps the worker
    count, ``--jobs 1`` runs serially in-process.
    """
    if args.resume and not args.store:
        raise SystemExit("--resume needs --store")
    return run_grid(
        spec,
        max_workers=args.jobs,
        progress=progress,
        store=_open_store(args.store) if args.store else None,
        reuse=args.resume,
        shard=args.shard,
    )


def _report_store(results: ResultSet, args: argparse.Namespace) -> None:
    """One-line store/shard accounting (greppable by CI's resume smoke).

    Also prints the workload plane's greppable accounting line
    (``workloads: generated N, decode hits K``) whenever the plane
    served a single-machine run — store or not; for a process pool it
    sums what the workers reported. Runs the plane never touched
    (analytical kinds) stay silent.
    """
    stats = results.run_stats
    if stats is None:
        return
    if stats.workloads:
        print(stats.workloads.line)
    if not args.store:
        return
    shard = f", shard {stats.shard[0]}/{stats.shard[1]}" if stats.shard else ""
    print(
        f"store: executed {stats.executed}, reused {stats.reused} of "
        f"{stats.planned} cells{shard} ({args.store})"
    )


def _export_results(
    results: ResultSet, args: argparse.Namespace, kind: str = "perf"
) -> None:
    """Write the set's --json/--csv exports when requested; ``kind``
    pins the CSV header even for an empty shard slice."""
    if getattr(args, "json", None):
        results.save(args.json)
        print(f"wrote {args.json}")
    if getattr(args, "csv", None):
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(results.to_csv(kind=kind))
        print(f"wrote {args.csv}")


def _shard_type(text: str):
    """argparse type for ``--shard`` surfacing parse_shard's hints
    (argparse swallows plain ValueError messages)."""
    try:
        return parse_shard(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _positive(
    cast: Callable[[str], Any], what: str, zero: bool = False
) -> Callable[[str], Any]:
    """An argparse type accepting only strictly positive (or, with
    ``zero``, non-negative) finite ``cast`` values; ``what`` names the
    value in the one-line error.

    A zero or negative size, threshold or rate would otherwise simulate
    nonsense or fail inside a cell with a traceback; a negative sample
    count would store a cell keyed apart from the zero-sample one."""

    def parse(text: str) -> Any:
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {cast.__name__} value: {text!r}"
            ) from None
        if not ((value > 0 or (zero and value == 0))
                and math.isfinite(value)):
            sign = "non-negative" if zero else "positive"
            raise argparse.ArgumentTypeError(f"{text} is not a {sign} {what}")
        return value

    return parse


#: ``--jobs``: a worker count; 1 runs serially in-process.
_worker_count = _positive(int, "worker count (use 1 for serial execution)")
#: Thresholds, core counts, request counts and the time scale.
_positive_int = _positive(int, "integer")
#: Swap rates (``TRH / TS``).
_positive_float = _positive(float, "number")
#: Monte-Carlo sample counts; 0 keeps the analytical model only.
_non_negative_int = _positive(int, "integer", zero=True)


def _rate_list(text: str) -> List[float]:
    """argparse type for ``--rates``: comma-separated positive rates."""
    return [_positive_float(rate) for rate in text.split(",")]


def _add_eval_options(
    parser: argparse.ArgumentParser, jobs: bool = True, export: bool = True
) -> None:
    """Engine-backed command knobs: parallelism, export, persistence."""
    if jobs:
        parser.add_argument("--jobs", type=_worker_count, default=None,
                            help="cap on worker processes (default: sized "
                                 "from the cells' costs)")
    if export:
        parser.add_argument("--csv", help="export the result set as CSV")
        parser.add_argument(
            "--json", help="export the result set (with parameters) as JSON"
        )
    parser.add_argument("--store", metavar="DIR",
                        help="persist completed cells in a result store")
    parser.add_argument("--resume", action="store_true",
                        help="reuse cells already in --store (skip them "
                             "bit-identically)")
    parser.add_argument("--shard", metavar="I/N", type=_shard_type,
                        help="run only this digest-stable slice of the grid "
                             "(e.g. 0/4; combine runs via a shared --store, "
                             "or copy each run's store entries into one)")


def _cmd_run(args: argparse.Namespace) -> int:
    _resolve_workloads([args.workload])
    spec = ExperimentSpec(
        workloads=[args.workload],
        mitigations=list(args.mitigations),
        base_params=_params_from_args(args),
    )
    results = run_grid(spec, max_workers=args.jobs)
    print(f"{'design':<14s}{'norm perf':>10s}{'swaps':>8s}{'pins':>6s}{'maxACT':>8s}")
    for result in results:
        norm = results.normalized(result) if result.mitigation != "baseline" else 1.0
        print(f"{result.mitigation:<14s}{norm:>10.4f}{result.swaps:>8d}"
              f"{result.pins:>6d}{result.max_row_activations:>8d}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    (workload,) = _resolve_workloads([args.workload])
    mitigations = list(dict.fromkeys(args.mitigations))
    spec = ExperimentSpec(
        workloads=[args.workload],
        mitigations=mitigations,
        base_params=_params_from_args(args, trh=args.trh[0]),
        grid={"trh": list(args.trh)},
    )
    results = run_grid(spec, max_workers=args.jobs)
    sweeps = {m: results.sweep(workload.name, m) for m in mitigations}
    print(f"{'TRH':>6s}" + "".join(f"{m:>14s}" for m in mitigations))
    for trh in sorted(set(args.trh), reverse=True):
        cells = "".join(
            f"{sweeps[m].get(trh, float('nan')):>14.4f}" for m in mitigations
        )
        print(f"{trh:>6d}{cells}")
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    _resolve_workloads(args.workloads)
    mitigations = list(dict.fromkeys(args.mitigations))
    spec = ExperimentSpec(
        workloads=list(args.workloads),
        mitigations=mitigations,
        base_params=_params_from_args(args, trh=args.trh[0]),
        grid={"trh": list(args.trh)},
    )
    def progress(done: int, total: int, result) -> None:
        if args.verbose:
            print(f"[{done}/{total}] {result.summary()}")

    results = _run_eval(spec, args, progress)
    if args.shard:
        # A shard holds an arbitrary slice of the grid (its baselines
        # may live in other shards), so print raw cell summaries; the
        # merged normalized tables come from a final --resume pass.
        for result in results:
            print(result.summary())
    else:
        for trh in sorted(set(args.trh), reverse=True):
            at_trh = results.filter(trh=trh)
            print(f"\n=== TRH = {trh} (normalized performance) ===")
            print(f"{'workload':<14s}" + "".join(f"{m:>14s}" for m in mitigations))
            for workload, row in at_trh.normalized_table().items():
                cells = "".join(
                    f"{row.get(m, float('nan')):>14.4f}" for m in mitigations
                )
                print(f"{workload:<14s}{cells}")
            means = at_trh.suite_geomeans()
            if "ALL" in means:
                cells = "".join(
                    f"{means['ALL'].get(m, float('nan')):>14.4f}"
                    for m in mitigations
                )
                print(f"{'GEOMEAN':<14s}{cells}")
        print()
    _report_store(results, args)
    _export_results(results, args, kind="perf")
    return 0


def _cmd_trace_record(args: argparse.Namespace) -> int:
    (workload,) = _resolve_workloads([args.workload])
    params = SimulationParams(
        num_cores=args.cores, requests_per_core=args.requests, seed=args.seed
    )
    paths = record_workload(
        workload, params, out_dir=args.out, compress=args.gzip
    )
    for path in paths:
        print(f"wrote {path}")
    print(
        f"replay with: python -m repro grid --workloads trace:{args.out} "
        f"--cores {args.cores} --requests {args.requests}"
    )
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    workload = TraceWorkload(path=args.path)
    mapper = AddressMapper(DRAMOrganization())
    try:
        files = workload.core_files()
        traces = []
        for path in files:
            columns = load_trace_columns(path)
            try:
                traces.append(ColumnarTrace.from_addresses(*columns, mapper))
            except ValueError as error:  # beyond the organization
                raise ValueError(f"{path}: {error}") from None
    except (OSError, ValueError) as error:  # missing, empty or malformed
        raise SystemExit(str(error))
    print(f"{'file':<28s}{'records':>9s}{'instrs':>12s}{'mpki':>8s}"
          f"{'writes':>8s}{'rows':>8s}")
    totals = [0, 0]
    for file_path, arrays in zip(files, traces):
        records = len(arrays)
        print(f"{os.path.basename(file_path):<28s}{records:>9d}"
              f"{arrays.total_instructions:>12d}{arrays.mpki:>8.2f}"
              f"{arrays.write_fraction:>8.3f}{arrays.row_footprint():>8d}")
        totals[0] += records
        totals[1] += arrays.total_instructions
    print(f"{'TOTAL':<28s}{totals[0]:>9d}{totals[1]:>12d}")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        kind="security",
        mitigations=["rrs", "srs"],
        base_params=SecurityParams(
            trh=args.trh,
            swap_rate=args.swap_rate,
            step=args.step,
            # The pre-engine attack command scanned SRS at max(100, step);
            # keep its numbers for any --step.
            srs_step=max(100, args.step),
            iterations=args.iterations,
        ),
    )
    results = _run_eval(spec, args)
    print(f"Juggernaut at TRH={args.trh}, swap rate {args.swap_rate}:")
    for result in results:
        if result.mitigation == "rrs":
            print(f"  RRS: N={result.rounds} k={result.required_guesses} "
                  f"G={result.guesses_per_window:.0f} -> {result.days:.4g} days")
        else:
            print(f"  SRS: {result.days:.4g} days "
                  f"({result.days / 365:.2f} years)")
        if result.mc_days_mean is not None:
            print(f"       Monte-Carlo ({result.iterations} iters): "
                  f"mean {result.mc_days_mean:.4g} days, "
                  f"median {result.mc_days_median:.4g}, "
                  f"p95 {result.mc_days_p95:.4g}")
    _report_store(results, args)
    _export_results(results, args, kind="security")
    return 0


def _cmd_security_sweep(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        kind="security",
        mitigations=["rrs", "srs"],
        base_params=SecurityParams(step=20, iterations=args.iterations),
        grid={"trh": list(args.trh), "swap_rate": args.rates},
    )
    results = _run_eval(spec, args)
    # Row order follows the requested rates (and TRH blocks), never
    # worker completion order: the engine returns cells in plan order
    # and the lookup below re-walks the requested axes.
    by_point = {
        (r.mitigation, r.trh, r.swap_rate): r
        for r in results
        if r.kind == "security"
    }
    mc = args.iterations > 0
    trhs, rates = dict.fromkeys(args.trh), dict.fromkeys(args.rates)
    for trh in trhs:
        if len(trhs) > 1:
            print(f"\n=== TRH = {trh} ===")
        header = f"{'rate':>6s}{'RRS (days)':>14s}{'SRS (days)':>14s}"
        if mc:
            header += f"{'RRS mc-mean':>14s}{'SRS mc-mean':>14s}"
        print(header)
        for rate in rates:
            # A --shard run holds only its slice; missing points print
            # as '-' (the merged table comes from a --resume pass).
            rrs = by_point.get(("rrs", trh, rate))
            srs = by_point.get(("srs", trh, rate))

            def fmt(value) -> str:
                return f"{value:>14.4g}" if value is not None else f"{'-':>14s}"

            row = f"{rate:>6.1f}" + fmt(rrs and rrs.days) + fmt(srs and srs.days)
            if mc:
                row += fmt(rrs and rrs.mc_days_mean) + fmt(srs and srs.mc_days_mean)
            print(row)
    _report_store(results, args)
    _export_results(results, args, kind="security")
    return 0


def _cmd_outliers(args: argparse.Namespace) -> int:
    model = OutlierModel(trh=args.trh, swap_rate=args.swap_rate)
    print(f"Outlier model at TRH={args.trh}, swap rate {args.swap_rate}:")
    print(f"  max swaps per window: {model.max_swaps_per_window}")
    for rows in (1, 2, 3, 4):
        days = model.time_to_appear_days(rows, k=max(1, int(args.swap_rate)))
        print(f"  {rows} outlier row(s): once per {days:.4g} days")
    return 0


def _cmd_storage(args: argparse.Namespace) -> int:
    model = StorageModel(direction_bit_optimization=args.direction_bit)
    print(f"{'TRH':>6s}{'RRS KB':>9s}{'Scale KB':>10s}{'ratio':>7s}")
    for trh in args.trh:
        rrs = model.breakdown(trh, "rrs")
        scale = model.breakdown(trh, "scale-srs")
        print(f"{trh:>6d}{rrs.total_kb:>9.1f}{scale.total_kb:>10.1f}"
              f"{rrs.total_bytes / scale.total_bytes:>7.2f}")
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    model = PowerModel()
    for design, row in model.table(args.trh).items():
        print(f"{design:<12s} DRAM {row.dram_overhead_percent:.2f}%  "
              f"SRAM {row.sram_power_mw:.0f} mW")
    print(f"on-chip saving: {model.sram_power_saving_percent(args.trh):.1f}%")
    return 0


def _report_config(args: argparse.Namespace) -> Any:
    """The report's :class:`~repro.report.ReportConfig`: its defaults
    with ``--requests``/``--cores``/``--full`` applied."""
    from repro.report import ReportConfig

    overrides: Dict[str, Any] = {}
    if args.requests is not None:
        overrides["requests"] = args.requests
    if args.cores is not None:
        overrides["cores"] = args.cores
    if args.full:
        overrides["full"] = True
    return ReportConfig(**overrides)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.report import (
        FIGURES,
        build_figure,
        figure_names,
        render_figure,
        resolve_figure,
        write_artifact,
    )

    if args.list:
        print(f"{'name':<22s}{'kind':<8s}description")
        for info in FIGURES:
            print(f"{info.name:<22s}{info.artifact:<8s}{info.description}")
        return 0
    names = list(figure_names()) if args.all else list(args.figures)
    if not names:
        raise SystemExit(
            "repro report: pick figures (--figure NAME...), --all, or --list"
        )
    known = set(figure_names())
    unknown = [name for name in names if name not in known]
    if unknown:
        raise SystemExit(
            f"unknown figures: {', '.join(unknown)}; "
            f"options: {', '.join(sorted(known))}"
        )
    if args.resume and not args.store:
        raise SystemExit("--resume needs --store")
    if args.shard and not args.store:
        raise SystemExit("--shard needs --store (shard runs write no artifacts)")
    config = _report_config(args)
    # Reuse is the point of a store: rerunning a finished report executes
    # nothing, and without --store the figures still share the cells they
    # have in common through a temporary store removed on exit.
    # --no-resume forces recompute.
    reuse = args.resume is not False
    planned = executed = reused = 0
    with tempfile.TemporaryDirectory(prefix="repro-report-") as scratch:
        store = _open_store(args.store or scratch)
        for name in names:
            info, spec = build_figure(name, config)
            data = resolve_figure(
                spec,
                store=store,
                jobs=args.jobs,
                reuse=reuse,
                shard=args.shard,
            )
            planned += data.stats.planned
            executed += data.stats.executed
            reused += data.stats.reused
            print(
                f"{name}: executed {data.stats.executed}, reused "
                f"{data.stats.reused} of {data.stats.planned} cells"
            )
            if args.shard:
                # A shard holds an arbitrary slice of every grid; artifacts
                # come from a final unsharded pass over the shared store.
                continue
            artifact = render_figure(info, spec, data)
            if args.out:
                for path in write_artifact(artifact, args.out):
                    print(f"wrote {path}")
            else:
                print()
                print(artifact.to_markdown())
    shard = f", shard {args.shard[0]}/{args.shard[1]}" if args.shard else ""
    print(
        f"report: executed {executed}, reused {reused} of "
        f"{planned} cells{shard}"
    )
    return 0


def _cmd_store_ls(args: argparse.Namespace) -> int:
    inventory = _open_store(args.dir, create=False).inventory()
    print(f"{'kind':<12s}{'schema':>7s}{'cells':>7s}")
    for (kind, version), count in sorted(inventory.live.items()):
        print(f"{kind:<12s}{f'v{version}':>7s}{count:>7d}")
    print(
        f"total {inventory.total} entries: "
        f"{sum(inventory.live.values())} live, "
        f"{len(inventory.stale)} stale, {len(inventory.corrupt)} corrupt"
    )
    if args.verbose:
        for path, reason in inventory.prunable:
            print(f"  {os.path.basename(path)}: {reason}")
    if inventory.prunable:
        print("run 'repro store prune' to remove stale/corrupt entries")
    return 0


def _cmd_store_prune(args: argparse.Namespace) -> int:
    removals = _open_store(args.dir, create=False).prune(dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    for path, reason in removals:
        print(f"{verb} {os.path.basename(path)}: {reason}")
    print(f"{verb} {len(removals)} entries")
    return 0


def _add_sim_options(
    parser: argparse.ArgumentParser,
    mitigation_names: List[str],
    tracker_names: List[str],
    default_mitigations: List[str],
    default_requests: int = 30_000,
) -> None:
    """Simulation knobs shared by run/sweep/grid, registry-driven."""
    parser.add_argument(
        "--mitigations",
        nargs="+",
        default=default_mitigations,
        choices=mitigation_names,
        help="registered mitigations to compare",
    )
    parser.add_argument("--cores", type=_positive_int, default=4)
    parser.add_argument("--requests", type=_positive_int,
                        default=default_requests,
                        help="memory requests per core")
    parser.add_argument("--time-scale", type=_positive_int, default=32)
    parser.add_argument(
        "--tracker",
        default="misra-gries",
        choices=tracker_names,
        help="registered aggressor-row tracker",
    )
    parser.add_argument(
        "--engine",
        default=SimulationParams.engine,
        choices=list(ENGINE_NAMES),
        help="simulation engine; engines are bit-identical, 'auto' "
             "runs the span-fused batched engine",
    )
    parser.add_argument("--jobs", type=_worker_count, default=None,
                        help="cap on worker processes "
                             "(default: sized from the cells' costs)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scalable and Secure Row-Swap (HPCA 2023) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mitigation_names = [
        info.name for info in MITIGATIONS if not info.is_baseline
    ]
    tracker_names = list(TRACKERS.names())

    p = sub.add_parser("list-workloads", help="list the 78-workload suite")
    p.add_argument("--suite", help="filter by suite name")
    p.set_defaults(func=_cmd_list_workloads)

    p = sub.add_parser(
        "list-mitigations", help="list registered mitigations and trackers"
    )
    p.set_defaults(func=_cmd_list_mitigations)

    p = sub.add_parser("run", help="performance comparison on one workload")
    p.add_argument("workload", help="suite name or trace:<path> replay spec")
    p.add_argument("--trh", type=_positive_int, default=1200)
    _add_sim_options(p, mitigation_names, tracker_names, ["rrs", "scale-srs"])
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="TRH sweep on one workload (parallel)")
    p.add_argument("workload", help="suite name or trace:<path> replay spec")
    p.add_argument("--trh", type=_positive_int, nargs="+",
                   default=[4800, 2400, 1200])
    _add_sim_options(p, mitigation_names, tracker_names, ["rrs", "scale-srs"],
                     default_requests=12_000)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "grid",
        help="workloads x mitigations x TRH grid (parallel, deduped baselines)",
    )
    p.add_argument("--workloads", "--workload", nargs="+",
                   default=["gcc", "lbm", "povray"],
                   help="suite names and/or trace:<path> replay specs")
    p.add_argument("--trh", type=_positive_int, nargs="+", default=[2400, 1200])
    p.add_argument("--csv", help="export the result set as CSV")
    p.add_argument("--json", help="export the result set (with parameters) as JSON")
    p.add_argument("--verbose", action="store_true", help="per-cell progress")
    _add_sim_options(p, mitigation_names, tracker_names, ["rrs", "scale-srs"],
                     default_requests=12_000)
    _add_eval_options(p, jobs=False, export=False)
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("trace", help="record and inspect USIMM trace files")
    trace_sub = p.add_subparsers(dest="trace_command", required=True)

    p = trace_sub.add_parser(
        "record",
        help="dump a workload's per-core access streams to trace files",
    )
    p.add_argument("workload", help="workload to record (name or source spec)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--gzip", action="store_true", help="gzip-compress the files")
    p.add_argument("--cores", type=_positive_int, default=4)
    p.add_argument("--requests", type=_positive_int, default=30_000,
                   help="memory requests per core")
    p.add_argument("--seed", type=int, default=2024)
    p.set_defaults(func=_cmd_trace_record)

    p = trace_sub.add_parser(
        "info", help="summary statistics of a trace file or directory"
    )
    p.add_argument("path", help="trace file or per-core trace directory")
    p.set_defaults(func=_cmd_trace_info)

    p = sub.add_parser(
        "attack", help="Juggernaut model at one design point"
    )
    p.add_argument("--trh", type=_positive_int, default=4800)
    p.add_argument("--swap-rate", type=_positive_float, default=6.0)
    p.add_argument("--step", type=_positive_int, default=10,
                   help="optimal-N scan granularity "
                        "(SRS scans at max(100, step))")
    p.add_argument("--iterations", type=_non_negative_int, default=0,
                   help="Monte-Carlo attack samples (0 = analytical only)")
    _add_eval_options(p)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser(
        "security-sweep",
        help="time-to-break across swap rates (x TRH), via the engine",
    )
    p.add_argument("--trh", type=_positive_int, nargs="+", default=[4800],
                   help="one table per TRH value")
    p.add_argument("--rates", type=_rate_list, default="6,7,8,9,10",
                   help="comma-separated swap rates")
    p.add_argument("--iterations", type=_non_negative_int, default=0,
                   help="Monte-Carlo attack samples (0 = analytical only)")
    _add_eval_options(p)
    p.set_defaults(func=_cmd_security_sweep)

    p = sub.add_parser("outliers", help="Figure 13 outlier model")
    p.add_argument("--trh", type=_positive_int, default=4800)
    p.add_argument("--swap-rate", type=_positive_float, default=3.0)
    p.set_defaults(func=_cmd_outliers)

    p = sub.add_parser("storage", help="Table IV storage model")
    p.add_argument("--trh", type=_positive_int, nargs="+",
                   default=[4800, 2400, 1200])
    p.add_argument("--direction-bit", action="store_true",
                   help="apply the Section VIII-4 RIT optimisation")
    p.set_defaults(func=_cmd_storage)

    p = sub.add_parser("power", help="Table V power model")
    p.add_argument("--trh", type=_positive_int, default=4800)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser(
        "report",
        help="emit registered paper figures/tables from the result store",
    )
    p.add_argument("--list", action="store_true",
                   help="list the registered figures and exit")
    p.add_argument("--figure", dest="figures", nargs="+", default=[],
                   metavar="NAME", help="figures to reproduce (see --list)")
    p.add_argument("--all", action="store_true",
                   help="reproduce every registered figure")
    p.add_argument("--out", metavar="DIR",
                   help="write <figure>.md/.csv artifacts here instead of "
                        "printing markdown")
    p.add_argument("--requests", type=_positive_int, default=None,
                   help="memory requests per core for perf figures "
                        "(default: 25000)")
    p.add_argument("--cores", type=_positive_int, default=None,
                   help="simulated cores for perf figures "
                        "(default: 4)")
    p.add_argument("--full", action="store_true",
                   help="per-workload figures over all 78 workloads")
    p.add_argument("--jobs", type=_worker_count, default=None,
                   help="cap on worker processes "
                        "(default: sized from the cells' costs)")
    p.add_argument("--store", metavar="DIR",
                   help="resolve figures against this result store "
                        "(only missing cells execute)")
    p.add_argument("--resume", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="reuse cells already in --store (default: on "
                        "whenever --store is given; --no-resume recomputes)")
    p.add_argument("--shard", metavar="I/N", type=_shard_type,
                   help="execute only this digest-stable slice of every "
                        "figure's cells into --store (no artifacts; render "
                        "with a final unsharded pass)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("store", help="inspect and clean a result store")
    store_sub = p.add_subparsers(dest="store_command", required=True)

    p = store_sub.add_parser(
        "ls", help="per-kind cell counts and schema versions"
    )
    p.add_argument("dir", help="result store directory")
    p.add_argument("--verbose", action="store_true",
                   help="list each stale/corrupt entry with its reason")
    p.set_defaults(func=_cmd_store_ls)

    p = store_sub.add_parser(
        "prune", help="remove stale/corrupt entries (version-mismatched, "
                      "unreadable)"
    )
    p.add_argument("dir", help="result store directory")
    p.add_argument("--dry-run", action="store_true",
                   help="report what would be removed without deleting")
    p.set_defaults(func=_cmd_store_prune)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # `repro ... | head` closed the pipe; exit quietly like a good
        # filter (and keep the interpreter's shutdown flush from
        # printing a second error).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
