"""Declarative figure specs: what cells a paper artifact is made of.

A :class:`FigureSpec` is the declarative description of one paper
figure or table: the :class:`~repro.sim.experiment.ExperimentSpec`
list whose cells hold the artifact's data (possibly of mixed
evaluation kinds — a figure may pair ``perf`` bars with ``security``
curves, or read its closed-form numbers from a ``model`` cell), and a
render hook turning the resolved data into a tabular
:class:`~repro.report.render.Artifact`.

Specs are built, not written: every figure registers a
``builder(config) -> FigureSpec`` hook with
:func:`repro.registry.register_figure`, and the :class:`ReportConfig`
argument carries the scaled-down simulation knobs (requests per core,
core count, full-suite switch) shared by the whole report, so one
definition serves both CI-sized smoke runs and full reproductions.

The key property: a spec never *runs* anything by itself. Resolution
(:func:`repro.report.planner.resolve_figure`) queries a
:class:`~repro.sim.store.ResultStore` through
:func:`~repro.sim.experiment.run_grid` and executes only the missing
cells, which is what makes full-paper reproduction incremental,
resumable, and shardable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Callable, List, Mapping, Optional, Sequence

from repro.sim.experiment import ExperimentSpec, ResultSet, RunStats
from repro.sim.simulator import SimulationParams
from repro.workloads.suites import ALL_WORKLOADS

#: Figure 14's detailed set (the >10% RRS slowdown club plus GUPS) and
#: one representative per remaining suite; MIXes contribute one entry.
#: This is the default workload subset of every per-workload perf figure
#: that the paper draws over all 78 workloads.
DETAILED_WORKLOADS = (
    "gups",
    "gcc",
    "hmmer",
    "bzip2",
    "zeusmp",
    "astar",
    "sphinx3",
    "xz_17",
    "soplex",
    "lbm",
    "mcf",
    "pr",
    "comm1",
    "canneal",
    "mummer",
    "povray",
    "mix1",
)


@dataclass(frozen=True)
class ReportConfig:
    """Scaled-down simulation knobs shared by every figure of a report.

    The paper simulates 1B instructions x 8 cores per cell; the
    reproduction runs structure-preserving scaled cells (see DESIGN.md).
    One config is threaded through every figure builder so a report is
    internally consistent — and so the benchmark tier and the CLI hit
    the *same* store cells when their knobs agree.

    Attributes:
        requests: Memory requests per simulated core (``perf`` cells).
        cores: Simulated cores per cell.
        time_scale: Threshold/size substitution factor (DESIGN.md).
        seed: Base RNG seed of every ``perf`` cell.
        tracker: Default aggressor-row tracker for ``perf`` cells.
        full: Draw per-workload figures over all 78 workloads instead
            of the detailed subset (tens of minutes).
    """

    requests: int = 25_000
    cores: int = 4
    time_scale: int = 32
    seed: int = 77
    tracker: str = "misra-gries"
    full: bool = False

    @classmethod
    def from_env(cls, **overrides: Any) -> "ReportConfig":
        """A config from the ``REPRO_BENCH_*`` environment knobs.

        ``REPRO_BENCH_REQUESTS``, ``REPRO_BENCH_CORES``, and
        ``REPRO_BENCH_FULL`` scale the report the same way they scale
        the benchmark tier; explicit ``overrides`` win over both.
        """
        values: dict = {}
        if "REPRO_BENCH_REQUESTS" in os.environ:
            values["requests"] = int(os.environ["REPRO_BENCH_REQUESTS"])
        if "REPRO_BENCH_CORES" in os.environ:
            values["cores"] = int(os.environ["REPRO_BENCH_CORES"])
        if os.environ.get("REPRO_BENCH_FULL", "0") == "1":
            values["full"] = True
        values.update(overrides)
        return cls(**values)

    def perf_workloads(self) -> List[str]:
        """The per-workload figure set (all 78 when ``full``)."""
        if self.full:
            return [w.name for w in ALL_WORKLOADS]
        return list(DETAILED_WORKLOADS)

    def perf_params(
        self, trh: int, tracker: Optional[str] = None
    ) -> SimulationParams:
        """This config's :class:`SimulationParams` at one threshold."""
        return SimulationParams(
            trh=trh,
            tracker=tracker or self.tracker,
            num_cores=self.cores,
            requests_per_core=self.requests,
            time_scale=self.time_scale,
            seed=self.seed,
        )

    def scaled(self, **overrides: Any) -> "ReportConfig":
        """A copy with ``overrides`` applied (CLI ``--requests`` etc.)."""
        return replace(self, **overrides)


@dataclass
class FigureData:
    """Everything a figure's render hook (and the benchmark tier's
    assertions) consume: the store-resolved results of its cells.

    Attributes:
        results: Results of every cell behind the figure, all specs
            merged (duplicates across specs deduplicated).
        config: The :class:`ReportConfig` the spec was built under.
        stats: Execution accounting summed over the spec's grids —
            ``executed`` is the number of cells actually computed (0
            when the store already held everything).
    """

    results: ResultSet
    config: ReportConfig
    stats: RunStats

    def model(self, name: str) -> Mapping[str, Any]:
        """The values of the figure's ``model`` cell ``name`` (see
        :data:`repro.sim.evaluations.MODELS`)."""
        return self.results.of_kind("model").by("mitigation")[name].values


@dataclass
class FigureSpec:
    """One paper artifact, declaratively.

    Attributes:
        specs: The experiment grids whose cells hold the figure's
            data; may mix evaluation kinds.
        render: ``FigureData -> Artifact`` hook laying the resolved
            data out as tables (see :mod:`repro.report.render`).
    """

    specs: Sequence[ExperimentSpec] = field(default_factory=list)
    render: Callable[[FigureData], Any] = lambda data: None
    #: The config the spec was built under; filled by
    #: :func:`repro.report.planner.build_figure` when the builder
    #: leaves it unset.
    config: Optional[ReportConfig] = None

    #: Always ``None`` (not a field: a figure's data are all cells).
    #: It exists only because ``perfbench/layers.py`` reads it.
    analytic = None


def model_spec(name: str) -> ExperimentSpec:
    """The one-cell grid of the ``model`` kind computing ``name`` (a
    :data:`repro.sim.evaluations.MODELS` key)."""
    return ExperimentSpec(kind="model", mitigations=[name])
