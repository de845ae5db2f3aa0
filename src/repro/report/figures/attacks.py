"""Attack figures: Juggernaut against RRS/SRS (Figures 6, 7, 10 and
the Section III-C / Section VIII discussions).

The store-backed figures here grid the ``security`` evaluation kind —
time-to-break and required-guess curves are engine cells like any perf
point, so a report resumes and shards them identically. The multi-bank
and open-page/DDR5 discussions evaluate one-off attack variants
(channel ACT dilution, page-policy throttling) that the ``security``
kind does not parameterize, so each reads one ``model`` cell.
"""

from __future__ import annotations

from repro.registry import register_figure
from repro.report.render import Artifact, Table
from repro.report.spec import FigureData, FigureSpec, ReportConfig, model_spec
from repro.sim.evaluations import SecurityParams
from repro.sim.experiment import ExperimentSpec

#: The TRH series of every Juggernaut figure.
JUGGERNAUT_TRH_VALUES = (4800, 2400, 1200)
#: The paper's design-point swap rate.
JUGGERNAUT_SWAP_RATE = 6.0

#: Figure 6's attack-round axis and Monte-Carlo validation points.
FIG06_ROUNDS = tuple(range(0, 1401, 100))
FIG06_MC_ROUNDS = (1100, 1200, 1300)

#: Figure 7 samples the round axis twice as densely (k moves in steps).
FIG07_ROUNDS = tuple(range(0, 1401, 50))

#: Figure 10's swap-rate axis.
FIG10_SWAP_RATES = (6, 7, 8, 9, 10)


@register_figure(
    "fig06",
    title="Figure 6: time-to-break RRS with Juggernaut vs attack rounds",
    description="~4 hours at TRH=4800; latents alone break TRH<=2400",
)
def fig06(config: ReportConfig) -> FigureSpec:
    """Analytical curves over the round budget plus Monte-Carlo points.

    Two grids of the ``security`` kind: the analytical curves
    (``iterations=0``) and the k=2-regime validation cells
    (``iterations=20000``); they are distinct store cells, so the
    cheap curves never re-run because the expensive MC ones did.
    """
    curves = ExperimentSpec(
        kind="security",
        mitigations=["rrs"],
        base_params=SecurityParams(swap_rate=JUGGERNAUT_SWAP_RATE),
        grid={
            "trh": list(JUGGERNAUT_TRH_VALUES),
            "rounds": list(FIG06_ROUNDS),
        },
    )
    montecarlo = ExperimentSpec(
        kind="security",
        mitigations=["rrs"],
        base_params=SecurityParams(
            trh=4800,
            swap_rate=JUGGERNAUT_SWAP_RATE,
            iterations=20_000,
            probe_windows=100_000,
        ),
        grid={"rounds": list(FIG06_MC_ROUNDS)},
    )

    def render(data: FigureData) -> Artifact:
        cells = data.results.by("iterations", "trh", "rounds")
        curve_rows = [
            [n]
            + [
                cells[(0, trh, n)].days
                for trh in JUGGERNAUT_TRH_VALUES
            ]
            for n in FIG06_ROUNDS
        ]
        mc_rows = []
        for n in FIG06_MC_ROUNDS:
            cell = cells[(20_000, 4800, n)]
            mc_rows.append([n, cell.mc_days_mean, cell.days])
        return Artifact(
            tables=[
                Table(
                    name="curves",
                    columns=["rounds"]
                    + [f"trh{trh}" for trh in JUGGERNAUT_TRH_VALUES],
                    rows=curve_rows,
                ),
                Table(
                    name="montecarlo",
                    columns=["rounds", "experiment_days", "analytical_days"],
                    rows=mc_rows,
                ),
            ],
            notes=["time-to-break in days; Monte-Carlo at TRH=4800"],
        )

    return FigureSpec(specs=[curves, montecarlo], render=render)


@register_figure(
    "fig07",
    title="Figure 7: correct random guesses (k) required vs attack rounds",
    description="k falls stepwise with rounds; low TRH reaches k=0",
)
def fig07(config: ReportConfig) -> FigureSpec:
    """The required-guess staircase across the round budget."""
    spec = ExperimentSpec(
        kind="security",
        mitigations=["rrs"],
        base_params=SecurityParams(swap_rate=JUGGERNAUT_SWAP_RATE),
        grid={
            "trh": list(JUGGERNAUT_TRH_VALUES),
            "rounds": list(FIG07_ROUNDS),
        },
    )

    def render(data: FigureData) -> Artifact:
        cells = data.results.by("trh", "rounds")
        return Artifact(
            tables=[
                Table(
                    columns=["rounds"]
                    + [f"trh{trh}" for trh in JUGGERNAUT_TRH_VALUES],
                    rows=[
                        [n]
                        + [
                            cells[(trh, n)].required_guesses
                            for trh in JUGGERNAUT_TRH_VALUES
                        ]
                        for n in FIG07_ROUNDS
                    ],
                )
            ],
        )

    return FigureSpec(specs=[spec], render=render)


@register_figure(
    "fig10",
    title="Figure 10: time-to-break SRS vs RRS under Juggernaut",
    description="RRS falls in hours at any swap rate; SRS holds for years",
)
def fig10(config: ReportConfig) -> FigureSpec:
    """Optimal-round time-to-break per design, swap rate, and TRH."""
    spec = ExperimentSpec(
        kind="security",
        mitigations=["rrs", "srs"],
        base_params=SecurityParams(step=10, srs_step=200),
        grid={
            "trh": list(JUGGERNAUT_TRH_VALUES),
            "swap_rate": list(FIG10_SWAP_RATES),
        },
    )

    def render(data: FigureData) -> Artifact:
        cells = data.results.by("mitigation", "trh", "swap_rate")
        tables = [
            Table(
                name=design,
                columns=["swap_rate"]
                + [f"trh{trh}" for trh in JUGGERNAUT_TRH_VALUES],
                rows=[
                    [rate]
                    + [
                        cells[(design, trh, rate)].days
                        for trh in JUGGERNAUT_TRH_VALUES
                    ]
                    for rate in FIG10_SWAP_RATES
                ],
            )
            for design in ("rrs", "srs")
        ]
        return Artifact(
            tables=tables,
            notes=["time-to-break in days at the attacker-optimal budget"],
        )

    return FigureSpec(specs=[spec], render=render)


@register_figure(
    "sec3c-multibank",
    title="Section III-C: the multi-bank Juggernaut attack",
    description="channel ACT throughput dilutes the attack to ~10 years",
)
def sec3c_multibank(config: ReportConfig) -> FigureSpec:
    """Time-to-break vs banks hammered at TRH=4800 / rate 6."""

    def render(data: FigureData) -> Artifact:
        series = data.model("multi-bank")["days"]
        return Artifact(
            tables=[
                Table(
                    columns=["banks", "days", "years"],
                    rows=[
                        [banks, days, days / 365.0]
                        for banks, days in series.items()
                    ],
                )
            ],
        )

    return FigureSpec(specs=[model_spec("multi-bank")], render=render)


@register_figure(
    "disc-open-page",
    title="Section VIII: Juggernaut under open-page policy and DDR5",
    description="open page buys 10 days at TRH=4800; DDR5 halves the window",
)
def disc_open_page(config: ReportConfig) -> FigureSpec:
    """The page-policy and refresh-window discussion numbers."""

    def render(data: FigureData) -> Artifact:
        values = data.model("open-page")
        return Artifact(
            tables=[
                Table(
                    name="page-policy",
                    columns=["scenario", "days"],
                    rows=[
                        [label, days]
                        for label, days in values["results"].items()
                    ],
                ),
                Table(
                    name="ddr5",
                    columns=["swap_rate", "days"],
                    rows=[
                        [rate, days] for rate, days in values["ddr5"].items()
                    ],
                ),
            ],
            notes=["DDR5 rows: 32 ms refresh window, TRH=3100"],
        )

    return FigureSpec(specs=[model_spec("open-page")], render=render)
