"""Motivation artifacts: Table I, Figure 1a, and the half-double study.

The paper's opening case: thresholds have collapsed ~29x in eight years
(Table I), the random-guess attack RRS was designed against is
intractable (Figure 1a), and victim-focused mitigation loses the
half-double arms race while aggressor-focused row swaps do not
(Section II-E). Table I and Figure 1a each read one ``model`` cell; the
half-double study grids the ``hammer`` kind, one cell per defense,
pattern, and protected radius.
"""

from __future__ import annotations

# perfbench/test_perfbench.py checks that tracing rebinds this alias.
from repro.attacks.harness import hammer_pattern  # noqa: F401
from repro.registry import register_figure
from repro.report.render import Artifact, Table
from repro.report.spec import FigureData, FigureSpec, ReportConfig, model_spec
from repro.sim.evaluations import (
    FIG01A_SWAP_RATES,
    FIG01A_TRH_VALUES,
    HammerParams,
)
from repro.sim.experiment import ExperimentSpec

#: Section II-E's defenses, in table order.
HALF_DOUBLE_DEFENSES = ("trr", "para", "scale-srs")
#: Pattern lengths (activations) of Section II-E's rig.
DOUBLE_SIDED_HAMMERS = 2400
HALF_DOUBLE_HAMMERS = 300_000


@register_figure(
    "table1",
    title="Table I: demonstrated Row Hammer thresholds, 2014-2021",
    artifact="table",
    description="the ~29x threshold collapse motivating scalable defenses",
)
def table1(config: ReportConfig) -> FigureSpec:
    """Threshold history plus the DDR3-to-LPDDR4 scaling factor."""

    def render(data: FigureData) -> Artifact:
        values = data.model("trh-history")
        return Artifact(
            tables=[
                Table(
                    columns=["generation", "trh"],
                    rows=[
                        [generation, trh]
                        for generation, trh in values["history"].items()
                    ],
                )
            ],
            notes=[
                "DDR3(old) -> LPDDR4(new) scaling: "
                f"{values['scaling']:.1f}x"
            ],
        )

    return FigureSpec(specs=[model_spec("trh-history")], render=render)


@register_figure(
    "fig01a",
    title="Figure 1a: time-to-break RRS under the naive random-guess attack",
    description="the birthday-paradox attack needs months to millennia",
)
def fig01a(config: ReportConfig) -> FigureSpec:
    """Random-guess (birthday) attack days across swap rates and TRH."""

    def render(data: FigureData) -> Artifact:
        series = data.model("random-guess")["series"]
        return Artifact(
            tables=[
                Table(
                    columns=["swap_rate"]
                    + [f"trh{trh}" for trh in FIG01A_TRH_VALUES],
                    rows=[
                        [rate]
                        + [series[trh][i] for trh in FIG01A_TRH_VALUES]
                        for i, rate in enumerate(FIG01A_SWAP_RATES)
                    ],
                )
            ],
            notes=[
                "time-to-break in days; TRH=4800 / rate 6 exceeds "
                "700 days (the intro's ~3 years)"
            ],
        )

    return FigureSpec(specs=[model_spec("random-guess")], render=render)


@register_figure(
    "motiv-half-double",
    title="Section II-E: half-double defeats victim-focused mitigation",
    description="VFM loses the radius arms race; aggressor swaps do not",
)
def motiv_half_double(config: ReportConfig) -> FigureSpec:
    """Double-sided and half-double patterns against TRR/PARA/Scale-SRS.

    The four 300k-activation half-double cells take two grids, since
    only TRR sweeps the radius (TRR at radius 1 and 2, then PARA and
    Scale-SRS). The figure resolves as one plan, whose pool gives each
    of those four long cells a worker.
    """
    half_double = HammerParams(
        pattern="half-double", hammers=HALF_DOUBLE_HAMMERS
    )
    specs = [
        ExperimentSpec(
            kind="hammer",
            mitigations=list(HALF_DOUBLE_DEFENSES),
            base_params=HammerParams(
                pattern="double-sided", hammers=DOUBLE_SIDED_HAMMERS
            ),
        ),
        ExperimentSpec(
            kind="hammer",
            mitigations=["trr"],
            base_params=half_double,
            grid={"radius": [1, 2]},
        ),
        ExperimentSpec(
            kind="hammer",
            mitigations=["para", "scale-srs"],
            base_params=half_double,
        ),
    ]

    def render(data: FigureData) -> Artifact:
        cells = data.results.by("mitigation", "pattern", "radius")

        def outcome(defense: str, pattern: str, radius: int = 1) -> str:
            cell = cells[(defense, pattern, radius)]
            if cell.any_flip:
                return "FLIP " + ",".join(
                    str(row) for row in cell.flipped_rows
                )
            return "held"

        rows = [
            [
                defense,
                outcome(defense, "double-sided"),
                outcome(defense, "half-double"),
            ]
            for defense in HALF_DOUBLE_DEFENSES
        ]
        rows.append(["trr-radius2", "-", outcome("trr", "half-double", 2)])
        return Artifact(
            tables=[
                Table(
                    columns=["defense", "double_sided", "half_double"],
                    rows=rows,
                )
            ],
        )

    return FigureSpec(specs=specs, render=render)
