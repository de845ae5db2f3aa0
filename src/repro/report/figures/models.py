"""Model figures: outliers, storage, power, and the design-space studies
(Figure 13, Tables IV-V, Sections V-C, VIII-4, IX).

Every figure here reads one ``model`` cell (a
:data:`repro.sim.evaluations.MODELS` entry): the outlier sweep, the
Table IV storage and Table V power models, the LLC provisioning rig,
and the related-work comparators. They are stored like every other
cell, so a resumed report reads them back.
"""

from __future__ import annotations

from repro.registry import register_figure
from repro.report.render import Artifact, Table
from repro.report.spec import FigureData, FigureSpec, ReportConfig, model_spec
from repro.sim.evaluations import FIG13_SWAP_RATES, TABLE_TRH_VALUES


@register_figure(
    "fig13",
    title="Figure 13: time-to-appear of outlier rows vs swap rate",
    description="3-swap outliers once per ~31 days license rate-3 pinning",
)
def fig13(config: ReportConfig) -> FigureSpec:
    """Outlier-row rarity sweeps plus the paper's two anchors."""

    def render(data: FigureData) -> Artifact:
        values = data.model("outliers")
        return Artifact(
            tables=[
                Table(
                    columns=["swap_rate", "three_outliers", "four_outliers"],
                    rows=[
                        [
                            rate,
                            values["sweep_3rows"][i],
                            values["sweep_4rows"][i],
                        ]
                        for i, rate in enumerate(FIG13_SWAP_RATES)
                    ],
                )
            ],
            notes=[
                f"{label}: {value:.1f}"
                for label, value in values["anchors"].items()
            ],
        )

    return FigureSpec(specs=[model_spec("outliers")], render=render)


@register_figure(
    "table4",
    title="Table IV: on-chip storage per bank, RRS vs Scale-SRS",
    artifact="table",
    description="36 vs 18.7 KB at TRH=4800, growing to ~3.3x at 1200",
)
def table4(config: ReportConfig) -> FigureSpec:
    """Per-bank SRAM inventory of both designs across TRH."""

    def render(data: FigureData) -> Artifact:
        values = data.model("storage")
        rows = []
        for trh in TABLE_TRH_VALUES:
            rrs = values["breakdown"][trh]["rrs"]
            scale = values["breakdown"][trh]["scale-srs"]
            rows.append(
                [
                    trh,
                    rrs["rit_bytes"] / 1024.0,
                    rrs["total_bytes"] / 1024.0,
                    scale["rit_bytes"] / 1024.0,
                    scale["total_bytes"] / 1024.0,
                    rrs["total_bytes"] / scale["total_bytes"],
                ]
            )
        overhead = values["dram_counter_fraction"]
        return Artifact(
            tables=[
                Table(
                    columns=[
                        "trh",
                        "rrs_rit_kb",
                        "rrs_total_kb",
                        "scale_rit_kb",
                        "scale_total_kb",
                        "ratio",
                    ],
                    rows=rows,
                )
            ],
            notes=[
                "DRAM swap-counter overhead: "
                f"{overhead * 100:.3f}% of capacity"
            ],
        )

    return FigureSpec(specs=[model_spec("storage")], render=render)


@register_figure(
    "table5",
    title="Table V: extra power per channel",
    artifact="table",
    description="DRAM 0.5% vs 0.2%; SRAM 903 vs 703 mW (23% lower)",
)
def table5(config: ReportConfig) -> FigureSpec:
    """Power overheads of both designs across TRH (the paper's table is
    the TRH=4800 row; the lower rows extrapolate)."""

    def render(data: FigureData) -> Artifact:
        breakdown = data.model("power")["breakdown"]
        rows = [
            [
                trh,
                design,
                breakdown[trh][design]["dram_overhead_percent"],
                breakdown[trh][design]["sram_power_mw"],
            ]
            for trh in TABLE_TRH_VALUES
            for design in ("rrs", "scale-srs")
        ]
        rrs = breakdown[4800]["rrs"]["sram_power_mw"]
        scale = breakdown[4800]["scale-srs"]["sram_power_mw"]
        saving = (1.0 - scale / rrs) * 100.0
        return Artifact(
            tables=[
                Table(
                    columns=[
                        "trh",
                        "design",
                        "dram_overhead_percent",
                        "sram_power_mw",
                    ],
                    rows=rows,
                )
            ],
            notes=[
                f"Scale-SRS on-chip power saving at TRH=4800: {saving:.1f}%"
            ],
        )

    return FigureSpec(specs=[model_spec("power")], render=render)


@register_figure(
    "sec5c-llc",
    title="Section V-C: LLC provisioning for pinned outlier rows",
    description="worst case 66 pinned rows = ~6.5% of the LLC, once in years",
)
def sec5c_llc(config: ReportConfig) -> FigureSpec:
    """The pin-buffer/LLC worst-case installation rig."""

    def render(data: FigureData) -> Artifact:
        values = data.model("llc-pinning")
        llc_bytes = values["llc_size_bytes"]
        rows = [
            [
                "pin buffer (bytes)",
                values["pin_buffer_bytes"],
                f"{values['pin_entries']} x {values['pin_entry_bits']} bits",
            ],
            [
                "single-bank worst case (KB)",
                values["single_bank_bytes"] / 1024,
                f"{100 * values['single_bank_bytes'] / llc_bytes:.2f}% of LLC",
            ],
            [
                "multi-bank worst case (KB)",
                values["multi_bank_bytes"] / 1024,
                f"{100 * values['multi_bank_bytes'] / llc_bytes:.2f}% of LLC",
            ],
        ]
        return Artifact(
            tables=[Table(columns=["quantity", "value", "detail"], rows=rows)],
            notes=[
                "single-bank event rarity: once per "
                f"{values['rarity_days']:.0f} days"
            ],
        )

    return FigureSpec(specs=[model_spec("llc-pinning")], render=render)


@register_figure(
    "relwork-comparators",
    title="Section IX / VIII-4: the aggressor-focused design space",
    description="BlockHammer DoS, AQUA reservation, direction-bit RIT",
)
def relwork_comparators(config: ReportConfig) -> FigureSpec:
    """BlockHammer/AQUA/direction-bit comparisons, measured."""

    def render(data: FigureData) -> Artifact:
        out = data.model("comparators")
        rows = [
            [label, out[key]]
            for label, key in (
                ("BlockHammer throttle delay (us/ACT)", "throttle_delay_us"),
                ("BlockHammer benign row blacklisted", "dos_blacklisted"),
                ("BlockHammer DoS delay (us/ACT)", "dos_delay_us"),
                ("AQUA reserved fraction", "aqua_reserved_fraction"),
                ("AQUA migrations", "aqua_migrations"),
                ("AQUA home-row ACTs", "aqua_home_acts"),
                ("Scale-SRS swaps", "scale_swaps"),
                ("Scale-SRS home-row ACTs", "scale_home_acts"),
                ("Scale-SRS RIT @1200 (KB)", "scale_rit_kb_1200"),
                ("  with direction bit (KB)", "scale_rit_kb_1200_opt"),
                ("storage ratio with direction bit", "ratio_1200_opt"),
            )
        ]
        return Artifact(tables=[Table(columns=["quantity", "value"], rows=rows)])

    return FigureSpec(specs=[model_spec("comparators")], render=render)
