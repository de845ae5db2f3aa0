"""The paper's 78-workload set, as synthetic profiles.

Suites and counts follow Section VI: GUPS, SPEC2006 (29), SPEC2017 (22),
GAP (6), COMMERCIAL (5), PARSEC (7), BIOBENCH (2) and 6 MIXes = 78
workloads. Profile parameters (memory intensity, hot-row structure,
footprint) are modelled per benchmark so that:

- the benchmarks Figure 14 singles out as losing >10% under RRS at
  ``TRH = 1200`` (hmmer, bzip2, gcc, zeusmp, astar, sphinx3, xz_17) have
  strong hot-row sets that cross the swap threshold repeatedly;
- streaming benchmarks (lbm, libquantum, bwaves, ...) have high intensity
  but no row reuse, so they swap rarely;
- GUPS hammers uniformly at very high intensity, which saturates the
  Misra-Gries tracker's spillover counter and forces swaps that way;
- compute-bound benchmarks barely touch memory and see no overhead.

Absolute MPKI values are representative, not measured; the reproduction
depends on the *relative* activation structure (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.workloads.synthetic import BenchmarkProfile, SyntheticTraceGenerator


def _p(
    name: str,
    suite: str,
    mpki: float,
    wr: float = 0.25,
    fp: int = 32 * 1024,
    hot: int = 0,
    hot_frac: float = 0.0,
    spread: int = 1,
    note: str = "",
) -> BenchmarkProfile:
    return BenchmarkProfile(
        name=name,
        suite=suite,
        mpki=mpki,
        write_fraction=wr,
        footprint_rows=fp,
        hot_row_count=hot,
        hot_access_fraction=hot_frac,
        spread_banks=spread,
        description=note,
    )


_PROFILES: List[BenchmarkProfile] = [
    # ------------------------------------------------------------- GUPS
    _p("gups", "GUPS", 120.0, wr=0.5, fp=256 * 1024,
       note="random updates over a huge table; saturates trackers"),
    # --------------------------------------------------------- SPEC2006
    # Hot sets are mildly-skewed (Zipf 0.3) groups of rows whose per-row
    # activation rates sit near the paper's ">800 per 64 ms" regime; the
    # fraction controls how many rows cross the swap threshold.
    _p("perlbench", "SPEC2K6", 1.2, fp=8 * 1024, hot=32, hot_frac=0.015),
    _p("bzip2", "SPEC2K6", 3.2, fp=16 * 1024, hot=64, hot_frac=0.14,
       note=">10% RRS slowdown at TRH=1200 (Fig. 14)"),
    _p("gcc", "SPEC2K6", 5.5, fp=24 * 1024, hot=64, hot_frac=0.28,
       note="worst case: 26.5% RRS slowdown at TRH=1200 (Fig. 14)"),
    _p("bwaves", "SPEC2K6", 18.0, fp=256 * 1024, note="streaming"),
    _p("gamess", "SPEC2K6", 0.4, fp=4 * 1024),
    _p("mcf", "SPEC2K6", 28.0, fp=512 * 1024, hot=256, hot_frac=0.03,
       note="pointer chasing over a big footprint"),
    _p("milc", "SPEC2K6", 15.0, fp=256 * 1024, note="streaming"),
    _p("zeusmp", "SPEC2K6", 5.0, fp=64 * 1024, hot=64, hot_frac=0.12,
       note=">10% RRS slowdown at TRH=1200 (Fig. 14)"),
    _p("gromacs", "SPEC2K6", 1.0, fp=8 * 1024),
    _p("cactusADM", "SPEC2K6", 6.0, fp=96 * 1024, hot=64, hot_frac=0.02),
    _p("leslie3d", "SPEC2K6", 12.0, fp=192 * 1024, note="streaming"),
    _p("namd", "SPEC2K6", 0.7, fp=8 * 1024),
    _p("gobmk", "SPEC2K6", 0.6, fp=4 * 1024),
    _p("dealII", "SPEC2K6", 1.5, fp=16 * 1024, hot=32, hot_frac=0.02),
    _p("soplex", "SPEC2K6", 9.0, fp=96 * 1024, hot=128, hot_frac=0.05),
    _p("povray", "SPEC2K6", 0.2, fp=2 * 1024),
    _p("calculix", "SPEC2K6", 0.8, fp=8 * 1024),
    _p("hmmer", "SPEC2K6", 1.8, fp=4 * 1024, hot=48, hot_frac=0.20,
       note="tiny hot working set; >10% RRS slowdown (Fig. 14)"),
    _p("sjeng", "SPEC2K6", 0.5, fp=4 * 1024),
    _p("GemsFDTD", "SPEC2K6", 14.0, fp=192 * 1024, note="streaming"),
    _p("libquantum", "SPEC2K6", 22.0, fp=64 * 1024, note="streaming"),
    _p("h264ref", "SPEC2K6", 0.9, fp=8 * 1024, hot=16, hot_frac=0.02),
    _p("tonto", "SPEC2K6", 0.5, fp=4 * 1024),
    _p("lbm", "SPEC2K6", 25.0, wr=0.45, fp=256 * 1024, note="streaming"),
    _p("omnetpp", "SPEC2K6", 10.0, fp=128 * 1024, hot=128, hot_frac=0.04),
    _p("astar", "SPEC2K6", 2.6, fp=24 * 1024, hot=48, hot_frac=0.13,
       note=">10% RRS slowdown at TRH=1200 (Fig. 14)"),
    _p("wrf", "SPEC2K6", 6.0, fp=96 * 1024, hot=64, hot_frac=0.02),
    _p("sphinx3", "SPEC2K6", 4.2, fp=32 * 1024, hot=64, hot_frac=0.15,
       note=">10% RRS slowdown at TRH=1200 (Fig. 14)"),
    _p("xalancbmk", "SPEC2K6", 2.2, fp=24 * 1024, hot=48, hot_frac=0.04),
    # --------------------------------------------------------- SPEC2017
    _p("perlbench_17", "SPEC2K17", 1.0, fp=8 * 1024, hot=32, hot_frac=0.015),
    _p("gcc_17", "SPEC2K17", 4.0, fp=24 * 1024, hot=64, hot_frac=0.10),
    _p("bwaves_17", "SPEC2K17", 16.0, fp=256 * 1024, note="streaming"),
    _p("mcf_17", "SPEC2K17", 20.0, fp=384 * 1024, hot=256, hot_frac=0.03),
    _p("cactuBSSN_17", "SPEC2K17", 7.0, fp=96 * 1024, hot=64, hot_frac=0.02),
    _p("namd_17", "SPEC2K17", 0.6, fp=8 * 1024),
    _p("parest_17", "SPEC2K17", 2.0, fp=24 * 1024, hot=64, hot_frac=0.03),
    _p("povray_17", "SPEC2K17", 0.2, fp=2 * 1024),
    _p("lbm_17", "SPEC2K17", 24.0, wr=0.45, fp=256 * 1024, note="streaming"),
    _p("wrf_17", "SPEC2K17", 5.0, fp=96 * 1024, hot=64, hot_frac=0.02),
    _p("blender_17", "SPEC2K17", 1.2, fp=16 * 1024, hot=16, hot_frac=0.01),
    _p("cam4_17", "SPEC2K17", 3.0, fp=48 * 1024, hot=64, hot_frac=0.02),
    _p("imagick_17", "SPEC2K17", 0.7, fp=8 * 1024),
    _p("nab_17", "SPEC2K17", 1.1, fp=8 * 1024),
    _p("fotonik3d_17", "SPEC2K17", 13.0, fp=192 * 1024, note="streaming"),
    _p("roms_17", "SPEC2K17", 10.0, fp=128 * 1024, note="streaming"),
    _p("xz_17", "SPEC2K17", 4.5, fp=32 * 1024, hot=64, hot_frac=0.15,
       note=">10% RRS slowdown at TRH=1200 (Fig. 14)"),
    _p("deepsjeng_17", "SPEC2K17", 0.8, fp=8 * 1024),
    _p("leela_17", "SPEC2K17", 0.4, fp=4 * 1024),
    _p("exchange2_17", "SPEC2K17", 0.1, fp=1024),
    _p("x264_17", "SPEC2K17", 0.9, fp=8 * 1024, hot=16, hot_frac=0.015),
    _p("omnetpp_17", "SPEC2K17", 8.0, fp=128 * 1024, hot=128, hot_frac=0.04),
    # -------------------------------------------------------------- GAP
    _p("bc", "GAP", 24.0, fp=384 * 1024, hot=128, hot_frac=0.07, spread=4,
       note="power-law hub vertices form hot rows"),
    _p("bfs", "GAP", 18.0, fp=384 * 1024, hot=128, hot_frac=0.04, spread=4),
    _p("cc", "GAP", 20.0, fp=384 * 1024, hot=128, hot_frac=0.04, spread=4),
    _p("pr", "GAP", 28.0, fp=384 * 1024, hot=128, hot_frac=0.08, spread=4,
       note="pagerank: frequent hub updates"),
    _p("sssp", "GAP", 22.0, fp=384 * 1024, hot=128, hot_frac=0.05, spread=4),
    _p("tc", "GAP", 12.0, fp=256 * 1024, hot=64, hot_frac=0.05, spread=4),
    # ------------------------------------------------------- COMMERCIAL
    _p("comm1", "COMMERCIAL", 16.0, wr=0.35, fp=192 * 1024, hot=128, hot_frac=0.06, spread=2),
    _p("comm2", "COMMERCIAL", 12.0, wr=0.35, fp=192 * 1024, hot=128, hot_frac=0.05, spread=2),
    _p("comm3", "COMMERCIAL", 9.0, wr=0.30, fp=128 * 1024, hot=96, hot_frac=0.04, spread=2),
    _p("comm4", "COMMERCIAL", 14.0, wr=0.35, fp=192 * 1024, hot=128, hot_frac=0.05, spread=2),
    _p("comm5", "COMMERCIAL", 10.0, wr=0.30, fp=128 * 1024, hot=96, hot_frac=0.04, spread=2),
    # ----------------------------------------------------------- PARSEC
    _p("blackscholes", "PARSEC", 1.0, fp=16 * 1024),
    _p("bodytrack", "PARSEC", 1.5, fp=16 * 1024, hot=32, hot_frac=0.03),
    _p("canneal", "PARSEC", 12.0, fp=256 * 1024, hot=128, hot_frac=0.02,
       note="random pointer chasing"),
    _p("facesim", "PARSEC", 4.0, fp=64 * 1024, hot=64, hot_frac=0.03),
    _p("ferret", "PARSEC", 3.0, fp=48 * 1024, hot=64, hot_frac=0.04),
    _p("fluidanimate", "PARSEC", 2.5, fp=48 * 1024, hot=32, hot_frac=0.02),
    _p("freqmine", "PARSEC", 2.0, fp=32 * 1024, hot=64, hot_frac=0.05),
    # --------------------------------------------------------- BIOBENCH
    _p("mummer", "BIOBENCH", 16.0, fp=256 * 1024, hot=128, hot_frac=0.04),
    _p("tigr", "BIOBENCH", 9.0, fp=128 * 1024, hot=96, hot_frac=0.06),
]

PROFILES: Dict[str, BenchmarkProfile] = {p.name: p for p in _PROFILES}


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload: a name plus the per-core benchmark assignment.

    Single-benchmark workloads run in *rate mode* (every core runs a
    private instance); MIX workloads assign different benchmarks per core,
    cycling when there are more cores than components.
    """

    name: str
    suite: str
    components: Tuple[str, ...]

    def profile_for_core(self, core_id: int) -> BenchmarkProfile:
        """The benchmark profile core ``core_id`` runs (cycling for mixes)."""
        return PROFILES[self.components[core_id % len(self.components)]]

    @property
    def is_mix(self) -> bool:
        """Whether the workload assigns different benchmarks per core."""
        return len(self.components) > 1

    def arrays_for_core(self, core_id, params, organization):
        """Columnar trace arrays for one core (the workload-source hook).

        Every workload source implements this method with the same
        signature; for synthetic workloads it seeds a
        :class:`SyntheticTraceGenerator` from the simulation parameters
        exactly as the simulator always has (``seed + 17 * core_id``),
        so recording and replaying preserve the per-core streams
        bit-for-bit.

        Args:
            core_id: The core the stream is for.
            params: A :class:`~repro.sim.simulator.SimulationParams`
                (only ``seed`` and ``requests_per_core`` are read).
            organization: The simulated DRAM organization.
        """
        generator = SyntheticTraceGenerator(
            self.profile_for_core(core_id),
            organization,
            seed=params.seed + 17 * core_id,
            core_id=core_id,
        )
        return generator.generate_arrays(params.requests_per_core)


_MIXES = [
    ("mix1", ("gcc", "lbm", "hmmer", "mcf")),
    ("mix2", ("bzip2", "libquantum", "sphinx3", "povray")),
    ("mix3", ("zeusmp", "milc", "astar", "namd")),
    ("mix4", ("xz_17", "bwaves_17", "gcc_17", "leela_17")),
    ("mix5", ("pr", "comm1", "canneal", "gobmk")),
    ("mix6", ("gups", "gcc", "lbm", "sjeng")),
]

ALL_WORKLOADS: List[WorkloadSpec] = (
    [WorkloadSpec("gups", "GUPS", ("gups",))]
    + [WorkloadSpec(p.name, p.suite, (p.name,)) for p in _PROFILES if p.suite != "GUPS"]
    + [WorkloadSpec(name, "MIX", comps) for name, comps in _MIXES]
)

SUITES: Tuple[str, ...] = (
    "GUPS",
    "SPEC2K6",
    "SPEC2K17",
    "GAP",
    "COMMERCIAL",
    "PARSEC",
    "BIOBENCH",
    "MIX",
)


def profile_by_name(name: str) -> BenchmarkProfile:
    """Look up a benchmark profile; raises ``KeyError`` with suggestions."""
    try:
        return PROFILES[name]
    except KeyError:
        close = [n for n in PROFILES if n.startswith(name[:3])]
        raise KeyError(f"unknown benchmark {name!r}; close matches: {close}") from None


def workloads_in_suite(suite: str) -> List[WorkloadSpec]:
    """All workloads of one suite (e.g. ``"GAP"``), suite order."""
    return [w for w in ALL_WORKLOADS if w.suite == suite]

