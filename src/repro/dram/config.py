"""Configuration objects for the DRAM substrate.

All time quantities are expressed in nanoseconds (``float``). The defaults
reproduce Table III of the paper: a 32 GB DDR4-3200 system with 2 channels,
1 rank per channel, 16 banks per rank, 128K rows of 8 KB per bank.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DRAMTiming:
    """DDR4 timing parameters (Table III).

    Attributes:
        t_rcd: ACT-to-column-command delay (ns).
        t_rp: Precharge latency (ns).
        t_cas: Column access strobe latency (ns).
        t_rc: Row cycle time -- minimum delay between two ACTs to the same
            bank (ns). Approximately 45 ns on DDR4.
        t_rfc: Refresh cycle time -- bank unavailability per refresh
            operation (ns).
        t_refi: Refresh interval -- average gap between refresh commands (ns).
        t_bl: Data burst duration on the bus for one 64 B transfer (ns).
        refresh_window: The rolling window within which a row must be
            refreshed, i.e. the Row Hammer epoch (ns). 64 ms for DDR4.
        t_swap: Latency of one full row-swap operation (ns). The paper and
            RRS use 2.7 us for exchanging two 8 KB rows within a bank.
        t_reswap: Latency of an unswap-swap (reswap) operation (ns); 5.4 us.
        t_counter: Latency of one swap-tracking-counter access in reserved
            DRAM (ns); one row access (tRC). Scaled simulations scale it
            together with t_swap because it is charged per mitigation
            event, not per demand access.
    """

    t_rcd: float = 14.0
    t_rp: float = 14.0
    t_cas: float = 14.0
    t_rc: float = 45.0
    t_rfc: float = 350.0
    t_refi: float = 7800.0
    t_bl: float = 5.0
    refresh_window: float = 64_000_000.0
    t_swap: float = 2_700.0
    t_reswap: float = 5_400.0
    t_counter: float = 45.0

    def __post_init__(self) -> None:
        # Each rank refreshes for tRFC at every multiple of tREFI; a
        # refresh that outlasts its interval leaves the bank no time.
        if self.t_refi <= self.t_rfc:
            raise ValueError("tREFI must exceed tRFC")

    @property
    def refreshes_per_window(self) -> int:
        """Number of refresh commands issued within one refresh window."""
        return int(self.refresh_window // self.t_refi)

    @property
    def max_activations_per_window(self) -> int:
        """Upper bound on ACTs a single bank can receive in one window.

        This is ``ACT_max`` in the paper (about 1.36 million for DDR4):
        the refresh window minus time spent refreshing, divided by tRC.
        """
        usable = self.refresh_window - self.t_rfc * self.refreshes_per_window
        return int(usable // self.t_rc)


@dataclass(frozen=True)
class DRAMOrganization:
    """Physical organization of the memory system (Table III)."""

    channels: int = 2
    ranks_per_channel: int = 1
    banks_per_rank: int = 16
    rows_per_bank: int = 128 * 1024
    row_size_bytes: int = 8 * 1024
    line_size_bytes: int = 64

    @property
    def total_banks(self) -> int:
        """Banks in the whole memory system."""
        return self.channels * self.ranks_per_channel * self.banks_per_rank

    @property
    def banks_per_channel(self) -> int:
        """Banks behind one channel: flat bank ``i`` is on channel
        ``i // banks_per_channel``."""
        return self.ranks_per_channel * self.banks_per_rank

    @property
    def lines_per_row(self) -> int:
        """Cache lines in one DRAM row."""
        return self.row_size_bytes // self.line_size_bytes

    def bank_index(self, channel, rank, bank):
        """Flat index of bank ``(channel, rank, bank)``: banks are numbered
        channel by channel, then rank by rank. Plain arithmetic, so it
        takes integers or numpy integer arrays alike."""
        return (channel * self.ranks_per_channel + rank) * self.banks_per_rank + bank


@dataclass(frozen=True)
class SystemConfig:
    """Full baseline system configuration (Table III).

    Bundles the DRAM organization and timing with the processor-side
    parameters used by the USIMM-style core and LLC models.
    """

    timing: DRAMTiming = field(default_factory=DRAMTiming)
    organization: DRAMOrganization = field(default_factory=DRAMOrganization)
    num_cores: int = 8
    core_clock_ghz: float = 3.2
    rob_size: int = 192
    fetch_width: int = 4
    retire_width: int = 4
    llc_size_bytes: int = 8 * 1024 * 1024
    llc_ways: int = 16
    llc_latency_ns: float = 10.0

    @property
    def core_cycle_ns(self) -> float:
        """Duration of one core clock cycle in nanoseconds."""
        return 1.0 / self.core_clock_ghz


DEFAULT_TIMING = DRAMTiming()
DEFAULT_ORGANIZATION = DRAMOrganization()
DEFAULT_SYSTEM = SystemConfig()
