"""The memory system facade: banks + mitigations + write queues + buses.

This is the component the performance simulator drives. Each request
flows: pin check (Scale-SRS) -> logical-to-physical translation through
the mitigation's RIT -> rank refresh alignment -> bank access -> channel
bus transfer -> tracker notification (which may trigger swaps that occupy
the bank). Writes are posted through per-channel write queues and drained
by watermark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.controller.queues import PendingWrite, WriteQueue
from repro.core.mitigation import BaselineMitigation, Mitigation
from repro.dram.address import AddressMapper
from repro.dram.bank import Bank
from repro.dram.channel import Channel
from repro.dram.commands import PagePolicy
from repro.dram.config import SystemConfig


MitigationFactory = Callable[[Bank, tuple], Mitigation]


@dataclass(slots=True)
class MemoryRequestOutcome:
    """Timing of one serviced read."""

    completion: float
    row_hit: bool
    served_by_llc: bool


def _baseline_factory(bank: Bank, bank_key: tuple) -> Mitigation:
    return BaselineMitigation(bank)


class MemorySystem:
    """All channels of the machine plus per-bank mitigation engines.

    Args:
        config: System configuration (Table III by default).
        mitigation_factory: Builds the per-bank mitigation; defaults to
            the not-secure baseline.
        policy: Row-buffer policy for all banks.
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        mitigation_factory: Optional[MitigationFactory] = None,
        policy: PagePolicy = PagePolicy.CLOSED,
    ):
        self.config = config or SystemConfig()
        org = self.config.organization
        timing = self.config.timing
        self.mapper = AddressMapper(org)
        self.policy = policy
        factory = mitigation_factory or _baseline_factory
        self.channels: List[Channel] = [
            Channel(org, timing, policy) for _ in range(org.channels)
        ]
        self._banks: List[Bank] = []
        self.mitigations: List[Mitigation] = []
        self._ranks_per_channel = org.ranks_per_channel
        self._banks_per_rank = org.banks_per_rank
        for ch_index, channel in enumerate(self.channels):
            for rk_index, rank in enumerate(channel.ranks):
                for bk_index, bank in enumerate(rank.banks):
                    self._banks.append(bank)
                    key = (ch_index, rk_index, bk_index)
                    self.mitigations.append(factory(bank, key))
        # Live per-bank views behind `Mitigation.resolve` and
        # `Mitigation.is_pinned` (see `Mitigation.resolve_map` and
        # `Mitigation.batch_pinned_view`); the request path reads row
        # indirection and LLC pins through them, as the fused loops do.
        self._resolve_maps = [m.resolve_map() for m in self.mitigations]
        self._pinned_views = [m.batch_pinned_view() for m in self.mitigations]
        self.write_queues: List[WriteQueue] = [WriteQueue() for _ in range(org.channels)]
        self._bus_free: List[float] = [0.0] * org.channels
        self._t_bl = timing.t_bl
        self._t_refi = timing.t_refi
        self._t_rfc = timing.t_rfc
        self._window = timing.refresh_window
        self._next_window_end = self._window
        self.llc_hits_from_pins = 0

    # ------------------------------------------------------------------
    # indexing helpers

    def bank_index(self, channel: int, rank: int, bank: int) -> int:
        return (channel * self._ranks_per_channel + rank) * self._banks_per_rank + bank

    def bank(self, channel: int, rank: int, bank: int) -> Bank:
        return self._banks[self.bank_index(channel, rank, bank)]

    def mitigation(self, channel: int, rank: int, bank: int) -> Mitigation:
        return self.mitigations[self.bank_index(channel, rank, bank)]

    # ------------------------------------------------------------------
    # window management

    def _roll_windows(self, time: float) -> None:
        banks_per_channel = self._ranks_per_channel * self._banks_per_rank
        while time >= self._next_window_end:
            boundary = self._next_window_end
            for mitigation in self.mitigations:
                mitigation.end_window(boundary)
            # Window-boundary bursts (the no-unswap ablation's chain
            # unravel) stream every migrated row through the controller's
            # swap buffers and the channel data bus, so the per-bank
            # bursts *serialise* per channel: the channel is frozen for
            # their sum (the paper's "system freeze" of Section II-F).
            for index, mitigation in enumerate(self.mitigations):
                burst = mitigation.epoch_blocking_until - boundary
                if burst > 0:
                    channel = index // banks_per_channel
                    base = max(self._bus_free[channel], boundary)
                    self._bus_free[channel] = base + burst
                mitigation.epoch_blocking_until = 0.0
            self._next_window_end += self._window

    # ------------------------------------------------------------------
    # request paths, decomposed into engine stages
    #
    # Every demand request flows through the same staged pipeline:
    #
    #   route    -- window roll, the mitigation's tick and the pin
    #               filter (inline at the top of `_read`/`_write`)
    #   service  -- refresh alignment (inline in `_read`) + row
    #               indirection + the bank state machine (`_service`)
    #   transfer -- channel data-bus serialization (inline in `_service`)
    #   observe  -- tracker notification, which may trigger swaps
    #               (the tail of `_service`)
    #
    # Reads run all four stages inline; writes stop after `route` (they
    # post into the channel write queue) and replay service/transfer/
    # observe later when the queue drains by watermark. The simulation
    # engines (`repro.sim.engine`) drive these stages through `_read`
    # and `_write`, which take the flat bank index the decoded trace
    # already carries; `read`/`write` are the coordinate-addressed
    # wrappers. The batched engine additionally fuses the stages for
    # spans the mitigation declares quiescent via
    # `Mitigation.batch_horizon`.

    def _service(
        self,
        channel: int,
        index: int,
        mitigation: Mitigation,
        start: float,
        row: int,
        is_write: bool = False,
    ):
        """Service/transfer/observe stages for one access to one bank."""
        remap = self._resolve_maps[index]
        result = self._banks[index].access(
            start, row if remap is None else remap.get(row, row), is_write
        )
        finish = result.finish
        bus = self._bus_free[channel]
        completion = (finish if finish > bus else bus) + self._t_bl
        self._bus_free[channel] = completion
        if result.activated:
            mitigation.on_activation(finish, row)
        return result, completion

    def _read(self, time: float, channel: int, index: int, row: int):
        """Demand read of ``row`` in flat bank ``index``.

        Returns ``(result, completion)``: the bank's
        :class:`~repro.dram.bank.AccessResult` (``None`` when the LLC
        served a pinned row) and the time the data arrives.
        """
        if time >= self._next_window_end:
            self._roll_windows(time)
        mitigation = self.mitigations[index]
        mitigation.tick(time)
        pinned = self._pinned_views[index]
        if pinned is not None and row in pinned:
            self.llc_hits_from_pins += 1
            return None, time + self.config.llc_latency_ns
        queue = self.write_queues[channel]
        if len(queue._queue) >= queue.high_watermark:
            self._drain_writes(channel, time)
        # Rank refresh alignment: every rank refreshes for tRFC at each
        # multiple of tREFI, so an access issued inside a refresh starts
        # when it ends.
        start = time
        if time % self._t_refi < self._t_rfc:
            start = int(time // self._t_refi) * self._t_refi + self._t_rfc
        return self._service(channel, index, mitigation, start, row)

    def read(
        self, time: float, channel: int, rank: int, bank: int, row: int
    ) -> MemoryRequestOutcome:
        """Service a demand read; returns its completion time."""
        index = (channel * self._ranks_per_channel + rank) * self._banks_per_rank + bank
        result, completion = self._read(time, channel, index, row)
        if result is None:
            return MemoryRequestOutcome(
                completion=completion, row_hit=False, served_by_llc=True
            )
        return MemoryRequestOutcome(
            completion=completion, row_hit=result.row_hit, served_by_llc=False
        )

    def _write(self, time: float, channel: int, index: int, row: int) -> None:
        """Post a write of ``row`` in flat bank ``index``."""
        if time >= self._next_window_end:
            self._roll_windows(time)
        pinned = self._pinned_views[index]
        if pinned is not None and row in pinned:
            self.llc_hits_from_pins += 1
            return
        queue = self.write_queues[channel]
        if len(queue._queue) >= queue.capacity:
            self._drain_writes(channel, time)
        queue.enqueue(PendingWrite(time, index, row))

    def write(self, time: float, channel: int, rank: int, bank: int, row: int) -> None:
        """Post a write into the channel's write queue."""
        index = (channel * self._ranks_per_channel + rank) * self._banks_per_rank + bank
        self._write(time, channel, index, row)

    def _drain_writes(self, channel: int, time: float, to_empty: bool = False) -> None:
        service = self._service
        mitigations = self.mitigations

        def issue(write: PendingWrite) -> None:
            arrival, index, row = write
            service(
                channel, index, mitigations[index],
                arrival if arrival > time else time, row, True,
            )

        self.write_queues[channel].drain(issue, to_empty=to_empty)

    def finalize(self, time: float) -> float:
        """End of simulation: drain writes and close activation windows.

        Designs with window-boundary bursts (the no-unswap ablation) still
        owe the unravel for the final partial window; its channel-freeze
        time is returned so the driver can charge it to the cores (the
        machine would be frozen for it before any further work).
        """
        for channel in range(len(self.channels)):
            self._drain_writes(channel, time, to_empty=True)
        banks_per_channel = self._ranks_per_channel * self._banks_per_rank
        channel_block = [0.0] * len(self.channels)
        for index, mitigation in enumerate(self.mitigations):
            mitigation.end_window(time)
            burst = mitigation.epoch_blocking_until - time
            if burst > 0:
                channel_block[index // banks_per_channel] += burst
            mitigation.epoch_blocking_until = 0.0
        for bank in self._banks:
            bank.stats.finalize(time)
        return max(channel_block) if channel_block else 0.0

    # ------------------------------------------------------------------
    # aggregate statistics

    def total_swaps(self) -> int:
        return sum(m.stats.swaps + m.stats.reswaps for m in self.mitigations)

    def total_mitigation_busy_ns(self) -> float:
        return sum(m.stats.busy_time for m in self.mitigations)

    def max_row_activations(self) -> int:
        """Highest per-location activation count seen in any window."""
        peak = 0
        for bank in self._banks:
            peak = max(peak, bank.stats.peak_row_activations())
        return peak
