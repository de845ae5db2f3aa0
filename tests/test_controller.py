"""Tests for the write queue, FR-FCFS arbiter, and memory system."""

import pytest

from repro.controller.memory_system import MemorySystem
from repro.controller.queues import PendingWrite, WriteQueue
from repro.controller.scheduler import FRFCFSArbiter
from repro.core.pin_buffer import PinBuffer
from repro.core.scale_srs import ScaleSecureRowSwap
from repro.dram.address import AddressMapper, DecodedAddress
from repro.dram.bank import Bank
from repro.dram.commands import PagePolicy
from repro.dram.config import DRAMOrganization, DRAMTiming, SystemConfig
from repro.sim.factory import make_mitigation_factory
from repro.trackers.base import ExactTracker


def small_config(window=1_000_000.0):
    return SystemConfig(
        timing=DRAMTiming(refresh_window=window),
        organization=DRAMOrganization(rows_per_bank=4096),
    )


class TestWriteQueue:
    def test_watermark_semantics(self):
        queue = WriteQueue(capacity=8, high_watermark=4, low_watermark=2)
        for i in range(4):
            queue.enqueue(PendingWrite(0.0, 0, i))
        issued = []
        queue.drain(issued.append)
        assert len(issued) == 2  # down to low watermark
        assert len(queue) == 2

    def test_drain_to_empty(self):
        queue = WriteQueue(capacity=8, high_watermark=4, low_watermark=2)
        queue.enqueue(PendingWrite(0.0, 0, 1))
        queue.drain(lambda w: None, to_empty=True)
        assert len(queue) == 0

    def test_drain_oldest_first(self):
        queue = WriteQueue(capacity=8, high_watermark=4, low_watermark=1)
        for i in range(4):
            queue.enqueue(PendingWrite(float(i), 0, i))
        issued = []
        queue.drain(issued.append)
        assert [w.row for w in issued] == [0, 1, 2]

    def test_overflow_raises(self):
        queue = WriteQueue(capacity=2, high_watermark=2, low_watermark=1)
        queue.enqueue(PendingWrite(0.0, 0, 1))
        queue.enqueue(PendingWrite(0.0, 0, 2))
        with pytest.raises(OverflowError):
            queue.enqueue(PendingWrite(0.0, 0, 3))

    def test_invalid_watermarks(self):
        with pytest.raises(ValueError):
            WriteQueue(capacity=4, high_watermark=5, low_watermark=1)


class TestFRFCFS:
    def test_row_hits_first(self):
        arbiter = FRFCFSArbiter()
        arbiter.enqueue(0.0, row=1, is_write=False)
        arbiter.enqueue(1.0, row=2, is_write=False)
        chosen = arbiter.select(open_row=2, now=10.0)
        assert chosen.row == 2  # younger, but a row hit
        assert arbiter.row_hit_grants == 1

    def test_fcfs_without_open_row(self):
        arbiter = FRFCFSArbiter()
        arbiter.enqueue(5.0, row=1, is_write=False)
        arbiter.enqueue(1.0, row=2, is_write=False)
        chosen = arbiter.select(open_row=None, now=10.0)
        assert chosen.row == 2  # older

    def test_future_arrivals_ineligible(self):
        arbiter = FRFCFSArbiter()
        arbiter.enqueue(100.0, row=1, is_write=False)
        assert arbiter.select(open_row=None, now=10.0) is None

    def test_drain_through_bank_open_page(self):
        bank = Bank(64, DRAMTiming(refresh_window=1e6), PagePolicy.OPEN)
        arbiter = FRFCFSArbiter()
        for i in range(6):
            arbiter.enqueue(0.0, row=i % 2, is_write=False)
        arbiter.drain_through_bank(bank, 0.0)
        assert bank.row_hits > 0  # FR-FCFS batched same-row requests

    def test_full_queue(self):
        arbiter = FRFCFSArbiter(max_queue=1)
        arbiter.enqueue(0.0, row=1, is_write=False)
        with pytest.raises(OverflowError):
            arbiter.enqueue(0.0, row=2, is_write=False)


class TestMemorySystem:
    """Banks are addressed by flat index: with one rank per channel,
    bank ``b`` of channel 0 is index ``b``."""

    def test_read_completes_with_latency(self):
        memory = MemorySystem(small_config())
        result, completion = memory.read(1000.0, 0, 0, row=5)
        assert completion > 1000.0
        assert result is not None  # not served by the LLC

    def test_reads_to_same_bank_serialise(self):
        memory = MemorySystem(small_config())
        _, first = memory.read(1000.0, 0, 0, row=5)
        _, second = memory.read(1000.0, 0, 0, row=6)
        assert second >= first

    def test_reads_to_different_banks_overlap(self):
        memory = MemorySystem(small_config())
        _, first = memory.read(1000.0, 0, 0, row=5)
        _, second = memory.read(1000.0, 0, 1, row=5)
        # Only bus serialisation (t_bl), not bank serialisation.
        assert second - first < 20.0

    def test_writes_buffered_then_drained(self):
        memory = MemorySystem(small_config())
        queue = memory.write_queues[0]
        for i in range(45):  # beyond the high watermark of 40
            memory.write(1000.0, 0, i % 4, row=i)
        assert len(queue) == 45
        assert memory.banks[1].stats.lifetime_activations == 0
        memory.read(2000.0, 0, 0, row=99)
        # The read drained the queue to its low watermark: 29 writes
        # (rows 0..28, oldest first) reached the banks, bank 1 holding
        # rows 1, 5, ..., 25.
        assert len(queue) == queue.low_watermark
        assert memory.banks[1].stats.lifetime_activations == 7

    def test_window_rollover_calls_end_window(self):
        config = small_config(window=10_000.0)
        factory = make_mitigation_factory(
            "rrs", trh=120, timing=config.timing, seed=1
        )
        memory = MemorySystem(config, factory)
        memory.read(5_000.0, 0, 0, row=1)
        memory.read(25_000.0, 0, 0, row=1)
        # Two boundaries crossed (10k, 20k): tracker state was reset.
        assert memory._next_window_end == 30_000.0

    def test_activation_notifies_tracker(self):
        config = small_config()
        factory = make_mitigation_factory("rrs", trh=60, timing=config.timing, seed=2)
        memory = MemorySystem(config, factory)
        time = 0.0
        for _ in range(12):  # TS = 10 -> one swap
            _, time = memory.read(time, 0, 0, row=7)
        assert memory.total_swaps() >= 1

    def test_pinned_row_served_by_llc(self):
        config = small_config()
        pins = PinBuffer()

        def factory(bank, key):
            engine = ScaleSecureRowSwap(
                bank, ExactTracker(10), pin_buffer=pins, bank_key=key
            )
            engine._pinned_rows.add(42)
            return engine

        memory = MemorySystem(config, factory)
        result, completion = memory.read(0.0, 0, 0, row=42)
        assert result is None  # served by the LLC
        assert completion == pytest.approx(config.llc_latency_ns)
        assert memory.llc_hits_from_pins == 1

    def test_request_address_roundtrip(self):
        """A decoded address reaches its bank through the flat index."""
        memory = MemorySystem(small_config())
        org = memory.config.organization
        mapper = AddressMapper(org)
        decoded = mapper.decode(
            mapper.encode(DecodedAddress(channel=1, rank=0, bank=3, row=17, column=0))
        )
        index = org.bank_index(decoded.channel, decoded.rank, decoded.bank)
        assert index == 1 * org.banks_per_channel + 3
        memory.read(0.0, decoded.channel, index, decoded.row)
        assert [bank.stats.count(17) for bank in memory.banks] == [
            int(i == index) for i in range(org.total_banks)
        ]

    def test_finalize_drains_writes(self):
        memory = MemorySystem(small_config())
        memory.write(0.0, 0, 0, row=1)
        assert len(memory.write_queues[0]) == 1
        assert memory.banks[0].stats.lifetime_activations == 0
        memory.finalize(10_000.0)
        assert len(memory.write_queues[0]) == 0
        assert memory.banks[0].stats.lifetime_activations == 1

    def test_max_row_activations_across_banks(self):
        memory = MemorySystem(small_config())
        time = 0.0
        for _ in range(5):
            _, time = memory.read(time, 0, 2, row=9)
        assert memory.max_row_activations() == 5
