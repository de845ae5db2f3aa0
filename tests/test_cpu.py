"""Tests for the trace-driven core model and the LLC."""

import pytest

from repro.core.pin_buffer import PinBuffer
from repro.cpu.cache import SetAssociativeCache
from repro.cpu.core import TraceCore
from repro.dram.config import SystemConfig


class TestTraceCore:
    def test_compute_only_ipc_is_fetch_width(self):
        core = TraceCore(0, SystemConfig())
        for _ in range(100):
            core.advance_gap(399)
            core.issue_write()
        result = core.result()
        # All instructions retire at the fetch width (writes are posted).
        assert result.ipc == pytest.approx(4.0, rel=0.02)

    def test_read_latency_stalls_core(self):
        config = SystemConfig()
        core = TraceCore(0, config, max_outstanding=1)
        issue = core.advance_gap(0)
        core.issue_read(issue + 1000.0)  # 1 us miss
        core.advance_gap(0)
        core.issue_read(core.clock_ns + 1000.0)
        result_time = core.drain()
        assert result_time >= 2000.0  # serialised by max_outstanding=1

    def test_mlp_overlaps_reads(self):
        config = SystemConfig()
        serial = TraceCore(0, config, max_outstanding=1)
        parallel = TraceCore(1, config, max_outstanding=8)
        for core in (serial, parallel):
            for _ in range(8):
                issue = core.advance_gap(0)
                core.issue_read(issue + 500.0)
            core.drain()
        assert parallel.clock_ns < serial.clock_ns

    def test_rob_limits_runahead(self):
        config = SystemConfig()  # ROB 192
        core = TraceCore(0, config, max_outstanding=64)
        issue = core.advance_gap(0)
        core.issue_read(issue + 10_000.0)  # long miss
        # 300 instructions later the ROB must have filled and stalled.
        core.advance_gap(300)
        assert core.clock_ns >= 10_000.0

    def test_instruction_accounting(self):
        core = TraceCore(0, SystemConfig())
        core.advance_gap(9)
        core.issue_write()
        assert core.instructions == 10
        assert core.memory_writes == 1

    def test_negative_gap_rejected(self):
        core = TraceCore(0, SystemConfig())
        with pytest.raises(ValueError):
            core.advance_gap(-1)

    def test_invalid_outstanding(self):
        with pytest.raises(ValueError):
            TraceCore(0, SystemConfig(), max_outstanding=0)


class TestLLC:
    def test_hit_after_miss(self):
        cache = SetAssociativeCache(size_bytes=64 * 16 * 4, ways=4, line_bytes=64)
        assert not cache.access(0x1000)
        assert cache.access(0x1000)
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)

    def test_lru_eviction(self):
        cache = SetAssociativeCache(size_bytes=64 * 2 * 1, ways=2, line_bytes=64)
        # One set, 2 ways; same-set addresses stride by num_sets * 64.
        stride = cache.num_sets * 64
        cache.access(0)
        cache.access(stride)
        cache.access(0)  # touch 0 -> stride becomes LRU
        cache.access(2 * stride)  # evicts stride
        assert cache.access(0)
        assert not cache.access(stride)

    def test_pinned_lines_survive_pressure(self):
        cache = SetAssociativeCache(size_bytes=64 * 2 * 1, ways=2, line_bytes=64)
        stride = cache.num_sets * 64
        cache.access(0, pinned=True)
        for i in range(1, 10):
            cache.access(i * stride)
        assert cache.access(0)  # still resident
        assert cache.stats.pinned_evictions_refused > 0

    def test_fully_pinned_set_bypasses(self):
        cache = SetAssociativeCache(size_bytes=64 * 2 * 1, ways=2, line_bytes=64)
        stride = cache.num_sets * 64
        cache.access(0, pinned=True)
        cache.access(stride, pinned=True)
        assert not cache.access(2 * stride)  # miss, no allocation
        assert cache.stats.bypasses == 1
        assert not cache.access(2 * stride)  # still absent
        assert cache.access(0)  # pinned lines untouched

    def test_pin_row_installs_all_lines(self):
        pin_buffer = PinBuffer(num_entries=4, llc_ways=16)
        cache = SetAssociativeCache(pin_buffer=pin_buffer)
        pin_buffer.pin((0, 0, 0), 5)
        installed = cache.pin_row((0, 0, 0), 5, row_base_address=0x10000)
        assert installed == 8 * 1024 // 64
        assert cache.pinned_line_count == installed

    def test_occupancy(self):
        cache = SetAssociativeCache(size_bytes=64 * 16 * 4, ways=4)
        assert cache.occupancy() == 0.0
        cache.access(0)
        assert cache.occupancy() > 0.0

    def test_pinned_row_fraction_of_8mb_llc(self):
        """Section V-C: 3 rows = 48 KB per channel pair = 0.6% of 8 MB;
        66 rows ~ 6.5%."""
        config = SystemConfig()
        three_rows = 3 * 8 * 1024 * 2  # 3 rows x 2 channels
        assert three_rows / config.llc_size_bytes == pytest.approx(0.006, abs=0.001)
        sixty_six = 66 * 8 * 1024
        assert sixty_six / config.llc_size_bytes == pytest.approx(0.065, abs=0.005)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(size_bytes=1000, ways=3, line_bytes=64)
