"""Tests for DRAM configuration (Table III constants and derived values)."""

import pytest

from repro.cpu.cache import SetAssociativeCache
from repro.dram.config import (
    DRAMOrganization,
    DRAMTiming,
    SystemConfig,
)


class TestDRAMTiming:
    def test_default_matches_table_iii(self):
        t = DRAMTiming()
        assert t.t_rc == 45.0
        assert t.t_rcd == t.t_rp == t.t_cas == 14.0
        assert t.t_rfc == 350.0
        assert t.t_refi == 7800.0
        assert t.refresh_window == 64_000_000.0

    def test_swap_latencies_match_rrs(self):
        t = DRAMTiming()
        assert t.t_swap == 2700.0
        assert t.t_reswap == 5400.0
        assert t.t_reswap == 2 * t.t_swap

    def test_refreshes_per_window_is_8192(self):
        # 64 ms / 7.8 us = 8205 in exact division; the paper (and JEDEC's
        # 8K refresh commands) use 8192.
        assert DRAMTiming().refreshes_per_window == pytest.approx(8192, rel=0.01)

    def test_max_activations_about_1_36_million(self):
        acts = DRAMTiming().max_activations_per_window
        assert 1_300_000 < acts < 1_400_000

    def test_max_activations_scales_with_window(self):
        half = DRAMTiming(refresh_window=32_000_000.0)
        full = DRAMTiming()
        ratio = full.max_activations_per_window / half.max_activations_per_window
        assert ratio == pytest.approx(2.0, rel=0.02)


class TestDRAMOrganization:
    def test_default_is_32gb(self):
        org = DRAMOrganization()
        assert org.total_banks * org.rows_per_bank * org.row_size_bytes == 32 * 1024**3

    def test_total_banks(self):
        assert DRAMOrganization().total_banks == 2 * 1 * 16

    def test_lines_per_row(self):
        assert DRAMOrganization().lines_per_row == 8 * 1024 // 64

    def test_total_rows(self):
        org = DRAMOrganization()
        assert org.total_banks * org.rows_per_bank == 32 * 128 * 1024


class TestSystemConfig:
    def test_core_cycle_at_3_2ghz(self):
        assert SystemConfig().core_cycle_ns == pytest.approx(0.3125)

    def test_llc_sets_for_8mb_16way(self):
        llc = SetAssociativeCache.from_config(SystemConfig())
        assert llc.num_sets == 8 * 1024 * 1024 // (64 * 16)

    def test_baseline_core_parameters(self):
        cfg = SystemConfig()
        assert cfg.num_cores == 8
        assert cfg.rob_size == 192
        assert cfg.fetch_width == 4
