"""Tests for rank refresh (Equation 4's time accounting).

Every rank refreshes for tRFC (350 ns) at each multiple of tREFI
(7.8 us). The memory system's read path starts an access issued inside
a refresh when that refresh ends; the batched engine inlines the same
arithmetic and is held to it by the engine-equivalence tests.
"""

import pytest

from repro.attacks.analytical import AttackParameters, JuggernautModel
from repro.controller.memory_system import MemorySystem
from repro.dram.config import DRAMOrganization, DRAMTiming, SystemConfig


def act_start(time):
    """When a read issued at ``time`` to an idle bank activates its row."""
    memory = MemorySystem(
        SystemConfig(organization=DRAMOrganization(rows_per_bank=4096))
    )
    memory.read(time, 0, 0, row=5)
    return memory.banks[0].last_act_time


class TestRefreshWindows:
    def test_in_refresh_at_interval_start(self):
        assert act_start(0.0) == 350.0
        assert act_start(349.9) == 350.0
        assert act_start(400.0) == 400.0

    def test_delay_through_pushes_past_refresh(self):
        assert act_start(100.0) == 350.0
        assert act_start(1000.0) == 1000.0

    def test_next_refresh_at(self):
        assert act_start(7799.0) == 7799.0
        assert act_start(7800.0) == 7800.0 + 350.0

    def test_refresh_instants_in_range(self):
        for k in range(3):
            assert act_start(k * 7800.0 + 1.0) == k * 7800.0 + 350.0

    def test_overhead_over_full_window_matches_equation_4(self):
        t = DRAMTiming()
        usable = JuggernautModel(AttackParameters(trh=4800, ts=800)).usable_time()
        expected = t.refresh_window - t.t_rfc * (t.refresh_window / t.t_refi)
        assert usable == pytest.approx(expected, rel=0.001)

    def test_partial_overlap_counted(self):
        # Issued halfway through the first refresh: waits out the rest.
        assert act_start(175.0) - 175.0 == pytest.approx(175.0)

    def test_invalid_timing_rejected(self):
        with pytest.raises(ValueError, match="tREFI must exceed tRFC"):
            MemorySystem(
                SystemConfig(timing=DRAMTiming(t_refi=100.0, t_rfc=200.0))
            )
