"""Tests for the storage (Table IV), power (Table V) and TRH-history
(Table I) models."""

import pytest

from repro.analysis.power import PowerModel
from repro.analysis.storage import PAPER_TABLE_IV_KB, StorageModel
from repro.analysis.thresholds import TRH_HISTORY, scaling_factor


class TestStorageModel:
    def test_rrs_rit_35kb_at_4800(self):
        model = StorageModel()
        assert model.breakdown(4800, "rrs").rit_bytes / 1024 == pytest.approx(35.0, rel=0.03)

    def test_scale_rit_9kb_at_4800(self):
        model = StorageModel()
        assert model.breakdown(4800, "scale-srs").rit_bytes / 1024 == pytest.approx(9.4, rel=0.1)

    def test_total_at_4800_matches_paper(self):
        model = StorageModel()
        assert model.breakdown(4800, "rrs").total_kb == pytest.approx(36.0, rel=0.03)
        assert model.breakdown(4800, "scale-srs").total_kb == pytest.approx(18.7, rel=0.05)

    def test_ratio_grows_toward_3x_at_1200(self):
        """Table IV's headline: ~3.3x less storage at TRH=1200."""
        model = StorageModel()
        assert model.storage_ratio(4800) == pytest.approx(2.0, abs=0.25)
        assert model.storage_ratio(1200) > 3.0

    def test_rit_scales_inverse_with_trh(self):
        model = StorageModel()
        assert model.rit_bytes(1200, "rrs") == pytest.approx(
            4 * model.rit_bytes(4800, "rrs"), rel=0.01
        )

    def test_structure_inventory(self):
        model = StorageModel()
        rrs = model.breakdown(1200, "rrs")
        scale = model.breakdown(1200, "scale-srs")
        assert rrs.place_back_buffer_bytes == 0
        assert rrs.pin_buffer_bytes == 0
        assert scale.place_back_buffer_bytes == 8 * 1024
        assert scale.epoch_register_bytes == pytest.approx(19 / 8)
        assert scale.pin_buffer_bytes > 0

    def test_pin_buffer_289_bytes_at_4800(self):
        model = StorageModel()
        assert model.breakdown(4800, "scale-srs").pin_buffer_bytes == pytest.approx(
            289, rel=0.01
        )

    def test_dram_counter_overhead(self):
        assert StorageModel().dram_counter_overhead_fraction() == pytest.approx(
            0.0005, rel=0.03
        )

    def test_rit_entry_bits(self):
        model = StorageModel()
        assert model.row_bits == 17
        assert model.rit_entry_bits == 36

    def test_table_covers_all_thresholds(self):
        table = StorageModel().table()
        assert set(table) == {4800, 2400, 1200}
        for row in table.values():
            assert set(row) == {"rrs", "scale-srs"}

    def test_paper_reference_data_shape(self):
        for trh, values in PAPER_TABLE_IV_KB.items():
            assert values["rrs_total"] > values["scale_total"], trh

    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError):
            StorageModel().breakdown(4800, "nope")


class TestPowerModel:
    def test_table_v_reproduced_at_4800(self):
        model = PowerModel()
        table = model.table(4800)
        assert table["rrs"].dram_overhead_percent == pytest.approx(0.5, rel=0.02)
        assert table["scale-srs"].dram_overhead_percent == pytest.approx(0.2, rel=0.02)
        assert table["rrs"].sram_power_mw == pytest.approx(903, rel=0.02)
        assert table["scale-srs"].sram_power_mw == pytest.approx(703, rel=0.03)

    def test_23_percent_sram_saving(self):
        assert PowerModel().sram_power_saving_percent(4800) == pytest.approx(23.0, abs=1.5)

    def test_dram_overhead_grows_at_lower_trh(self):
        model = PowerModel()
        assert model.dram_overhead_percent(1200, "rrs") > model.dram_overhead_percent(
            4800, "rrs"
        )

    def test_scale_always_cheaper(self):
        model = PowerModel()
        for trh in (4800, 2400, 1200):
            assert model.dram_overhead_percent(trh, "scale-srs") < model.dram_overhead_percent(trh, "rrs")
            assert model.sram_power_mw(trh, "scale-srs") < model.sram_power_mw(trh, "rrs")

    def test_unknown_design(self):
        with pytest.raises(ValueError):
            PowerModel().dram_overhead_percent(4800, "nope")


class TestThresholdHistory:
    def test_table_i_values(self):
        assert TRH_HISTORY["DDR3 (old)"] == 139_000
        assert TRH_HISTORY["LPDDR4 (new)"] == 4_800

    def test_29x_scaling(self):
        assert scaling_factor() == pytest.approx(29.0, abs=0.5)

    def test_monotone_story(self):
        """Newer generations within a family have lower thresholds."""
        assert TRH_HISTORY["DDR3 (new)"] < TRH_HISTORY["DDR3 (old)"]
        assert TRH_HISTORY["DDR4 (new)"] < TRH_HISTORY["DDR4 (old)"]
        assert TRH_HISTORY["LPDDR4 (new)"] < TRH_HISTORY["LPDDR4 (old)"]

    def test_unknown_generation(self):
        with pytest.raises(KeyError):
            scaling_factor(older="DDR9")
