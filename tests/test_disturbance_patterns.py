"""Tests for the disturbance physics and the classic attack patterns."""

import pytest

from repro.attacks.patterns import (
    double_sided,
    half_double,
    many_sided,
)
from repro.dram.disturbance import DisturbanceModel, FlipEvent


class TestDisturbanceModel:
    def test_distance_one_unit_weight(self):
        model = DisturbanceModel(1024, trh=100)
        model.on_activation(10, 0.0)
        assert model.disturbance(9) == 1.0
        assert model.disturbance(11) == 1.0

    def test_distance_two_weaker(self):
        model = DisturbanceModel(1024, trh=100, distance_factors=(1.0, 0.05))
        model.on_activation(10, 0.0)
        assert model.disturbance(8) == pytest.approx(0.05)
        assert model.disturbance(12) == pytest.approx(0.05)

    def test_flip_at_threshold(self):
        model = DisturbanceModel(1024, trh=5)
        for _ in range(5):
            model.on_activation(10, 0.0)
        assert model.any_flip()
        assert set(model.flipped_rows()) == {9, 11}

    def test_flip_recorded_once_per_row_per_window(self):
        """One event per row per window, carrying the first crossing's
        time and level; a later window records the row again."""
        model = DisturbanceModel(
            1024, trh=5, refresh_window=1000.0, distance_factors=(1.0,)
        )
        for step in range(8):
            model.on_activation(10, float(step))
        first = [
            FlipEvent(row=9, time=4.0, disturbance=5.0, window_index=0),
            FlipEvent(row=11, time=4.0, disturbance=5.0, window_index=0),
        ]
        assert model.flips == first
        # Restored by a refresh and crossing again: still one event.
        model.on_refresh(11, 10.0)
        for step in range(6):
            model.on_activation(10, 20.0 + step)
        assert model.disturbance(11) == 6.0
        assert model.flips == first
        for step in range(5):
            model.on_activation(10, 1500.0 + step)
        assert model.flips == first + [
            FlipEvent(row=9, time=1504.0, disturbance=5.0, window_index=1),
            FlipEvent(row=11, time=1504.0, disturbance=5.0, window_index=1),
        ]
        assert model.flipped_rows() == [9, 11]
        assert model.any_flip()

    def test_refresh_restores_victim(self):
        model = DisturbanceModel(1024, trh=10)
        for _ in range(5):
            model.on_activation(10, 0.0)
        model.on_refresh(11, 0.0)
        assert model.disturbance(11) == 0.0

    def test_refresh_disturbs_neighbours(self):
        """The half-double lever: a refresh is an activation."""
        model = DisturbanceModel(1024, trh=10)
        model.on_refresh(11, 0.0)
        assert model.disturbance(12) == 1.0
        assert model.disturbance(10) == 1.0
        assert model.disturbance(11) == 0.0

    def test_window_boundary_clears(self):
        model = DisturbanceModel(1024, trh=100, refresh_window=1000.0)
        model.on_activation(10, 0.0)
        model.on_activation(10, 1500.0)
        assert model.disturbance(11) == 1.0  # only the new window's ACT

    def test_edge_rows_ignored(self):
        model = DisturbanceModel(16, trh=100)
        model.on_activation(0, 0.0)  # row -1 / -2 out of range
        assert model.disturbance(1) == 1.0

    def test_hottest(self):
        model = DisturbanceModel(1024, trh=100)
        for _ in range(3):
            model.on_activation(10, 0.0)
        model.on_activation(50, 0.0)
        row, level = model.hottest()
        assert row in (9, 11)
        assert level == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DisturbanceModel(0, trh=10)
        with pytest.raises(ValueError):
            DisturbanceModel(10, trh=0)
        with pytest.raises(ValueError):
            DisturbanceModel(10, trh=10, distance_factors=())


class TestPatterns:
    def test_double_sided_sandwiches(self):
        rows = list(double_sided(10, 4))
        assert rows == [9, 11, 9, 11]
        with pytest.raises(ValueError):
            list(double_sided(0, 2))

    def test_many_sided_cycles_pairs(self):
        rows = list(many_sided([10, 20], 8))
        assert rows == [9, 11, 19, 21, 9, 11, 19, 21]
        with pytest.raises(ValueError):
            list(many_sided([], 4))

    def test_half_double_mostly_far(self):
        rows = list(half_double(10, 4096, near_touch_period=1024))
        assert rows.count(11) == 4
        assert rows.count(10) == 4096 - 4

    def test_half_double_validates(self):
        with pytest.raises(ValueError):
            list(half_double(10, 10, near_touch_period=1))

    def test_double_sided_flips_victim_first(self):
        """Physics check: the sandwiched victim accumulates twice as fast
        as the outer rows."""
        model = DisturbanceModel(1024, trh=100)
        for row in double_sided(10, 120):
            model.on_activation(row, 0.0)
        assert model.disturbance(10) == pytest.approx(120.0)
        assert model.disturbance(8) == pytest.approx(60.0)
        assert model.flipped_rows() == [10]
