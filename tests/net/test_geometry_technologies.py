"""Unit tests for geometry and link technology profiles."""

import random

import pytest

from repro.net import (
    Area,
    BLUETOOTH,
    DIALUP,
    GPRS,
    LAN,
    Position,
    WIFI_ADHOC,
)


class TestPosition:
    def test_distance(self):
        assert Position(0, 0).distance_to(Position(3, 4)) == 5.0

    def test_towards_moves_step(self):
        moved = Position(0, 0).towards(Position(10, 0), 4.0)
        assert moved == Position(4.0, 0.0)

    def test_towards_does_not_overshoot(self):
        target = Position(1, 0)
        assert Position(0, 0).towards(target, 100.0) == target

    def test_towards_zero_distance(self):
        here = Position(5, 5)
        assert here.towards(here, 1.0) == here


class TestArea:
    def test_contains(self):
        area = Area(100, 50)
        assert area.contains(Position(50, 25))
        assert not area.contains(Position(101, 25))
        assert not area.contains(Position(50, -1))

    def test_random_position_inside(self):
        area = Area(30, 40)
        rng = random.Random(1)
        for _ in range(100):
            assert area.contains(area.random_position(rng))

    def test_clamp(self):
        area = Area(10, 10)
        assert area.clamp(Position(-5, 20)) == Position(0, 10)


class TestTechnologies:
    def test_transfer_time(self):
        # 9600 bps -> 1200 bytes/s
        assert DIALUP.transfer_time(1200) == pytest.approx(1.0)

    def test_transfer_cost_gprs(self):
        assert GPRS.transfer_cost(1_000_000) == pytest.approx(6.0)

    def test_free_technologies_cost_nothing(self):
        for tech in (WIFI_ADHOC, BLUETOOTH, LAN):
            assert tech.transfer_cost(10_000_000) == 0.0

    def test_adhoc_flag(self):
        assert WIFI_ADHOC.is_adhoc
        assert BLUETOOTH.is_adhoc
        assert not GPRS.is_adhoc
        assert not LAN.is_adhoc

    def test_dialup_has_slow_setup(self):
        assert DIALUP.setup_s >= 10.0


class TestSpatialGrid:
    def _grid(self, cell=100.0):
        from repro.net import SpatialGrid

        return SpatialGrid(cell_size=cell)

    def test_insert_and_range_query(self):
        grid = self._grid()
        grid.insert("a", Position(0, 0))
        grid.insert("b", Position(50, 0))
        grid.insert("c", Position(500, 0))
        assert sorted(grid.near(Position(0, 0), 100.0)) == ["a", "b"]
        assert sorted(grid.near(Position(0, 0), 1000.0)) == ["a", "b", "c"]

    def test_query_radius_is_exact_not_cell_granular(self):
        grid = self._grid(cell=100.0)
        grid.insert("edge", Position(100.0, 0))
        grid.insert("outside", Position(100.1, 0))
        assert grid.near(Position(0, 0), 100.0) == ["edge"]

    def test_move_rebuckets(self):
        grid = self._grid()
        grid.insert("a", Position(0, 0))
        grid.move("a", Position(950, 950))
        assert grid.near(Position(0, 0), 200.0) == []
        assert grid.near(Position(1000, 1000), 200.0) == ["a"]

    def test_rebuild_preserves_items(self):
        grid = self._grid(cell=10.0)
        for index in range(20):
            grid.insert(f"n{index}", Position(index * 7.0, index * 3.0))
        grid.rebuild(150.0)
        assert grid.cell_size == 150.0
        assert len(grid) == 20
        assert sorted(grid.near(Position(0, 0), 10_000.0)) == sorted(
            f"n{index}" for index in range(20)
        )

    def test_negative_coordinates(self):
        grid = self._grid()
        grid.insert("neg", Position(-250.0, -50.0))
        assert grid.near(Position(-200, 0), 100.0) == ["neg"]

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            self._grid(cell=0.0)
