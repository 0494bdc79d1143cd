"""Unit tests for the analysis helpers and workload generators."""

import random

import pytest

from repro.analysis import crossover, format_value, render_table
from repro.core import World
from repro.net import Area
from repro.workloads import TASK_CLASSES, adhoc_fleet, mixed_tasks, zipf_indices


class TestFormatValue:
    def test_bools(self):
        assert format_value(True) == "yes"
        assert format_value(False) == "no"

    def test_large_floats_grouped(self):
        assert format_value(1234567.0) == "1,234,567"

    def test_small_floats_scientific(self):
        assert "e" in format_value(0.0001)

    def test_zero(self):
        assert format_value(0.0) == "0"

    def test_strings_passthrough(self):
        assert format_value("abc") == "abc"


class TestRenderTable:
    def test_contains_title_headers_and_cells(self):
        text = render_table(
            "My Table", ["x", "value"], [[1, 10.0], [2, 20.0]], note="hello"
        )
        assert "My Table" in text
        assert "value" in text
        assert "20.0" in text
        assert "note: hello" in text

    def test_columns_aligned(self):
        text = render_table("T", ["a", "b"], [[1, 2], [100, 200]])
        lines = text.splitlines()
        # All data lines equal width.
        widths = {len(line) for line in lines[2:]}
        assert len(widths) == 1

    def test_empty_rows_ok(self):
        text = render_table("T", ["a"], [])
        assert "T" in text


class TestCrossover:
    def test_finds_first_win(self):
        a = [(1, 10), (2, 20), (3, 30)]
        b = [(1, 25), (2, 25), (3, 25)]
        assert crossover(a, b) == 3

    def test_none_when_never_wins(self):
        a = [(1, 10), (2, 20)]
        b = [(1, 100), (2, 100)]
        assert crossover(a, b) is None

    def test_immediate_win(self):
        a = [(1, 10)]
        b = [(1, 5)]
        assert crossover(a, b) == 1


class TestZipf:
    def test_count_and_range(self):
        rng = random.Random(1)
        draws = zipf_indices(rng, 10, 500)
        assert len(draws) == 500
        assert all(0 <= index < 10 for index in draws)

    def test_head_is_hotter_than_tail(self):
        rng = random.Random(2)
        draws = zipf_indices(rng, 10, 2000)
        assert draws.count(0) > draws.count(9) * 2

    def test_deterministic_under_seed(self):
        assert zipf_indices(random.Random(3), 5, 50) == zipf_indices(
            random.Random(3), 5, 50
        )

    def test_empty_catalogue_rejected(self):
        with pytest.raises(ValueError):
            zipf_indices(random.Random(0), 0, 10)

    def test_higher_exponent_more_skew(self):
        flat = zipf_indices(random.Random(4), 10, 2000, exponent=0.1)
        skewed = zipf_indices(random.Random(4), 10, 2000, exponent=2.5)
        assert skewed.count(0) > flat.count(0)


class TestAdhocFleet:
    def test_builds_trusting_fleet(self):
        world = World(seed=5)
        hosts = adhoc_fleet(world, 4, Area(100, 100))
        assert len(hosts) == 4
        # Mutual trust: any host trusts any other's key.
        assert hosts[0].truststore.trusts("n3")
        assert hosts[3].truststore.trusts("n0")

    def test_grid_placement_deterministic(self):
        world_a = World(seed=5)
        world_b = World(seed=99)
        a = adhoc_fleet(world_a, 5, Area(100, 100), placement="grid")
        b = adhoc_fleet(world_b, 5, Area(100, 100), placement="grid")
        assert [h.node.position for h in a] == [h.node.position for h in b]

    def test_random_placement_inside_area(self):
        world = World(seed=6)
        area = Area(50, 50)
        hosts = adhoc_fleet(world, 10, area)
        assert all(area.contains(h.node.position) for h in hosts)

    def test_unknown_placement_rejected(self):
        world = World(seed=7)
        with pytest.raises(ValueError):
            adhoc_fleet(world, 2, Area(10, 10), placement="teleport")


class TestMixedTasks:
    def test_count_and_classes(self):
        rng = random.Random(8)
        tasks = mixed_tasks(rng, 100)
        assert len(tasks) == 100
        names = {name for name, _profile in tasks}
        assert names <= set(TASK_CLASSES)
        assert len(names) >= 2  # genuinely mixed

    def test_profiles_carry_speeds(self):
        rng = random.Random(9)
        tasks = mixed_tasks(rng, 5, local_speed=0.3, remote_speed=2.0)
        for _name, profile in tasks:
            assert profile.local_speed == 0.3
            assert profile.remote_speed == 2.0

    def test_weights_sum_to_one(self):
        assert sum(spec["weight"] for spec in TASK_CLASSES.values()) == pytest.approx(
            1.0
        )
