"""Grid parsing and expansion (seeds: tests/experiment/test_table.py)."""

import pytest

from repro.sweep import (
    GridError,
    expand_grid,
    parse_axis,
    parse_grid,
)


class TestParsing:
    def test_single_axis(self):
        assert parse_axis("hosts=64,256,1024") == (
            "hosts",
            [64, 256, 1024],
        )

    def test_value_coercion(self):
        axis, values = parse_axis("mixed=true,2,2.5,leaf-spine")
        assert values == [True, 2, 2.5, "leaf-spine"]
        assert axis == "mixed"

    def test_grid_preserves_axis_order(self):
        grid = parse_grid(["b=1,2", "a=3"])
        assert list(grid) == ["b", "a"]

    def test_missing_equals_rejected(self):
        with pytest.raises(GridError):
            parse_axis("hosts")

    def test_empty_values_rejected(self):
        with pytest.raises(GridError):
            parse_axis("hosts=")

    def test_duplicate_axis_rejected(self):
        with pytest.raises(GridError):
            parse_grid(["hosts=1", "hosts=2"])


class TestExpansion:
    def test_cartesian_row_major_last_axis_fastest(self):
        grid = {"hosts": [64, 128], "alpha_ms": [5, 10]}
        assert expand_grid(grid) == [
            {"hosts": 64, "alpha_ms": 5},
            {"hosts": 64, "alpha_ms": 10},
            {"hosts": 128, "alpha_ms": 5},
            {"hosts": 128, "alpha_ms": 10},
        ]

    def test_empty_grid(self):
        assert expand_grid({}) == []
