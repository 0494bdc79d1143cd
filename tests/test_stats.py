"""Unit tests for the small-sample statistics helper."""

import pytest

from repro.analysis import proportion_ci95


class TestProportionCI:
    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            proportion_ci95(1, 0)
        with pytest.raises(ValueError):
            proportion_ci95(5, 4)

    def test_floor_at_half_trial(self):
        # All-success small samples still report nonzero uncertainty.
        assert proportion_ci95(6, 6) == pytest.approx(1.0 / 12)

    def test_widest_at_half(self):
        assert proportion_ci95(5, 10) > proportion_ci95(9, 10)
