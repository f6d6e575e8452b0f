"""Speedups and crossovers."""

import numpy as np
import pytest

from repro.analysis.compare import crossover_point, speedup
from repro.errors import ConfigError


class TestSpeedup:
    def test_basic(self):
        assert speedup(2.0, 1.0) == pytest.approx(2.0)

    def test_invalid(self):
        with pytest.raises(ConfigError):
            speedup(1.0, 0.0)


class TestCrossover:
    def test_interpolated_crossing(self):
        x = [0.0, 1.0, 2.0]
        a = [0.0, 1.0, 2.0]
        b = [1.0, 1.0, 1.0]
        assert crossover_point(x, a, b) == pytest.approx(1.0)

    def test_no_crossing(self):
        x = [0.0, 1.0]
        assert crossover_point(x, [0.0, 0.5], [1.0, 2.0]) is None

    def test_nonfinite_points_skipped(self):
        x = [0.0, 1.0, 2.0, 3.0]
        a = [np.inf, 2.0, 1.0, 0.0]
        b = [np.inf, 1.0, 1.0, 1.0]
        c = crossover_point(x, a, b)
        assert c is not None and 1.0 < c < 3.0

    def test_all_nonfinite_returns_none(self):
        x = [0.0, 1.0]
        assert crossover_point(x, [np.inf, np.inf], [1.0, 1.0]) is None

    def test_unsorted_x_raises(self):
        with pytest.raises(ConfigError):
            crossover_point([1.0, 0.0], [0.0, 1.0], [1.0, 0.0])

    def test_length_mismatch_raises(self):
        with pytest.raises(ConfigError):
            crossover_point([0.0, 1.0], [0.0], [1.0, 0.0])
