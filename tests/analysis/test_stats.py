"""Statistics helpers."""

import numpy as np
import pytest

from repro.analysis.stats import summarize
from repro.errors import ConfigError


class TestSummarize:
    def test_basic(self):
        s = summarize(np.array([1.0, 2.0, 3.0]))
        assert s.n == 3
        assert s.mean == pytest.approx(2.0)
        assert s.minimum == 1.0 and s.maximum == 3.0

    def test_percentiles_ordered(self):
        s = summarize(np.random.default_rng(0).exponential(1.0, 500))
        assert s.p50 <= s.p95 <= s.p99

    def test_empty_raises(self):
        with pytest.raises(ConfigError):
            summarize(np.array([]))

    def test_single_sample_std_zero(self):
        assert summarize(np.array([5.0])).std == 0.0


class TestJainIndex:
    def test_equal_values_are_perfectly_fair(self):
        from repro.analysis.stats import jain_index

        assert jain_index(np.array([3.0, 3.0, 3.0])) == pytest.approx(1.0)

    def test_single_dominator_is_one_over_n(self):
        from repro.analysis.stats import jain_index

        assert jain_index(np.array([1.0, 0.0, 0.0, 0.0])) == pytest.approx(0.25)

    def test_range(self):
        from repro.analysis.stats import jain_index

        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(0, 10, size=rng.integers(2, 10))
            j = jain_index(x)
            assert 1.0 / len(x) - 1e-12 <= j <= 1.0 + 1e-12

    def test_negative_rejected(self):
        from repro.analysis.stats import jain_index
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            jain_index(np.array([-1.0, 1.0]))
