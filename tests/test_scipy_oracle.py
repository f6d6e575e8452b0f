"""The library's scipy.special kernels against the scipy.stats calls they replace.

The library evaluates the Beta pdf/cdf and Student's t quantile straight
from ``scipy.special`` so that it never imports ``scipy.stats``.  These tests
pin the results bit for bit to the ``scipy.stats`` formulas.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.analysis.stats import mean_ci
from repro.models.exits import DIFFICULTY_GRID_POINTS, DifficultyDistribution
from repro.workloads.difficulty import DIFFICULTY_PRESETS

_PARAM = st.floats(min_value=0.05, max_value=50.0)
_X = np.array([-1.0, 0.0, 1e-12, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0, 2.0, np.nan])


def assert_grid_matches_stats(dist):
    for n in (DIFFICULTY_GRID_POINTS, 64):
        mid, w = dist.grid(n)
        edges = np.linspace(0.0, 1.0, n + 1)
        ref_mid = 0.5 * (edges[:-1] + edges[1:])
        ref = stats.beta.pdf(ref_mid, dist.alpha, dist.beta)
        assert np.array_equal(mid, ref_mid)
        assert np.array_equal(w, ref / ref.sum())


def assert_cdf_matches_stats(dist):
    ref = stats.beta.cdf(_X, dist.alpha, dist.beta)
    assert np.array_equal(dist.cdf(_X), ref, equal_nan=True)
    assert dist.cdf(0.3) == stats.beta.cdf(0.3, dist.alpha, dist.beta)


@pytest.mark.parametrize("preset", sorted(DIFFICULTY_PRESETS))
def test_presets_match_stats(preset):
    dist = DIFFICULTY_PRESETS[preset]
    assert_grid_matches_stats(dist)
    assert_cdf_matches_stats(dist)


@settings(max_examples=80, deadline=None)
@given(_PARAM, _PARAM)
def test_drawn_parameters_match_stats(alpha, beta):
    dist = DifficultyDistribution(alpha, beta)
    assert_grid_matches_stats(dist)
    assert_cdf_matches_stats(dist)


@pytest.mark.parametrize("confidence", [0.5, 0.9, 0.95, 0.99])
@pytest.mark.parametrize("n", [2, 3, 5, 30, 200])
def test_mean_ci_matches_t_ppf(n, confidence):
    x = np.random.default_rng(n).normal(10.0, 2.0, size=n)
    m = float(x.mean())
    se = float(x.std(ddof=1) / np.sqrt(n))
    half = float(stats.t.ppf(0.5 + confidence / 2.0, df=n - 1)) * se
    assert mean_ci(x, confidence) == (m, m - half, m + half)
