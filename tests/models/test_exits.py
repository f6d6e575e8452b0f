"""Exit-policy semantics: rates, thresholds, conditional accuracy."""

import numpy as np
import pytest

from repro.errors import ConfigError, PlanError
from repro.models.accuracy import AccuracyModel
from repro.models.exits import (
    DifficultyDistribution,
    difficulty_cutoffs,
    exit_probabilities,
    expected_accuracy,
)

ACC = AccuracyModel()
DIFF = DifficultyDistribution()
COMP = np.array([0.2, 0.5, 0.8])


class TestDifficultyDistribution:
    def test_grid_weights_normalized(self):
        _, w = DIFF.grid()
        assert w.sum() == pytest.approx(1.0)

    def test_grid_nodes_in_unit_interval(self):
        g, _ = DIFF.grid()
        assert g.min() > 0 and g.max() < 1

    def test_invalid_params(self):
        for alpha, beta in [(0.0, 5.0), (2.0, -1.0), (np.nan, 5.0), (np.inf, 5.0),
                            (2.0, np.inf), (2.0, -np.inf), ("2", 5.0)]:
            with pytest.raises(ConfigError):
                DifficultyDistribution(alpha=alpha, beta=beta)

    @pytest.mark.parametrize("n", [1.5, -3, 0, True, None])
    def test_invalid_grid_points(self, n):
        with pytest.raises(ConfigError):
            DIFF.grid(n)

    def test_integer_like_grid_points(self):
        assert DIFF.grid(np.int64(64))[1].size == DIFF.grid(64)[1].size == 64
        assert DIFF.grid(1)[1].tolist() == [1.0]

    def test_degenerate_grid_raises(self):
        with pytest.raises(ConfigError, match="degenerate"):
            DifficultyDistribution(alpha=1e300, beta=1.0).grid()

    def test_sample_range(self):
        rng = np.random.default_rng(0)
        s = DIFF.sample(rng, 1000)
        assert s.min() >= 0 and s.max() <= 1

    def test_easy_vs_hard_means(self):
        easy = DifficultyDistribution(alpha=1.5, beta=6.0)
        hard = DifficultyDistribution(alpha=4.0, beta=2.0)
        ge, we = easy.grid()
        gh, wh = hard.grid()
        assert ge @ we < gh @ wh


class TestCutoffs:
    def test_zero_threshold_is_infinite_cutoff(self):
        cut = difficulty_cutoffs(COMP, np.array([0.5, 0.5, 0.0]))
        assert np.isinf(cut[-1])

    def test_higher_threshold_lower_cutoff(self):
        lo = difficulty_cutoffs(np.array([0.5]), np.array([0.6]))
        hi = difficulty_cutoffs(np.array([0.5]), np.array([0.9]))
        assert hi[0] < lo[0]

    def test_higher_competence_higher_cutoff(self):
        cut = difficulty_cutoffs(COMP, np.array([0.7, 0.7, 0.7]))
        assert np.all(np.diff(cut) > 0)


class TestExitProbabilities:
    def test_sums_to_one(self):
        p, _ = exit_probabilities(COMP, (0.7, 0.7, 0.0), DIFF, ACC)
        assert p.sum() == pytest.approx(1.0)

    def test_all_mass_at_final_when_thresholds_high(self):
        p, _ = exit_probabilities(COMP, (0.999999, 0.999999, 0.0), DIFF, ACC)
        assert p[-1] == pytest.approx(1.0, abs=1e-3)

    def test_lower_threshold_more_early_mass(self):
        p_lo, _ = exit_probabilities(COMP, (0.5, 0.5, 0.0), DIFF, ACC)
        p_hi, _ = exit_probabilities(COMP, (0.9, 0.9, 0.0), DIFF, ACC)
        assert p_lo[0] > p_hi[0]

    def test_conditional_accuracy_above_marginal_for_thresholded_exits(self):
        p, acc = exit_probabilities(COMP, (0.8, 0.8, 0.0), DIFF, ACC)
        grid, w = DIFF.grid()
        marginal0 = float(ACC.correctness(COMP[0:1], grid)[0] @ w)
        if p[0] > 0:
            assert acc[0] > marginal0  # easy samples only -> more correct

    def test_shape_mismatch_raises(self):
        with pytest.raises(PlanError):
            exit_probabilities(COMP, (0.5, 0.0), DIFF, ACC)

    def test_final_threshold_nonzero_raises(self):
        with pytest.raises(PlanError):
            exit_probabilities(COMP, (0.5, 0.5, 0.5), DIFF, ACC)

    def test_single_exit_policy(self):
        p, acc = exit_probabilities(COMP[-1:], (0.0,), DIFF, ACC)
        assert p[0] == pytest.approx(1.0)
        grid, w = DIFF.grid()
        assert acc[0] == pytest.approx(float(ACC.correctness(COMP[-1:], grid)[0] @ w), abs=1e-9)


class TestAggregates:
    def test_expected_accuracy(self):
        assert expected_accuracy(np.array([0.3, 0.7]), np.array([0.5, 0.9])) == pytest.approx(
            0.3 * 0.5 + 0.7 * 0.9
        )

    def test_easy_workload_exits_earlier(self):
        easy = DifficultyDistribution(alpha=1.5, beta=6.0)
        hard = DifficultyDistribution(alpha=4.0, beta=2.0)
        pe, _ = exit_probabilities(COMP, (0.7, 0.7, 0.0), easy, ACC)
        ph, _ = exit_probabilities(COMP, (0.7, 0.7, 0.0), hard, ACC)
        depths = np.array([0.3, 0.6, 1.0])
        assert np.dot(pe, depths) < np.dot(ph, depths)
