"""AccuracyModel: curve shape and competence calibration."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.models.accuracy import PROFILES, AccuracyModel, profile_for, sigmoid
from repro.models.exits import DifficultyDistribution


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_symmetric(self):
        x = np.array([3.0])
        assert sigmoid(x)[0] + sigmoid(-x)[0] == pytest.approx(1.0)

    def test_extreme_values_stable(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(1.0)


class TestAccuracyCurve:
    def test_monotone_in_depth(self):
        m = AccuracyModel()
        depths = np.linspace(0, 1, 20)
        acc = m.accuracy_at(depths)
        assert np.all(np.diff(acc) > 0)

    def test_endpoints(self):
        m = AccuracyModel(final_accuracy=0.8, base_accuracy=0.2, sharpness=3.0)
        assert m.accuracy_at(0.0) == pytest.approx(0.2)
        # saturates toward (not exactly at) final accuracy
        assert 0.75 < float(m.accuracy_at(1.0)) < 0.8

    def test_rejects_out_of_range_depth(self):
        with pytest.raises(ConfigError):
            AccuracyModel().accuracy_at(1.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(final_accuracy=0.0),
            dict(final_accuracy=1.2),
            dict(base_accuracy=0.9, final_accuracy=0.8),
            dict(sharpness=-1.0),
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigError):
            AccuracyModel(**kwargs)


class TestCalibration:
    def test_calibrated_competence_hits_target(self):
        m = AccuracyModel()
        grid, w = DifficultyDistribution().grid()
        targets = np.array([0.4, 0.6, 0.75])
        comp = m.calibrate_competence(targets, grid, w)
        achieved = m.correctness(comp, grid) @ w
        np.testing.assert_allclose(achieved, targets, atol=1e-6)

    def test_competence_monotone_in_target(self):
        m = AccuracyModel()
        grid, w = DifficultyDistribution().grid()
        comp = m.calibrate_competence(np.array([0.3, 0.5, 0.7, 0.9]), grid, w)
        assert np.all(np.diff(comp) > 0)

    def test_rejects_degenerate_targets(self):
        m = AccuracyModel()
        grid, w = DifficultyDistribution().grid()
        with pytest.raises(ConfigError):
            m.calibrate_competence(np.array([1.0]), grid, w)

    def test_correctness_decreasing_in_difficulty(self):
        m = AccuracyModel()
        d = np.linspace(0, 1, 10)
        c = m.correctness(np.array([0.5]), d)[0]
        assert np.all(np.diff(c) < 0)


class TestProfiles:
    def test_every_zoo_model_has_profile(self):
        from repro.models import zoo

        for name in zoo.available_models():
            assert name in PROFILES

    def test_profile_for_fallback(self):
        assert isinstance(profile_for("unknown_model"), AccuracyModel)

    def test_resnet50_beats_alexnet(self):
        assert PROFILES["resnet50"].final_accuracy > PROFILES["alexnet"].final_accuracy
