"""Latency regression fits."""

import pytest

from repro.errors import ProfileError
from repro.profiling.profiler import profile_model
from repro.profiling.regression import fit_latency_regression
from repro.profiling.tables import LayerProfile, ProfileTable


class TestFit:
    def test_noiseless_fit_is_near_perfect(self, tiny_model, pi4):
        table = profile_model(tiny_model, pi4)
        reg = fit_latency_regression(table)
        for cls, r2 in reg.r2.items():
            assert r2 > 0.99, cls

    def test_predictions_recover_latency(self, tiny_model, pi4):
        table = profile_model(tiny_model, pi4)
        reg = fit_latency_regression(table)
        for r in table.rows:
            if r.flops > 0:
                assert reg.predict(r.layer_class, r.flops) == pytest.approx(
                    r.latency_s, rel=0.05
                )

    def test_noisy_fit_reasonable(self, tiny_model, pi4):
        table = profile_model(tiny_model, pi4, noise=0.05, seed=3)
        reg = fit_latency_regression(table)
        conv = [r for r in table.rows if r.layer_class == "conv"]
        for r in conv:
            assert reg.predict("conv", r.flops) == pytest.approx(r.latency_s, rel=0.3)

    def test_predict_unknown_class_raises(self, tiny_model, pi4):
        reg = fit_latency_regression(profile_model(tiny_model, pi4))
        with pytest.raises(ProfileError):
            reg.predict("hologram", 1e6)

    def test_predictions_nonnegative(self, tiny_model, pi4):
        reg = fit_latency_regression(profile_model(tiny_model, pi4))
        for cls in reg.coefficients:
            assert reg.predict(cls, 1.0) >= 0.0

    def test_single_sample_class(self):
        rows = [
            LayerProfile("a", "Dense", "dense", flops=1000, output_bytes=4, latency_s=1e-3),
        ]
        reg = fit_latency_regression(ProfileTable("m", "d", rows))
        assert reg.predict("dense", 2000) == pytest.approx(2e-3)

    def test_all_zero_flops_raises(self):
        rows = [LayerProfile("a", "Flatten", "memory", flops=0, output_bytes=4, latency_s=0.0)]
        with pytest.raises(ProfileError):
            fit_latency_regression(ProfileTable("m", "d", rows))


class TestRelStd:
    def test_noise_free_rel_std_zero(self, tiny_model, pi4):
        reg = fit_latency_regression(profile_model(tiny_model, pi4))
        for cls in reg.coefficients:
            assert reg.rel_std.get(cls, 0.0) == 0.0

    def test_noisy_rel_std_positive(self, tiny_model, pi4):
        table = profile_model(tiny_model, pi4, noise=0.1, seed=0, repeats=8)
        reg = fit_latency_regression(table)
        assert any(s > 0 for s in reg.rel_std.values())
