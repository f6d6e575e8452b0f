"""Profiler and profile tables."""

import pytest

from repro.errors import ProfileError
from repro.profiling.profiler import profile_model
from repro.profiling.tables import LayerProfile, ProfileTable


class TestProfileModel:
    def test_row_per_layer(self, tiny_model, pi4):
        table = profile_model(tiny_model, pi4)
        assert len(table.rows) == tiny_model.num_layers

    def test_total_flops_match_model(self, tiny_model, pi4):
        table = profile_model(tiny_model, pi4)
        assert table.total_flops == tiny_model.total_flops

    def test_faster_device_faster_profile(self, tiny_model, pi4, edge_gpu):
        slow = profile_model(tiny_model, pi4)
        fast = profile_model(tiny_model, edge_gpu)
        assert fast.total_latency_s < slow.total_latency_s

    def test_noise_perturbs_deterministically(self, tiny_model, pi4):
        a = profile_model(tiny_model, pi4, noise=0.1, seed=1)
        b = profile_model(tiny_model, pi4, noise=0.1, seed=1)
        c = profile_model(tiny_model, pi4, noise=0.1, seed=2)
        assert a.latencies().tolist() == b.latencies().tolist()
        assert a.latencies().tolist() != c.latencies().tolist()

    def test_noiseless_is_exact(self, tiny_model, pi4):
        table = profile_model(tiny_model, pi4)
        conv = next(r for r in table.rows if r.layer_name == "conv1")
        expected = tiny_model.flops_of("conv1") / pi4.effective_flops("conv")
        assert conv.latency_s == pytest.approx(expected)

    def test_by_class_sums_to_total(self, tiny_model, pi4):
        table = profile_model(tiny_model, pi4)
        assert sum(table.by_class().values()) == pytest.approx(table.total_latency_s)

    def test_summary_lists_top_layers(self, tiny_model, pi4):
        s = profile_model(tiny_model, pi4).summary(top=3)
        assert "conv" in s


class TestMeasurementVariance:
    def test_noise_free_has_zero_variance(self, tiny_model, pi4):
        table = profile_model(tiny_model, pi4)
        assert [r.latency_var_s2 for r in table.rows] == [0.0] * len(table.rows)

    def test_single_measurement_analytic_variance(self, tiny_model, pi4):
        import math

        noise = 0.1
        clean = profile_model(tiny_model, pi4)
        noisy = profile_model(tiny_model, pi4, noise=noise, seed=0)
        e = math.exp(noise**2)
        for c, n in zip(clean.rows, noisy.rows):
            expected = c.latency_s**2 * e * (e - 1.0)
            assert n.latency_var_s2 == pytest.approx(expected)

    def test_repeats_sample_variance(self, tiny_model, pi4):
        table = profile_model(tiny_model, pi4, noise=0.1, seed=0, repeats=8)
        assert all(r.latency_var_s2 > 0 for r in table.rows if r.latency_s > 0)

    def test_repeats_preserve_determinism(self, tiny_model, pi4):
        a = profile_model(tiny_model, pi4, noise=0.1, seed=3, repeats=5)
        b = profile_model(tiny_model, pi4, noise=0.1, seed=3, repeats=5)
        assert a.latencies().tolist() == b.latencies().tolist()
        assert [r.latency_var_s2 for r in a.rows] == [r.latency_var_s2 for r in b.rows]

    def test_single_draw_unchanged_by_repeats_path(self, tiny_model, pi4):
        # repeats=1 must keep the historical draw order: same latencies as
        # the pre-variance profiler produced for this (noise, seed)
        a = profile_model(tiny_model, pi4, noise=0.1, seed=1)
        b = profile_model(tiny_model, pi4, noise=0.1, seed=1, repeats=1)
        assert a.latencies().tolist() == b.latencies().tolist()

    def test_bad_repeats(self, tiny_model, pi4):
        with pytest.raises(ProfileError):
            profile_model(tiny_model, pi4, repeats=0)

    def test_service_noise_roundtrip(self, tiny_model, pi4):
        from repro.core.risk import profile_service_noise

        assert profile_service_noise(profile_model(tiny_model, pi4)) == 0.0
        est = profile_service_noise(
            profile_model(tiny_model, pi4, noise=0.1, seed=0, repeats=16)
        )
        assert est > 0


class TestTableValidation:
    def test_empty_table_raises(self):
        with pytest.raises(ProfileError):
            ProfileTable("m", "d", [])

    def test_negative_variance_rejected(self):
        with pytest.raises(ProfileError):
            LayerProfile("l", "Conv2D", "conv", 10, 4, 1e-3, latency_var_s2=-1.0)

    def test_negative_entry_raises(self):
        with pytest.raises(ProfileError):
            LayerProfile("l", "Conv2D", "conv", flops=-1, output_bytes=0, latency_s=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["latency_s", "latency_var_s2"])
    def test_nonfinite_rejected(self, field, bad):
        kwargs = {"latency_s": 1e-3, "latency_var_s2": 0.0, field: bad}
        with pytest.raises(ProfileError):
            LayerProfile("l", "Conv2D", "conv", flops=10, output_bytes=4, **kwargs)
