"""DeviceSpec validation and throughput math."""

import pytest

from repro.devices.device import DEFAULT_EFFICIENCY, DeviceSpec
from repro.errors import ConfigError


def make(**kw):
    base = dict(name="d", kind="end_device", peak_flops=10e9)
    base.update(kw)
    return DeviceSpec(**base)


class TestValidation:
    def test_valid(self):
        assert make().name == "d"

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            make(kind="toaster")

    def test_nonpositive_peak(self):
        with pytest.raises(ConfigError):
            make(peak_flops=0)

    def test_negative_overhead(self):
        with pytest.raises(ConfigError):
            make(overhead_s=-1e-3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["peak_flops", "overhead_s"])
    def test_nonfinite_rejected(self, field, bad):
        with pytest.raises(ConfigError):
            make(**{field: bad})

    def test_efficiency_must_cover_all_classes(self):
        with pytest.raises(ConfigError):
            make(efficiency={"conv": 0.5})

    def test_efficiency_range(self):
        eff = dict(DEFAULT_EFFICIENCY)
        eff["conv"] = 1.5
        with pytest.raises(ConfigError):
            make(efficiency=eff)

    def test_busy_below_idle_power(self):
        with pytest.raises(ConfigError):
            make(idle_power_w=10.0, busy_power_w=5.0)


class TestThroughput:
    def test_effective_flops(self):
        d = make()
        assert d.effective_flops("conv") == pytest.approx(10e9 * DEFAULT_EFFICIENCY["conv"])

    def test_effective_flops_unknown_class(self):
        with pytest.raises(ConfigError):
            make().effective_flops("quantum")

    def test_blended_below_best_class(self):
        d = make()
        assert d.blended_flops() < d.effective_flops("conv")

    def test_blended_harmonic(self):
        d = make()
        mix = {"conv": 0.5, "dense": 0.5}
        expected = 1.0 / (
            0.5 / d.effective_flops("conv") + 0.5 / d.effective_flops("dense")
        )
        assert d.blended_flops(mix) == pytest.approx(expected)

    def test_blended_empty_mix_raises(self):
        with pytest.raises(ConfigError):
            make().blended_flops({"conv": 0.0})

    def test_is_server(self):
        assert not make().is_server()
        assert make(kind="server").is_server()
