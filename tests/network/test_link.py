"""Link model."""

import pytest

from repro.errors import ConfigError
from repro.network.link import Link
from repro.units import mbps


class TestLink:
    def test_valid(self):
        l = Link(mbps(10), rtt_s=5e-3, name="l")
        assert l.bandwidth_bps == pytest.approx(1.25e6)

    def test_nonpositive_bandwidth(self):
        with pytest.raises(ConfigError):
            Link(0.0)

    def test_negative_rtt(self):
        with pytest.raises(ConfigError):
            Link(mbps(10), rtt_s=-1.0)

    def test_scaled(self):
        l = Link(mbps(10), rtt_s=5e-3)
        s = l.scaled(0.5)
        assert s.bandwidth_bps == pytest.approx(l.bandwidth_bps / 2)
        assert s.rtt_s == l.rtt_s

    def test_scaled_invalid(self):
        with pytest.raises(ConfigError):
            Link(mbps(10)).scaled(0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["bandwidth_bps", "rtt_s"])
    def test_nonfinite_rejected(self, field, bad):
        kwargs = {"bandwidth_bps": mbps(10), "rtt_s": 5e-3, field: bad}
        with pytest.raises(ConfigError):
            Link(**kwargs)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_scaled_nonfinite_rejected(self, bad):
        with pytest.raises(ConfigError):
            Link(mbps(10)).scaled(bad)

    def test_with_bandwidth(self):
        l = Link(mbps(10), rtt_s=5e-3)
        assert l.with_bandwidth(123.0).bandwidth_bps == 123.0
