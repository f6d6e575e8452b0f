"""Time-varying bandwidth models."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.network.wireless import BandwidthTrace, GaussMarkovBandwidth, MarkovBandwidth
from repro.units import mbps


class TestBandwidthTrace:
    def test_lookup(self):
        tr = BandwidthTrace(times=np.array([0.0, 10.0]), values=np.array([100.0, 50.0]))
        assert tr.bandwidth(5.0) == 100.0
        assert tr.bandwidth(10.0) == 50.0
        assert tr.bandwidth(1e9) == 50.0

    def test_must_start_at_zero(self):
        with pytest.raises(ConfigError):
            BandwidthTrace(times=np.array([1.0]), values=np.array([10.0]))

    def test_strictly_increasing_times(self):
        with pytest.raises(ConfigError):
            BandwidthTrace(times=np.array([0.0, 0.0]), values=np.array([1.0, 2.0]))

    def test_positive_bandwidths(self):
        with pytest.raises(ConfigError):
            BandwidthTrace(times=np.array([0.0]), values=np.array([0.0]))

    def test_negative_time_query(self):
        tr = BandwidthTrace(times=np.array([0.0]), values=np.array([1.0]))
        with pytest.raises(ConfigError):
            tr.bandwidth(-1.0)

    def test_mean_time_weighted(self):
        tr = BandwidthTrace(
            times=np.array([0.0, 1.0, 3.0]), values=np.array([10.0, 20.0, 99.0])
        )
        # covered span [0,3): 1s at 10 + 2s at 20
        assert tr.mean() == pytest.approx((10 + 2 * 20) / 3)


class TestGaussMarkov:
    def test_generates_positive_trace(self):
        gm = GaussMarkovBandwidth(mean_bps=mbps(40), sigma_bps=mbps(20))
        tr = gm.generate(60.0, seed=1)
        assert np.all(tr.values > 0)
        assert tr.times[0] == 0.0

    def test_respects_floor(self):
        gm = GaussMarkovBandwidth(mean_bps=mbps(2), sigma_bps=mbps(50), floor_bps=mbps(1))
        tr = gm.generate(120.0, seed=2)
        assert tr.values.min() >= mbps(1) - 1e-9

    def test_respects_cap(self):
        gm = GaussMarkovBandwidth(
            mean_bps=mbps(40), sigma_bps=mbps(50), cap_bps=mbps(45)
        )
        tr = gm.generate(120.0, seed=3)
        assert tr.values.max() <= mbps(45) + 1e-9

    def test_deterministic_given_seed(self):
        gm = GaussMarkovBandwidth(mean_bps=mbps(40), sigma_bps=mbps(10))
        a = gm.generate(30.0, seed=7)
        b = gm.generate(30.0, seed=7)
        np.testing.assert_array_equal(a.values, b.values)

    def test_mean_reversion(self):
        gm = GaussMarkovBandwidth(mean_bps=mbps(40), sigma_bps=mbps(5), memory=0.5)
        tr = gm.generate(2000.0, seed=4)
        assert abs(tr.values.mean() - mbps(40)) < mbps(4)

    def test_invalid_memory(self):
        with pytest.raises(ConfigError):
            GaussMarkovBandwidth(mean_bps=1e6, sigma_bps=1e5, memory=1.0)

    def test_invalid_horizon(self):
        gm = GaussMarkovBandwidth(mean_bps=1e6, sigma_bps=1e5)
        with pytest.raises(ConfigError):
            gm.generate(0.0)


class TestMarkovBandwidth:
    def test_values_from_state_set(self):
        mk = MarkovBandwidth(state_bps=(100.0, 10.0), mean_holding_s=(5.0, 5.0))
        tr = mk.generate(200.0, seed=5)
        assert set(np.unique(tr.values)) <= {100.0, 10.0}

    def test_state_changes_occur(self):
        mk = MarkovBandwidth(state_bps=(100.0, 10.0), mean_holding_s=(1.0, 1.0))
        tr = mk.generate(100.0, seed=6)
        assert len(tr.times) - 1 > 5  # every entry after t=0 is a change

    def test_mismatched_lengths(self):
        with pytest.raises(ConfigError):
            MarkovBandwidth(state_bps=(1.0, 2.0), mean_holding_s=(1.0,))

    def test_single_state_never_changes(self):
        mk = MarkovBandwidth(state_bps=(42.0,), mean_holding_s=(1.0,))
        tr = mk.generate(10.0, seed=7)
        assert np.all(tr.values == 42.0)
