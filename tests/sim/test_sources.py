"""Arrival processes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.sim.sources import (
    DeterministicArrivals,
    MMPPArrivals,
    PoissonArrivals,
    PoissonStream,
    TraceArrivals,
    arrival_stream,
    arrival_times,
    oneshot_block,
)


def _drain(stream, boundaries):
    """Consume ``stream`` window by window, then to its horizon."""
    parts = [stream.take_until(t) for t in sorted(boundaries)]
    parts.append(stream.take_until(stream.horizon_s))
    return np.concatenate(parts)


class TestPoisson:
    def test_rate_approximately_honored(self):
        times = PoissonArrivals(10.0).generate(200.0, seed=1)
        assert len(times) / 200.0 == pytest.approx(10.0, rel=0.1)

    def test_strictly_increasing(self):
        times = PoissonArrivals(5.0).generate(50.0, seed=2)
        assert np.all(np.diff(times) > 0)

    def test_within_horizon(self):
        times = PoissonArrivals(5.0).generate(10.0, seed=3)
        assert times.max() < 10.0

    def test_deterministic_given_seed(self):
        a = PoissonArrivals(5.0).generate(10.0, seed=4)
        b = PoissonArrivals(5.0).generate(10.0, seed=4)
        np.testing.assert_array_equal(a, b)

    def test_exponential_gaps(self):
        times = PoissonArrivals(10.0).generate(500.0, seed=5)
        gaps = np.diff(times)
        # CV of exponential is 1
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, abs=0.1)

    def test_invalid(self):
        with pytest.raises(ConfigError):
            PoissonArrivals(0.0)
        with pytest.raises(ConfigError):
            PoissonArrivals(1.0).generate(0.0)


class TestDeterministic:
    def test_even_spacing(self):
        times = DeterministicArrivals(4.0).generate(2.0, seed=0)
        np.testing.assert_allclose(times, [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75])

    def test_count(self):
        assert len(DeterministicArrivals(10.0).generate(1.0)) == 9  # last lands at horizon


class TestMMPP:
    def test_mean_rate_formula(self):
        m = MMPPArrivals(low_rate=2.0, high_rate=10.0, mean_low_s=3.0, mean_high_s=1.0)
        assert m.mean_rate == pytest.approx((2 * 3 + 10 * 1) / 4)

    def test_empirical_rate_near_mean(self):
        m = MMPPArrivals(low_rate=2.0, high_rate=10.0, mean_low_s=3.0, mean_high_s=1.0)
        times = m.generate(2000.0, seed=6)
        assert len(times) / 2000.0 == pytest.approx(m.mean_rate, rel=0.15)

    def test_burstier_than_poisson(self):
        m = MMPPArrivals(low_rate=1.0, high_rate=20.0, mean_low_s=5.0, mean_high_s=1.0)
        times = m.generate(2000.0, seed=7)
        gaps = np.diff(times)
        assert gaps.std() / gaps.mean() > 1.2  # CV > 1 = burstier

    def test_high_below_low_raises(self):
        with pytest.raises(ConfigError):
            MMPPArrivals(low_rate=5.0, high_rate=2.0)


class TestTrace:
    def test_replay_clipped_to_horizon(self):
        t = TraceArrivals([0.5, 1.5, 2.5])
        np.testing.assert_array_equal(t.generate(2.0), [0.5, 1.5])

    def test_non_increasing_raises(self):
        with pytest.raises(ConfigError):
            TraceArrivals([1.0, 1.0])

    def test_negative_raises(self):
        with pytest.raises(ConfigError):
            TraceArrivals([-1.0, 1.0])


class TestPoissonStream:
    @settings(max_examples=60, deadline=None)
    @given(
        rate=st.floats(0.05, 200.0),
        horizon=st.floats(0.5, 30.0),
        cuts=st.lists(st.floats(0.0, 1.0), max_size=6),
        seed=st.integers(0, 10_000),
    )
    def test_equals_one_shot_bit_for_bit(self, rate, horizon, cuts, seed):
        assert oneshot_block(rate, horizon) <= PoissonStream.BLOCK
        stream = arrival_stream(rate, horizon, seed=seed)
        got = _drain(stream, [c * horizon for c in cuts])
        np.testing.assert_array_equal(got, arrival_times(rate, horizon, seed=seed))
        # the stream consumed exactly the one-shot generator's draws
        rng = np.random.default_rng(seed)
        PoissonArrivals(rate).generate(horizon, rng)
        assert stream._rng.bit_generator.state == rng.bit_generator.state

    def test_multi_block_one_shot_reproduced(self):
        # this seed overruns the first one-shot block, so the stream must
        # restart its cumulative sum exactly where the one-shot does
        rate, horizon, seed = 20.0, 1.0, 12603
        want = arrival_times(rate, horizon, seed=seed)
        assert want.size >= oneshot_block(rate, horizon)
        for cuts in ([], [0.3, 0.31, 0.9], np.linspace(0.0, 1.0, 17)):
            got = _drain(PoissonStream(rate, horizon, seed=seed), cuts)
            np.testing.assert_array_equal(got, want)

    def test_high_rate_stream_independent_of_windows(self):
        rate, horizon = 5000.0, 3.0  # one-shot block > BLOCK
        assert oneshot_block(rate, horizon) > PoissonStream.BLOCK
        whole = _drain(PoissonStream(rate, horizon, seed=3), [])
        cut = _drain(PoissonStream(rate, horizon, seed=3), [0.1, 1.7, 1.70001, 2.9])
        np.testing.assert_array_equal(whole, cut)
        np.testing.assert_allclose(
            whole, arrival_times(rate, horizon, seed=3), rtol=1e-12
        )
