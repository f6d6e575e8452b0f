"""Poisson arrival streams."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.sim.sources import PoissonStream, arrival_stream, arrival_times, oneshot_block


def _drain(stream, boundaries):
    """Consume ``stream`` window by window, then to its horizon."""
    parts = [stream.take_until(t) for t in sorted(boundaries)]
    parts.append(stream.take_until(stream.horizon_s))
    return np.concatenate(parts)


class TestPoisson:
    def test_rate_approximately_honored(self):
        times = arrival_times(10.0, 200.0, seed=1)
        assert len(times) / 200.0 == pytest.approx(10.0, rel=0.1)

    def test_strictly_increasing(self):
        times = arrival_times(5.0, 50.0, seed=2)
        assert np.all(np.diff(times) > 0)

    def test_within_horizon(self):
        times = arrival_times(5.0, 10.0, seed=3)
        assert times.max() < 10.0

    def test_deterministic_given_seed(self):
        a = arrival_times(5.0, 10.0, seed=4)
        b = arrival_times(5.0, 10.0, seed=4)
        np.testing.assert_array_equal(a, b)

    def test_exponential_gaps(self):
        times = arrival_times(10.0, 500.0, seed=5)
        gaps = np.diff(times)
        # CV of exponential is 1
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, abs=0.1)

    def test_invalid(self):
        with pytest.raises(ConfigError):
            arrival_stream(0.0, 1.0)
        with pytest.raises(ConfigError):
            arrival_times(1.0, 0.0)


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
        np.testing.assert_array_equal(got, _block_cumsum_arrivals(rate, horizon, seed))

    @settings(max_examples=40, deadline=None)
    @given(
        rate=st.floats(0.05, 4000.0),
        horizon=st.floats(0.5, 12.0),
        cuts=st.lists(st.floats(0.0, 1.0), max_size=6),
        seed=st.integers(0, 10_000),
    )
    @example(rate=20.0, horizon=1.0, cuts=[], seed=12603)  # two summation blocks
    @example(rate=4000.0, horizon=12.0, cuts=[0.5], seed=9)  # multi-piece blocks
    def test_draws_no_gap_past_the_horizon(self, rate, horizon, cuts, seed):
        """A stream drawn to its horizon advances its generator by exactly
        the gaps of the pieces it returned, and only its last piece reaches
        the horizon."""
        stream = arrival_stream(rate, horizon, seed=seed)
        pieces = _spy_refills(stream)
        _drain(stream, [c * horizon for c in cuts])
        assert all(p[-1] < horizon for p in pieces[:-1]) and pieces[-1][-1] >= horizon
        rng = np.random.default_rng(seed)
        rng.exponential(size=sum(p.size for p in pieces))
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
        np.testing.assert_array_equal(whole, arrival_times(rate, horizon, seed=3))

    @pytest.mark.parametrize("rate, horizon, seed", [
        (5000.0, 3.0, 3), (3000.0, 20.0, 1), (900.0, 12.0, 7), (20.0, 1.0, 12603),
    ])
    def test_equals_one_block_cumsum(self, rate, horizon, seed):
        """Carrying the running sum across pieces reproduces one ``cumsum``
        over each whole block, however many pieces the block takes."""
        np.testing.assert_array_equal(
            arrival_times(rate, horizon, seed=seed),
            _block_cumsum_arrivals(rate, horizon, seed),
        )


def _block_cumsum_arrivals(rate, horizon, seed):
    """Reference Poisson arrivals: one ``cumsum`` per whole summation block."""
    rng = np.random.default_rng(seed)
    out, t = [], 0.0
    while t < horizon:
        times = t + np.cumsum(rng.exponential(1.0 / rate, size=oneshot_block(rate, horizon)))
        out.append(times)
        t = float(times[-1])
    arr = np.concatenate(out)
    return arr[arr < horizon]


class TestStreamsAtAnyWindowEdges:
    @settings(max_examples=40, deadline=None)
    @given(
        rate=st.floats(0.05, 4000.0),
        horizon=st.floats(0.5, 12.0),
        edges=st.lists(st.floats(0.0, 1.0), max_size=12),
        seed=st.integers(0, 2**16),
    )
    @example(rate=4000.0, horizon=12.0, edges=[0.1, 0.5, 0.5, 0.93], seed=9)
    @example(rate=1500.0, horizon=6.0, edges=[], seed=0)
    def test_concatenated_windows_equal_arrival_times(self, rate, horizon, edges, seed):
        want = arrival_times(rate, horizon, seed)
        stream = arrival_stream(rate, horizon, seed)
        got = _drain(stream, [e * horizon for e in edges])
        assert got.dtype == want.dtype == np.float64
        np.testing.assert_array_equal(got, want)
        assert np.all(np.diff(got) > 0) and (got.size == 0 or got[-1] < horizon)

    def test_examples_cover_multi_piece_poisson_blocks(self):
        assert oneshot_block(1500.0, 6.0) > PoissonStream.BLOCK


def _spy_refills(stream):
    """Record every piece ``stream`` refills."""
    pieces = []
    refill = stream._refill

    def spy(t_end):
        piece = refill(t_end)
        pieces.append(piece)
        return piece

    stream._refill = spy
    return pieces


class TestStreamsHoldOnlyTheWindowInFlight:
    @settings(max_examples=40, deadline=None)
    @given(
        rate=st.floats(0.05, 4000.0),
        horizon=st.floats(0.5, 12.0),
        edges=st.lists(st.floats(0.0, 1.0), max_size=12),
        seed=st.integers(0, 2**16),
    )
    @example(rate=4000.0, horizon=12.0, edges=[0.01, 0.5, 0.93], seed=9)
    def test_buffer_owns_at_most_one_refills_leftover(self, rate, horizon, edges, seed):
        stream = arrival_stream(rate, horizon, seed)
        pieces = _spy_refills(stream)
        for t in [*sorted(e * horizon for e in edges), horizon]:
            stream.take_until(t)
            buf = stream._buffer
            assert buf.flags.owndata and buf.base is None  # no refill pinned behind it
            assert buf.size == 0 or (buf.size <= pieces[-1].size and buf[0] >= t)
        assert max(p.size for p in pieces) <= PoissonStream.BLOCK

    def test_poisson_refill_follows_the_window(self):
        rate, window = 40.0, 5.0
        stream = PoissonStream(rate, 1000.0, seed=1)
        assert oneshot_block(rate, 1000.0) > PoissonStream.BLOCK
        pieces = _spy_refills(stream)
        for k in range(1, 20):
            stream.take_until(k * window)
        sizes = [p.size for p in pieces]
        assert len(sizes) >= 19 and max(sizes) <= oneshot_block(rate, 2 * window)
