"""Hypothesis: the occupied-range latency histograms equal their dense layout.

``LatencyHistogram`` and ``WindowedMetrics`` store only the bins they have
seen.  These properties compare them with a dense ``np.bincount`` oracle over
the full ``ceil(max_s / bin_s)`` bins, for random chunkings and merges of
disjoint, overlapping, empty and all-overflow histograms:

- the compact counts, placed at their offset, are the dense counts; the
  overflow count, minimum and maximum match;
- every quantile equals the dense layout's ceil-rank upper bin edge;
- the windowed planes expand to the dense ``[n_windows, n_bins]`` oracle.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.windows import LatencyHistogram, WindowConfig, WindowedMetrics

BIN_S, MAX_S = 0.01, 1.0
N_BINS = 100


def _dense_counts(data: np.ndarray) -> np.ndarray:
    idx = (data / BIN_S).astype(np.int64)
    return np.bincount(idx[idx < N_BINS], minlength=N_BINS)


def _dense_quantile(data: np.ndarray, q: float) -> float:
    """The dense-layout quantile contract, computed from scratch."""
    n = data.size
    if n == 0:
        return float("nan")
    counts = _dense_counts(data)
    rank = int(np.ceil((n - 1) * q / 100.0))
    cum = np.cumsum(counts)
    if rank >= int(cum[-1]):
        return float(data.max())
    return (int(np.searchsorted(cum, rank + 1, side="left")) + 1) * BIN_S


def _expanded(h: LatencyHistogram) -> np.ndarray:
    dense = np.zeros(h.n_bins, dtype=np.int64)
    dense[h.lo:h.lo + h.counts.size] = h.counts
    return dense


percentiles = st.floats(0.0, 100.0)
# latency pools: inside one narrow band, spread wide, or past max_s
bands = st.sampled_from([(0.0, 0.05), (0.3, 0.4), (0.0, 0.99), (1.0, 3.0), (0.9, 1.2)])


@st.composite
def samples(draw):
    lo, hi = draw(bands)
    n = draw(st.integers(0, 60))
    seed = draw(st.integers(0, 2**16))
    return np.random.default_rng(seed).uniform(lo, hi, n)


def _check(h: LatencyHistogram, data: np.ndarray, q_drawn: float) -> None:
    np.testing.assert_array_equal(_expanded(h), _dense_counts(data))
    assert h.count == data.size
    assert h.overflow == int(np.count_nonzero(data >= MAX_S))
    if data.size:
        assert h.min_s == float(data.min())
        assert h.max_seen_s == float(data.max())
        # only the occupied range is stored
        if h.counts.size:
            assert h.counts[0] > 0 and h.counts[-1] > 0
    for q in (0.0, 1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0, q_drawn):
        got, want = h.quantile(q), _dense_quantile(data, q)
        assert got == want or (np.isnan(got) and np.isnan(want))


@settings(max_examples=80, deadline=None)
@given(data=samples(), cuts=st.lists(st.integers(0, 60), max_size=5), q=percentiles)
def test_chunked_observe_matches_dense(data, cuts, q):
    h = LatencyHistogram(BIN_S, MAX_S)
    for chunk in np.split(data, sorted(c for c in cuts if c <= data.size)):
        h.observe(chunk)
    _check(h, data, q)


@settings(max_examples=80, deadline=None)
@given(parts=st.lists(samples(), min_size=1, max_size=4), q=percentiles)
def test_merge_matches_dense(parts, q):
    merged = LatencyHistogram(BIN_S, MAX_S)
    for part in parts:
        h = LatencyHistogram(BIN_S, MAX_S)
        h.observe(part)
        merged.merge(h)
    _check(merged, np.concatenate(parts), q)


@settings(max_examples=40, deadline=None)
@given(parts=st.lists(samples(), min_size=1, max_size=3), seed=st.integers(0, 99))
def test_windowed_planes_match_dense(parts, seed):
    cfg = WindowConfig(window_s=1.0, bin_s=BIN_S, max_s=MAX_S)
    horizon = 4.0
    rng = np.random.default_rng(seed)
    merged = WindowedMetrics(cfg, horizon)
    comps, lats = [], []
    for lat in parts:
        comp = rng.uniform(0.0, horizon + 1.0, lat.size)
        part = WindowedMetrics(cfg, horizon)
        part.observe("t", comp, lat, lat < 0.5)
        merged.merge(part)
        comps.append(comp)
        lats.append(lat)
    comp, lat = np.concatenate(comps), np.concatenate(lats)
    if "t" not in merged.per_task:
        return
    w = np.minimum((comp / cfg.window_s).astype(np.int64), merged.n_windows - 1)
    b = (lat / cfg.bin_s).astype(np.int64)
    inside = b < N_BINS
    oracle = np.zeros((merged.n_windows, N_BINS), dtype=np.int64)
    np.add.at(oracle, (w[inside], b[inside]), 1)
    np.testing.assert_array_equal(merged.dense_hist("t"), oracle)
