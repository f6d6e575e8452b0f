"""Hypothesis: the columnar streaming accumulators equal per-task objects.

:class:`~repro.sim.metrics.StreamingStats` and
:class:`~repro.telemetry.windows.WindowedMetrics` keep their per-task state
in task-indexed columns.  The oracles below are the per-task-object forms
they replaced — one running-statistics object per task, one set of window
arrays per task — kept verbatim in logic.  For drawn task counts (many
tasks with a completion or two each, as in a one-window fleet run, or a
few busy tasks), chunk splits, feed orders, warmup cuts, fault marks and
shard merges, both forms see the same calls and must agree **bit for
bit**: per-task :class:`~repro.sim.metrics.TaskStats`, global quantiles and
sums, ``fingerprint()``, ``cells``, ``dense_hist``, ``snapshot()`` and
every ``window_*`` accessor, ``window_mean_latency_s`` (a Kahan sum)
included.
"""

import hashlib
from typing import Dict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.metrics import StreamingStats, TaskStats
from repro.telemetry.windows import (
    MARK_KINDS,
    KahanSum,
    LatencyHistogram,
    WindowConfig,
    WindowedMetrics,
    add_cells,
    checked_range,
)

BIN_S, MAX_S = 0.01, 1.0
WINDOWS = WindowConfig(window_s=1.0, bin_s=0.02, max_s=0.8)
HORIZON_S = 5.0


# -- oracles: one object per task -----------------------------------------------


class OracleTaskStats:
    """Running statistics of one task's request stream."""

    def __init__(self, bin_s: float, max_s: float) -> None:
        self.hist = LatencyHistogram(bin_s, max_s)
        self.count = self.met = self.correct = self.offloaded = self.exit_sum = 0
        self.lat_sum = KahanSum()
        self.queue_sum = KahanSum()
        self.max_latency_s = float("-inf")

    def observe(self, latency, met, correct, offloaded, positions, queueing) -> None:
        self.count += int(latency.size)
        self.met += int(np.count_nonzero(met))
        self.correct += int(np.count_nonzero(correct))
        self.offloaded += int(np.count_nonzero(offloaded))
        self.exit_sum += int(positions.sum())
        self.lat_sum.add(float(latency.sum()))
        self.queue_sum.add(float(queueing.sum()))
        self.max_latency_s = max(self.max_latency_s, float(latency.max()))
        self.hist.observe(latency)

    def merge(self, other: "OracleTaskStats") -> None:
        self.count += other.count
        self.met += other.met
        self.correct += other.correct
        self.offloaded += other.offloaded
        self.exit_sum += other.exit_sum
        self.lat_sum.add(other.lat_sum.value)
        self.queue_sum.add(other.queue_sum.value)
        self.max_latency_s = max(self.max_latency_s, other.max_latency_s)
        self.hist.merge(other.hist)

    def to_task_stats(self) -> TaskStats:
        n = self.count
        return TaskStats(
            count=n,
            mean_latency_s=self.lat_sum.value / n,
            p50_latency_s=self.hist.quantile(50),
            p95_latency_s=self.hist.quantile(95),
            p99_latency_s=self.hist.quantile(99),
            max_latency_s=self.max_latency_s,
            miss_rate=(n - self.met) / n,
            accuracy=self.correct / n,
            offload_fraction=self.offloaded / n,
            mean_exit_position=self.exit_sum / n,
            mean_queueing_s=self.queue_sum.value / n,
        )


class OracleStreamingStats:
    """:class:`StreamingStats` as a dict of per-task objects."""

    def __init__(self, bin_s: float, max_s: float, windowed=None) -> None:
        self.bin_s, self.max_s, self.windowed = bin_s, max_s, windowed
        self.per_task: Dict[str, OracleTaskStats] = {}

    def observe(self, task, req_ids, arrival, completion, deadline, positions,
                offloaded, correct, dev_busy, srv_busy, net_busy) -> None:
        if arrival.size == 0:
            return
        latency = completion - arrival
        met = completion <= deadline + 1e-12
        queueing = np.maximum(0.0, latency - (dev_busy + srv_busy + net_busy))
        stats = self.per_task.setdefault(task, OracleTaskStats(self.bin_s, self.max_s))
        stats.observe(latency, met, correct, offloaded, positions, queueing)
        if self.windowed is not None:
            self.windowed.observe(task, completion, latency, met)

    @property
    def count(self) -> int:
        return sum(s.count for s in self.per_task.values())

    @property
    def met(self) -> int:
        return sum(s.met for s in self.per_task.values())

    @property
    def correct_count(self) -> int:
        return sum(s.correct for s in self.per_task.values())

    @property
    def latency_sum_s(self) -> float:
        total = KahanSum()
        for name in sorted(self.per_task):
            total.add(self.per_task[name].lat_sum.value)
        return total.value

    def quantile(self, q: float) -> float:
        merged = LatencyHistogram(self.bin_s, self.max_s)
        for stats in self.per_task.values():
            merged.merge(stats.hist)
        return merged.quantile(q)

    def merge(self, other: "OracleStreamingStats") -> "OracleStreamingStats":
        for name, stats in other.per_task.items():
            self.per_task.setdefault(name, OracleTaskStats(self.bin_s, self.max_s)).merge(stats)
        return self


class OracleTaskWindows:
    """One task's window arrays and sparse histogram cells."""

    def __init__(self, n_windows: int) -> None:
        for name in ("counts", "met", "lost", "shed", "degraded", "overflow"):
            setattr(self, name, np.zeros(n_windows, dtype=np.int64))
        self.keys = np.zeros(0, dtype=np.int64)
        self.cells = np.zeros(0, dtype=np.int64)
        self.lat_sum = np.zeros(n_windows)
        self.lat_comp = np.zeros(n_windows)
        self.lat_max = np.full(n_windows, -np.inf)


class OracleWindowedMetrics:
    """:class:`WindowedMetrics` as a dict of per-task array sets."""

    def __init__(self, config: WindowConfig, horizon_s: float) -> None:
        self.config = config
        self.horizon_s = float(horizon_s)
        self.n_windows = config.num_windows(horizon_s)
        self.n_bins = config.num_bins
        self.per_task: Dict[str, OracleTaskWindows] = {}

    def _ensure(self, task: str) -> OracleTaskWindows:
        return self.per_task.setdefault(task, OracleTaskWindows(self.n_windows))

    def observe(self, task, completion_s, latency_s, met) -> None:
        if completion_s.size == 0:
            return
        checked_range(completion_s, "completion times")
        checked_range(latency_s)
        tw = self._ensure(task)
        nw, nb = self.n_windows, self.n_bins
        w = np.minimum(completion_s / self.config.window_s, nw - 1).astype(np.int64)
        tw.counts += np.bincount(w, minlength=nw)
        if w[met].size:
            tw.met += np.bincount(w[met], minlength=nw)
        b = np.minimum(latency_s / self.config.bin_s, nb).astype(np.int64)
        over = b >= nb
        if over.any():
            tw.overflow += np.bincount(w[over], minlength=nw)
        key = w[~over] * nb + b[~over]
        if key.size:
            lo = int(key.min())
            flat = np.bincount(key - lo)
            nz = np.flatnonzero(flat)
            tw.keys, tw.cells = add_cells(tw.keys, tw.cells, nz + lo, flat[nz])
        part = np.bincount(w, weights=latency_s, minlength=nw)
        touched = np.flatnonzero(part)
        if touched.size:
            s = tw.lat_sum[touched]
            v = part[touched]
            t = s + v
            big = np.abs(s) >= np.abs(v)
            tw.lat_comp[touched] += np.where(big, (s - t) + v, (v - t) + s)
            tw.lat_sum[touched] = t
        np.maximum.at(tw.lat_max, w, latency_s)

    def mark(self, task: str, time_s: float, kind: str) -> None:
        w = min(int(time_s / self.config.window_s), self.n_windows - 1)
        getattr(self._ensure(task), kind)[w] += 1

    def merge(self, other: "OracleWindowedMetrics") -> "OracleWindowedMetrics":
        for task, o in other.per_task.items():
            tw = self._ensure(task)
            for name in ("counts", "met", "lost", "shed", "degraded", "overflow"):
                getattr(tw, name)[:] += getattr(o, name)
            tw.keys, tw.cells = add_cells(tw.keys, tw.cells, o.keys, o.cells)
            v = o.lat_sum + o.lat_comp
            s = tw.lat_sum.copy()
            t = s + v
            big = np.abs(s) >= np.abs(v)
            tw.lat_comp += np.where(big, (s - t) + v, (v - t) + s)
            tw.lat_sum = t
            np.maximum(tw.lat_max, o.lat_max, out=tw.lat_max)
        return self

    def dense_hist(self, task: str) -> np.ndarray:
        tw = self.per_task[task]
        dense = np.zeros(self.n_windows * self.n_bins, dtype=np.int64)
        dense[tw.keys] = tw.cells
        return dense.reshape(self.n_windows, self.n_bins)

    def window_mean_latency_s(self, task: str) -> np.ndarray:
        tw = self.per_task[task]
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(tw.counts > 0, (tw.lat_sum + tw.lat_comp) / tw.counts, np.nan)

    def window_quantile(self, task: str, q: float) -> np.ndarray:
        """Per window, straight from the dense plane."""
        tw, dense = self.per_task[task], self.dense_hist(task)
        out = np.full(self.n_windows, np.nan)
        for w in range(self.n_windows):
            n = int(dense[w].sum() + tw.overflow[w])
            if n == 0:
                continue
            rank = int(np.ceil((n - 1) * q / 100.0))
            cum = np.cumsum(dense[w])
            if rank >= cum[-1]:
                out[w] = tw.lat_max[w]
            else:
                out[w] = (int(np.searchsorted(cum, rank + 1)) + 1) * self.config.bin_s
        return out


# -- the drawn feed -------------------------------------------------------------


@st.composite
def feeds(draw):
    """Per-task completion chunks and fault marks, in one drawn call order.

    Each entry is ``("obs", shard, task, columns)`` or ``("mark", shard,
    task, time, kind)``; ``shard`` picks the accumulator that receives it.
    """
    n_tasks = draw(st.integers(1, 40))
    sizes = draw(st.lists(st.integers(0, 25), min_size=n_tasks, max_size=n_tasks))
    seed = draw(st.integers(0, 2**16))
    shards = draw(st.integers(1, 3))
    warmup = draw(st.sampled_from([0.0, 0.5, 2.0]))
    rng = np.random.default_rng(seed)
    calls = []
    for i, n in enumerate(sizes):
        task = f"task{i:03d}"
        arrival = np.sort(rng.uniform(0.0, HORIZON_S, n))
        # mostly tight latencies, some spread wide, a few past both max_s
        latency = np.where(
            rng.random(n) < 0.8, rng.uniform(0.05, 0.25, n), rng.uniform(0.0, 1.6, n)
        )
        cols = {
            "req_ids": np.arange(n, dtype=np.int64),
            "arrival": arrival,
            "completion": arrival + latency,
            "deadline": arrival + rng.choice([0.1, 0.2, 0.5], n),
            "positions": rng.integers(0, 4, n),
            "offloaded": rng.random(n) < 0.6,
            "correct": rng.random(n) < 0.9,
            "dev_busy": rng.uniform(0.0, 0.05, n),
            "srv_busy": rng.uniform(0.0, 0.05, n),
            "net_busy": rng.uniform(0.0, 0.05, n),
        }
        keep = arrival >= warmup  # the sink drops warmup arrivals first
        cols = {k: v[keep] for k, v in cols.items()}
        m = int(keep.sum())
        cuts = sorted(draw(st.lists(st.integers(0, m), max_size=3)))
        for lo, hi in zip([0, *cuts], [*cuts, m]):
            part = {k: v[lo:hi] for k, v in cols.items()}
            calls.append(("obs", int(rng.integers(shards)), task, part))
        for _ in range(draw(st.integers(0, 2))):
            time = float(rng.uniform(0.0, HORIZON_S + 2.0))
            kind = MARK_KINDS[int(rng.integers(len(MARK_KINDS)))]
            calls.append(("mark", int(rng.integers(shards)), task, time, kind))
    order = draw(st.permutations(range(len(calls))))
    return shards, [calls[k] for k in order]


def _run(calls, shards, make_stats, make_windows):
    """Feed ``calls`` to one accumulator pair per shard; merge in shard order."""
    parts = []
    for _ in range(shards):
        wm = make_windows(WINDOWS, HORIZON_S)
        parts.append(make_stats(BIN_S, MAX_S, windowed=wm))
    for call in calls:
        stats = parts[call[1]]
        if call[0] == "obs":
            stats.observe(call[2], *call[3].values())
        else:
            stats.windowed.mark(call[2], call[3], call[4])
    pooled = parts[0]
    for other in parts[1:]:
        pooled.merge(other)
        pooled.windowed.merge(other.windowed)
    return pooled


def _assert_same(got: np.ndarray, want: np.ndarray) -> None:
    """Equal bit for bit (NaN matches NaN), with the same dtype."""
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(feed=feeds(), qs=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=3))
def test_columnar_forms_equal_per_task_oracles(feed, qs):
    shards, calls = feed
    got = _run(calls, shards, StreamingStats, WindowedMetrics)
    want = _run(calls, shards, OracleStreamingStats, OracleWindowedMetrics)

    # streaming statistics
    names = sorted(want.per_task)
    assert got.tasks() == names
    for name in names:
        assert got.task_stats(name) == want.per_task[name].to_task_stats()
        hist = want.per_task[name].hist
        bins, cells = got.cells(name)
        np.testing.assert_array_equal(bins, hist.lo + np.flatnonzero(hist.counts))
        np.testing.assert_array_equal(cells, hist.counts[hist.counts > 0])
    assert (got.count, got.met, got.correct_count) == (want.count, want.met, want.correct_count)
    assert got.latency_sum_s == want.latency_sum_s
    for q in (0.0, 50.0, 99.0, 100.0, *qs):
        a, b = got.quantile(q), want.quantile(q)
        assert a == b or (np.isnan(a) and np.isnan(b))

    # windowed metrics
    gw, ww = got.windowed, want.windowed
    tasks = sorted(ww.per_task)
    assert gw.tasks() == tasks
    for task in tasks:
        tw = ww.per_task[task]
        _assert_same(gw.dense_hist(task), ww.dense_hist(task))
        for g, w in zip(gw.cells(task), (tw.keys, tw.cells)):
            _assert_same(g, w)
        _assert_same(gw.window_counts(task), tw.counts)
        _assert_same(gw.window_met(task), tw.met)
        _assert_same(gw.window_errors(task), (tw.counts - tw.met) + tw.lost + tw.shed)
        _assert_same(gw.window_eligible(task), tw.counts + tw.lost + tw.shed)
        _assert_same(gw.window_mean_latency_s(task), ww.window_mean_latency_s(task))
        for q in (0.0, 50.0, 99.0, 100.0, *qs):
            _assert_same(gw.window_quantile(task, q), ww.window_quantile(task, q))
    assert gw.total_count == sum(int(tw.counts.sum()) for tw in ww.per_task.values())
    assert gw.total_met == sum(int(tw.met.sum()) for tw in ww.per_task.values())
    # the fingerprint hashes exactly the oracle's integer state and maxima
    assert gw.fingerprint() == _oracle_fingerprint(ww)
    snap = gw.snapshot()["tasks"]
    assert sorted(snap) == tasks
    for task in tasks:
        tw = ww.per_task[task]
        for name in ("counts", "met", "lost", "shed", "degraded"):
            assert snap[task][name] == getattr(tw, name).tolist()
        p99 = ww.window_quantile(task, 99)
        assert snap[task]["p99_s"] == [None if np.isnan(x) else float(x) for x in p99]


def _oracle_fingerprint(wm: OracleWindowedMetrics) -> str:
    """The fingerprint digest, computed over the oracle's per-task arrays."""
    h = hashlib.sha256()
    h.update(
        f"{wm.config.window_s}:{wm.config.bin_s}:{wm.config.max_s}:"
        f"{wm.horizon_s}:{wm.n_windows}".encode()
    )
    for task in sorted(wm.per_task):
        tw = wm.per_task[task]
        h.update(task.encode())
        for arr in (tw.counts, tw.met, tw.lost, tw.shed, tw.degraded,
                    wm.dense_hist(task), tw.overflow, tw.lat_max):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()
