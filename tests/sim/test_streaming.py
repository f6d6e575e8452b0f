"""The chunked streaming sweep: bit-identity, bounded memory, shard merge.

Contracts under test (see DESIGN.md "Simulator performance"):

- streaming is **bit-identical** to the record-backed fast path: with a
  reservoir large enough to keep every record, streaming reproduces the
  exact record set (all fields) regardless of chunk size or arrival model,
  and record-backed runs give the same record list, in order, at any
  chunk size;
- record-free streaming reports agree with record-backed reports on every
  scalar summary — integer-derived ones (miss rate, accuracy, goodput,
  counters) exactly, mean latency to float-sum tolerance, percentiles to
  one histogram bin of the ceil-rank order statistic;
- sharded traffic cells merge deterministically: ``cells=1`` reproduces a
  plain streaming run, serial and pooled fan-outs are identical, and the
  merged counters conserve.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core.joint import JointOptimizer
from repro.errors import ConfigError, SimulationError
from repro.faults import FaultSchedule
from repro.sim import (
    LatencyHistogram,
    SimulationConfig,
    StreamingStats,
    merge_reports,
    run_cells,
)
from repro.sim.runner import simulate_plan
from tests.arrivals import ARRIVALS, arrival_process

#: large enough that the reservoir never evicts — streaming keeps all records
KEEP_ALL = 1_000_000


@pytest.fixture(scope="module")
def solved(small_cluster, small_tasks, small_candidates):
    return JointOptimizer(small_cluster).solve(
        small_tasks, candidates=small_candidates, seed=0
    ).plan


def _cfg(**overrides) -> SimulationConfig:
    kw = dict(horizon_s=8.0, warmup_s=1.0, seed=11)
    kw.update(overrides)
    return SimulationConfig(**kw)


def _sorted_records(report):
    return sorted(report.records, key=lambda r: (r.task_name, r.req_id))


def _exact_quantile(latencies: np.ndarray, q: float) -> float:
    """The order statistic the histogram quantile is defined against."""
    rank = math.ceil((latencies.size - 1) * q / 100.0)
    return float(np.sort(latencies)[rank])


class TestChunkedBitIdentity:
    """Streaming with a keep-all reservoir == record-backed run, any chunking."""

    @pytest.mark.parametrize("arrival", ARRIVALS)
    @pytest.mark.parametrize("chunk_size", [7, 64, 10**9])
    def test_record_set_identical(
        self, small_cluster, small_tasks, solved, arrival, chunk_size
    ):
        with arrival_process(arrival):
            one_shot = simulate_plan(small_tasks, solved, small_cluster, _cfg())
            streamed = simulate_plan(
                small_tasks, solved, small_cluster,
                _cfg(streaming=True, chunk_size=chunk_size, max_records=KEEP_ALL),
            )
        # record ORDER is an observation artifact (streaming observes at
        # window boundaries); the record SET carries every simulated value
        assert _sorted_records(streamed) == _sorted_records(one_shot)
        assert streamed.counters == one_shot.counters
        assert streamed.utilizations == one_shot.utilizations
        assert streamed.discarded_warmup == one_shot.discarded_warmup

    def test_chunk_size_does_not_change_results(
        self, small_cluster, small_tasks, solved
    ):
        reports = [
            simulate_plan(
                small_tasks, solved, small_cluster,
                _cfg(streaming=True, chunk_size=c, max_records=KEEP_ALL),
            )
            for c in (3, 50, 4096)
        ]
        first = reports[0]
        for other in reports[1:]:
            assert _sorted_records(other) == _sorted_records(first)
            assert other.counters == first.counters
        # record-backed runs restore the event loop's completion order, so
        # their record lists match in order, not just as sets
        record_backed = [
            simulate_plan(
                small_tasks, solved, small_cluster, _cfg(chunk_size=c)
            )
            for c in (3, 50, 4096)
        ]
        for other in record_backed:
            assert other.records == record_backed[0].records
            assert other.counters == record_backed[0].counters
            assert other.utilizations == record_backed[0].utilizations
        assert _sorted_records(record_backed[0]) == _sorted_records(first)


class TestScalarEquivalence:
    """Record-free streaming summaries == record-backed summaries."""

    @pytest.mark.parametrize("arrival", ARRIVALS)
    def test_summary_scalars(self, small_cluster, small_tasks, solved, arrival):
        with arrival_process(arrival):
            record_backed = simulate_plan(small_tasks, solved, small_cluster, _cfg())
            streamed = simulate_plan(
                small_tasks, solved, small_cluster,
                _cfg(streaming=True, chunk_size=64),
            )
        assert streamed.streaming and not streamed.records
        assert streamed.counters == record_backed.counters
        assert streamed.total_requests == record_backed.total_requests
        # integer-derived scalars are exact
        assert streamed.miss_rate == record_backed.miss_rate
        assert streamed.accuracy == record_backed.accuracy
        assert streamed.goodput() == record_backed.goodput()
        # float means accumulate per-chunk np.sum + Neumaier compensation
        assert streamed.mean_latency_s == pytest.approx(
            record_backed.mean_latency_s, rel=1e-12
        )

    @pytest.mark.parametrize("q", [50.0, 95.0, 99.0])
    def test_histogram_quantiles(self, small_cluster, small_tasks, solved, q):
        """hist quantile = upper bin edge of the ceil-rank order statistic.

        np.percentile *interpolates* between order statistics, so the
        histogram is compared against the order statistic itself: the
        reported value must sit within one bin above it.
        """
        record_backed = simulate_plan(
            small_tasks, solved, small_cluster, _cfg()
        )
        streamed = simulate_plan(
            small_tasks, solved, small_cluster, _cfg(streaming=True)
        )
        exact = _exact_quantile(record_backed.latencies(), q)
        got = streamed.percentile_latency_s(q)
        assert exact <= got <= exact + streamed.stream.bin_s + 1e-12

    def test_per_task_stats(self, small_cluster, small_tasks, solved):
        record_backed = simulate_plan(small_tasks, solved, small_cluster, _cfg())
        streamed = simulate_plan(
            small_tasks, solved, small_cluster, _cfg(streaming=True)
        )
        assert set(streamed.per_task) == set(record_backed.per_task)
        for name, got in streamed.per_task.items():
            want = record_backed.per_task[name]
            assert got.count == want.count
            assert got.miss_rate == want.miss_rate
            assert got.accuracy == want.accuracy
            assert got.offload_fraction == want.offload_fraction
            assert got.mean_exit_position == pytest.approx(
                want.mean_exit_position, rel=1e-12
            )
            assert got.mean_latency_s == pytest.approx(
                want.mean_latency_s, rel=1e-12
            )
            assert got.max_latency_s == want.max_latency_s


class TestShardedCells:
    def test_one_cell_is_plain_streaming(self, small_cluster, small_tasks, solved):
        cfg = _cfg(streaming=True)
        merged = run_cells(small_tasks, solved, small_cluster, cfg, 1)
        plain = simulate_plan(small_tasks, solved, small_cluster, cfg)
        assert merged.counters == plain.counters
        assert merged.mean_latency_s == plain.mean_latency_s
        assert merged.miss_rate == plain.miss_rate

    def test_serial_equals_pooled(self, small_cluster, small_tasks, solved):
        cfg = _cfg(streaming=True)
        serial = run_cells(
            small_tasks, solved, small_cluster, replace(cfg, sim_workers=1), 4
        )
        pooled = run_cells(
            small_tasks, solved, small_cluster, replace(cfg, sim_workers=4), 4
        )
        assert serial.counters == pooled.counters
        assert serial.counters.conserved()
        assert serial.mean_latency_s == pooled.mean_latency_s
        assert serial.miss_rate == pooled.miss_rate

    def test_cells_thin_the_offered_load(self, small_cluster, small_tasks, solved):
        """4 cells at rate/4 each ≈ the single-cell request volume."""
        cfg = _cfg(streaming=True, horizon_s=30.0)
        merged = run_cells(small_tasks, solved, small_cluster, cfg, 4)
        single = simulate_plan(small_tasks, solved, small_cluster, cfg)
        assert merged.streaming
        assert merged.counters.conserved()
        assert merged.counters.requests == pytest.approx(
            single.counters.requests, rel=0.25
        )

    def test_empty_cell_is_benign(self, small_cluster, small_tasks, solved):
        """Thinning across many cells may leave a cell with zero arrivals in
        the horizon — the merge must absorb it, not raise."""
        thin = [replace(t, arrival_rate=0.4) for t in small_tasks]
        cfg = _cfg(streaming=True, horizon_s=4.0, warmup_s=0.0)
        # enough cells that some draw no arrivals at rate*horizon/cells = 0.2
        merged = run_cells(thin, solved, small_cluster, cfg, 8)
        assert merged.counters.requests > 0
        assert merged.counters.conserved()

    def test_all_cells_empty_raises(self, small_cluster, small_tasks, solved):
        dead = [replace(t, arrival_rate=1e-9) for t in small_tasks]
        cfg = _cfg(streaming=True, horizon_s=1.0, warmup_s=0.0)
        with pytest.raises(SimulationError, match="no requests"):
            run_cells(dead, solved, small_cluster, cfg, 4)

    def test_invalid_cells(self, small_cluster, small_tasks, solved):
        with pytest.raises(ConfigError, match="cells"):
            run_cells(
                small_tasks, solved, small_cluster, _cfg(streaming=True), 0
            )


class TestLatencyHistogram:
    def test_quantile_matches_order_statistic(self):
        rng = np.random.default_rng(3)
        data = rng.exponential(0.05, size=5000)
        hist = LatencyHistogram(bin_s=1e-3, max_s=10.0)
        hist.observe(data)
        for q in (0.0, 50.0, 95.0, 99.0, 100.0):
            exact = _exact_quantile(data, q)
            got = hist.quantile(q)
            assert exact <= got <= exact + hist.bin_s + 1e-12

    def test_chunked_observe_equals_one_shot(self):
        rng = np.random.default_rng(4)
        data = rng.exponential(0.05, size=1000)
        whole = LatencyHistogram()
        whole.observe(data)
        parts = LatencyHistogram()
        for chunk in np.array_split(data, 7):
            parts.observe(chunk)
        np.testing.assert_array_equal(parts.counts, whole.counts)
        assert parts.overflow == whole.overflow
        assert parts.min_s == whole.min_s
        assert parts.max_seen_s == whole.max_seen_s

    def test_overflow_bucket(self):
        hist = LatencyHistogram(bin_s=0.1, max_s=1.0)
        hist.observe(np.array([0.05, 0.5, 3.0, 7.0]))
        assert hist.overflow == 2
        assert hist.max_seen_s == 7.0
        # p100 falls in the overflow bucket: exact running max is returned
        assert hist.quantile(100.0) == 7.0

    def test_merge_is_exact(self):
        rng = np.random.default_rng(5)
        a_data = rng.exponential(0.05, size=400)
        b_data = rng.exponential(0.2, size=600)
        a, b, both = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
        a.observe(a_data)
        b.observe(b_data)
        both.observe(np.concatenate([a_data, b_data]))
        a.merge(b)
        np.testing.assert_array_equal(a.counts, both.counts)
        assert a.overflow == both.overflow
        assert a.max_seen_s == both.max_seen_s

    def test_merge_binning_mismatch(self):
        a = LatencyHistogram(bin_s=1e-3)
        b = LatencyHistogram(bin_s=2e-3)
        with pytest.raises(SimulationError, match="binning"):
            a.merge(b)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(bin_s=float("nan")),
            dict(bin_s=float("inf")),
            dict(max_s=float("nan")),
            dict(max_s=float("inf")),
            dict(bin_s=0.0),
            dict(bin_s=1.0, max_s=1.0),
        ],
    )
    def test_invalid_binning(self, kwargs):
        with pytest.raises(SimulationError, match="invalid histogram bins"):
            LatencyHistogram(**kwargs)

    @pytest.mark.parametrize("q", [-5.0, 100.5, 150.0, float("nan")])
    def test_quantile_range_checked_even_when_empty(self, q):
        with pytest.raises(SimulationError, match="outside"):
            LatencyHistogram().quantile(q)
        with pytest.raises(SimulationError, match="outside"):
            StreamingStats().quantile(q)
        assert math.isnan(LatencyHistogram().quantile(50.0))
        assert math.isnan(StreamingStats().quantile(50.0))

    def test_streaming_bins_fit_int32_cell_keys(self):
        assert StreamingStats(bin_s=1e-9, max_s=2.0).n_bins == 2_000_000_000
        with pytest.raises(SimulationError, match="coarsen bin_s"):
            StreamingStats(bin_s=1e-9, max_s=3.0)  # 3e9 bins: past int32 keys

    def test_stores_only_occupied_bins(self):
        hist = LatencyHistogram(bin_s=0.1, max_s=10.0)
        hist.observe(np.array([0.55, 0.72]))
        assert (hist.lo, hist.counts.tolist()) == (5, [1, 0, 1])
        hist.observe(np.array([0.05, 42.0]))  # grows down; overflow stays out
        assert (hist.lo, hist.counts.tolist()) == (0, [1, 0, 0, 0, 0, 1, 0, 1])
        assert hist.quantile(0.0) == pytest.approx(0.1)
        assert hist.quantile(100.0) == 42.0

    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
    def test_bad_latency_rejected(self, bad):
        with pytest.raises(SimulationError, match="non-negative"):
            LatencyHistogram().observe(np.array([0.1, bad]))


def test_streaming_stats_memory_follows_traffic():
    """1,024 tasks of 50-250 ms latencies hold under 1% of the dense layout."""
    rng = np.random.default_rng(0)
    stats = StreamingStats()  # default 0.5 ms bins up to 30 s: 60,000 bins
    for i in range(1024):
        n = 20
        arrival = np.sort(rng.uniform(0.0, 5.0, n))
        latency = rng.uniform(0.05, 0.25, n)
        zeros = np.zeros(n)
        stats.observe(
            f"t{i}", np.arange(n), arrival, arrival + latency, arrival + 1.0,
            np.ones(n, dtype=np.int64), np.ones(n, bool), np.ones(n, bool),
            zeros, zeros, zeros,
        )
    held = sum(b.nbytes + c.nbytes for b, c in map(stats.cells, stats.tasks()))
    dense = 1024 * LatencyHistogram().n_bins * 8
    assert dense == 1024 * 480_000
    assert held < 0.01 * dense
    assert stats.count == 1024 * 20


class TestStreamingStatsReservoir:
    @staticmethod
    def _observe(stats, n, seed=0, task="t"):
        rng = np.random.default_rng(seed)
        arrival = np.sort(rng.uniform(0, 10, n))
        lat = rng.exponential(0.05, n)
        stats.observe(
            task,
            np.arange(n, dtype=np.int64),
            arrival,
            arrival + lat,
            arrival + 0.2,
            np.zeros(n, dtype=np.int64),
            np.zeros(n, dtype=bool),
            np.ones(n, dtype=bool),
            lat,
            np.zeros(n),
            np.zeros(n),
        )

    def test_bounded_and_seeded(self):
        a = StreamingStats(max_records=32, seed=7)
        b = StreamingStats(max_records=32, seed=7)
        for s in (a, b):
            self._observe(s, 500)
        assert len(a.reservoir) == 32
        assert a.reservoir == b.reservoir  # same seed → same sample
        c = StreamingStats(max_records=32, seed=8)
        self._observe(c, 500)
        assert c.reservoir != a.reservoir  # different seed → different sample

    def test_keeps_all_when_large(self):
        s = StreamingStats(max_records=1000, seed=0)
        self._observe(s, 100)
        assert len(s.reservoir) == 100

    def test_zero_keeps_none(self):
        s = StreamingStats(max_records=0)
        self._observe(s, 100)
        assert s.reservoir == []
        assert s.count == 100


class TestStreamingReportSurface:
    def test_latencies_raise(self, small_cluster, small_tasks, solved):
        streamed = simulate_plan(
            small_tasks, solved, small_cluster, _cfg(streaming=True)
        )
        with pytest.raises(SimulationError, match="streaming reports keep no"):
            streamed.latencies()

    def test_reservoir_records_are_real(self, small_cluster, small_tasks, solved):
        one_shot = simulate_plan(small_tasks, solved, small_cluster, _cfg())
        sampled = simulate_plan(
            small_tasks, solved, small_cluster,
            _cfg(streaming=True, max_records=16),
        )
        assert len(sampled.records) == 16
        full = {(r.task_name, r.req_id): r for r in one_shot.records}
        for rec in sampled.records:
            assert full[(rec.task_name, rec.req_id)] == rec

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="fault schedules"):
            _cfg(streaming=True, faults=FaultSchedule())
        with pytest.raises(ConfigError, match="chunk_size"):
            _cfg(streaming=True, chunk_size=0)
        with pytest.raises(ConfigError, match="max_records"):
            _cfg(streaming=True, max_records=-1)


class TestMergeReports:
    def test_empty_sequence_raises(self):
        with pytest.raises(SimulationError, match="at least one report"):
            merge_reports([])

    def test_mixed_modes_raise(self, small_cluster, small_tasks, solved):
        record_backed = simulate_plan(small_tasks, solved, small_cluster, _cfg())
        streamed = simulate_plan(
            small_tasks, solved, small_cluster, _cfg(streaming=True)
        )
        with pytest.raises(SimulationError, match="streaming and record-backed"):
            merge_reports([record_backed, streamed])

    def test_all_empty_records(self, small_cluster, small_tasks, solved):
        """Reports whose records were all warmup-discarded still merge."""
        # warmup ~ horizon: every completion is discarded, records == []
        cfg = _cfg(horizon_s=2.0, warmup_s=2.0 - 1e-9)
        empty = simulate_plan(small_tasks, solved, small_cluster, cfg)
        assert empty.records == []
        merged = merge_reports([empty, empty])
        assert merged.records == []
        assert merged.counters.conserved()
        assert merged.counters.requests == 2 * empty.counters.requests

    def test_streaming_merge_conserves(self, small_cluster, small_tasks, solved):
        a = simulate_plan(
            small_tasks, solved, small_cluster, _cfg(streaming=True, seed=1)
        )
        b = simulate_plan(
            small_tasks, solved, small_cluster, _cfg(streaming=True, seed=2)
        )
        merged = merge_reports([a, b])
        assert merged.streaming
        assert merged.counters.conserved()
        assert merged.counters.requests == (
            a.counters.requests + b.counters.requests
        )
        assert merged.total_requests == a.total_requests + b.total_requests


class TestCachedColumns:
    def test_latencies_cached(self, small_cluster, small_tasks, solved):
        report = simulate_plan(small_tasks, solved, small_cluster, _cfg())
        first = report.latencies()
        assert report.latencies() is first  # one pass over records, then reuse
        # derived scalars agree with a scan over the records
        assert report.miss_rate == pytest.approx(
            np.mean([not r.met_deadline for r in report.records])
        )
        assert report.accuracy == pytest.approx(
            np.mean([r.correct for r in report.records])
        )
