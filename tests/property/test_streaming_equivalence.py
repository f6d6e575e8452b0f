"""Hypothesis: the streaming sweep is lossless across its whole knob space.

The unit tests in ``tests/sim/test_streaming.py`` pin specific seeds and
chunk sizes; these properties draw over the cross product —
arrival model × chunk size × seed × shard count — and assert the
streaming-equivalence contract every time:

- chunked streaming with a keep-all reservoir reproduces the record-backed
  fast path's record set bit-for-bit (chunking is an implementation detail, not
  a semantic one);
- record-free streaming summaries agree with record-backed summaries:
  integer-derived scalars exactly, mean latency to float-sum tolerance,
  histogram quantiles within one bin of the ceil-rank order statistic;
- sharded cells merge to conserved counters for any cell count, and the
  merge is invariant to whether cells ran serially or pooled.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.joint import JointOptimizer
from repro.sim import SimulationConfig, run_cells
from repro.sim.runner import simulate_plan

KEEP_ALL = 10**6


@pytest.fixture(scope="module")
def solved(small_cluster, small_tasks, small_candidates):
    return JointOptimizer(small_cluster).solve(
        small_tasks, candidates=small_candidates, seed=0
    ).plan


def _cfg(seed, arrival, **overrides):
    kw = dict(horizon_s=5.0, warmup_s=0.5, seed=seed, arrival=arrival)
    kw.update(overrides)
    return SimulationConfig(**kw)


def _sorted_records(report):
    return sorted(report.records, key=lambda r: (r.task_name, r.req_id))


arrivals = st.sampled_from(["poisson", "deterministic", "mmpp"])
chunk_sizes = st.one_of(st.integers(1, 128), st.just(10**9))
seeds = st.integers(0, 50)


@settings(max_examples=12, deadline=None)
@given(arrival=arrivals, chunk_size=chunk_sizes, seed=seeds)
def test_chunked_streaming_bit_identical(
    small_cluster, small_tasks, solved, arrival, chunk_size, seed
):
    one_shot = simulate_plan(
        small_tasks, solved, small_cluster, _cfg(seed, arrival)
    )
    streamed = simulate_plan(
        small_tasks, solved, small_cluster,
        _cfg(
            seed, arrival, streaming=True, chunk_size=chunk_size,
            max_records=KEEP_ALL,
        ),
    )
    assert _sorted_records(streamed) == _sorted_records(one_shot)
    assert streamed.counters == one_shot.counters
    assert streamed.utilizations == one_shot.utilizations
    assert streamed.discarded_warmup == one_shot.discarded_warmup


@settings(max_examples=12, deadline=None)
@given(
    arrival=arrivals,
    chunk_size=chunk_sizes,
    seed=seeds,
    q=st.sampled_from([50.0, 95.0, 99.0]),
)
def test_streaming_summary_matches_records(
    small_cluster, small_tasks, solved, arrival, chunk_size, seed, q
):
    record_backed = simulate_plan(
        small_tasks, solved, small_cluster, _cfg(seed, arrival)
    )
    streamed = simulate_plan(
        small_tasks, solved, small_cluster,
        _cfg(seed, arrival, streaming=True, chunk_size=chunk_size),
    )
    assert streamed.counters == record_backed.counters
    assert streamed.miss_rate == record_backed.miss_rate
    assert streamed.accuracy == record_backed.accuracy
    assert streamed.goodput() == record_backed.goodput()
    assert streamed.mean_latency_s == pytest.approx(
        record_backed.mean_latency_s, rel=1e-12
    )
    lat = record_backed.latencies()
    if lat.size:
        rank = math.ceil((lat.size - 1) * q / 100.0)
        exact = float(np.sort(lat)[rank])
        got = streamed.percentile_latency_s(q)
        assert exact <= got <= exact + streamed.stream.bin_s + 1e-12


@settings(max_examples=8, deadline=None)
@given(cells=st.integers(1, 5), seed=seeds)
def test_sharded_cells_conserve_and_commute(
    small_cluster, small_tasks, solved, cells, seed
):
    cfg = _cfg(seed, "poisson", streaming=True)
    serial = run_cells(
        small_tasks, solved, small_cluster, replace(cfg, sim_workers=1), cells
    )
    pooled = run_cells(
        small_tasks, solved, small_cluster,
        replace(cfg, sim_workers=min(cells, 2)), cells,
    )
    assert serial.counters.conserved()
    assert serial.counters == pooled.counters
    assert serial.mean_latency_s == pooled.mean_latency_s
    assert serial.miss_rate == pooled.miss_rate
    assert serial.total_requests == pooled.total_requests
