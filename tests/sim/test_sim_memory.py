"""The simulator's working set follows the requests in flight.

- The fast-path sweep realizes one device group of one window at a time and
  drops each task's rows once it has advanced, so a streaming sweep peaks
  well below one whole window of request rows.
- Window histograms store only their non-zero ``(window, bin)`` cells, so a
  fault run with a few outlier latencies costs those cells and no more.
- Per-task state is columns, and a task's stream lives only while its
  device group is swept, so a one-window run over many light tasks costs a
  few KiB per task.
- An arrival stream refills about one window's arrivals and keeps only
  the leftover past the window, as an owned copy, so a long multi-window
  run holds about one window of arrivals per live task.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.core.candidates import build_candidates
from repro.core.joint import JointOptimizer, JointSolverConfig
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.sim import fastpath
from repro.sim.runner import SimulationConfig, simulate_plan
from repro.sim.sources import PoissonStream
from repro.telemetry.windows import WindowConfig
from repro.workloads.scenarios import build_scenario


@pytest.fixture(scope="module")
def sixteen_devices():
    """Sixteen tasks, one per device, at equal rates (equal per-task windows)."""
    cluster, tasks = build_scenario("smart_city", num_tasks=16, seed=0)
    tasks = [dataclasses.replace(t, arrival_rate=3.5) for t in tasks]
    cands = [build_candidates(t) for t in tasks]
    plan = JointOptimizer(cluster).solve(tasks, candidates=cands, seed=0).plan
    return cluster, tasks, plan


def test_streaming_sweep_peaks_below_one_window(sixteen_devices):
    cluster, tasks, plan = sixteen_devices
    assert len({t.device_name for t in tasks}) == len(tasks) == 16
    cfg = SimulationConfig(horizon_s=3750.0, warmup_s=1.0, seed=0, streaming=True)
    simulate_plan(tasks, plan, cluster, dataclasses.replace(cfg, horizon_s=2.0))  # warm caches
    tracemalloc.start()
    try:
        rep = simulate_plan(tasks, plan, cluster, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.counters.requests >= 200_000
    window_bytes = cfg.chunk_size * len(fastpath.COLS) * 8
    assert peak < 0.5 * window_bytes, (peak, window_bytes)


def test_multi_window_run_keeps_about_one_window_of_arrivals(sixteen_devices, monkeypatch):
    cluster, tasks, plan = sixteen_devices
    cfg = SimulationConfig(
        horizon_s=1000.0, warmup_s=1.0, seed=0, streaming=True, chunk_size=4096,
        windows=WindowConfig(window_s=10.0, bin_s=0.02),
    )
    kept = []  # bytes each take_until leaves its stream holding
    take = PoissonStream.take_until

    def spy(self, t_end):
        window = take(self, t_end)
        buf = self._buffer
        kept.append((buf if buf.base is None else buf.base).nbytes)
        return window

    monkeypatch.setattr(PoissonStream, "take_until", spy)
    rep = simulate_plan(tasks, plan, cluster, cfg)
    window_arrivals = cfg.chunk_size / len(tasks)  # equal rates: one task's share
    assert rep.counters.requests > 12 * cfg.chunk_size  # many windows
    assert len(kept) > 12 * len(tasks)
    assert max(kept) <= 2 * window_arrivals * 8, (max(kept), window_arrivals)


@pytest.fixture(scope="module")
def fleet_512():
    """512 light tasks, one per device, on 128 servers (a sharded solve)."""
    cluster, tasks = build_scenario("smart_city", num_tasks=512, num_servers=128, seed=0)
    cands = [build_candidates(t) for t in tasks]
    config = JointSolverConfig(
        shards=16, shard_by="interleave", local_search=False, refine_thresholds=False
    )
    plan = JointOptimizer(cluster, config=config).solve(tasks, candidates=cands, seed=0).plan
    return cluster, tasks, plan


#: tracemalloc peak of the 512-task run, per task: ~3.6 KiB measured with
#: columnar per-task state and streams released after their last window
#: (~11.4 KiB with one stats and one window object per task and every
#: stream alive to the end)
FLEET_PEAK_PER_TASK = 4.5 * 1024


def test_many_task_streaming_run_peaks_per_task(fleet_512):
    cluster, tasks, plan = fleet_512
    assert len({t.device_name for t in tasks}) == len(tasks) == 512
    cfg = SimulationConfig(
        horizon_s=5.0, warmup_s=1.0, seed=0, streaming=True, windows=WindowConfig()
    )
    simulate_plan(tasks, plan, cluster, dataclasses.replace(cfg, horizon_s=2.0))  # warm caches
    tracemalloc.start()
    try:
        rep = simulate_plan(tasks, plan, cluster, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.counters.requests < cfg.chunk_size  # one realization window
    assert len(rep.per_task) == len(rep.windowed.tasks()) == 512
    assert peak / len(tasks) < FLEET_PEAK_PER_TASK, peak / len(tasks)


def test_fault_run_stores_only_nonzero_cells(small_cluster, small_tasks, small_candidates):
    """A brief link degradation leaves a few far-out latencies."""
    plan = JointOptimizer(small_cluster).solve(
        small_tasks, candidates=small_candidates, seed=0
    ).plan
    degrade = FaultSchedule(events=tuple(
        FaultEvent("link_degrade", t.name, 4.0, 4.2, severity=0.1) for t in small_tasks
    ))
    cfg = SimulationConfig(
        horizon_s=30.0, warmup_s=0.0, seed=3, faults=degrade, windows=WindowConfig(),
    )
    rep = simulate_plan(small_tasks, plan, small_cluster, cfg)
    assert 0 < np.count_nonzero(rep.latencies() > 0.5) <= 5
    wm = rep.windowed
    stored = columns = 0
    for task in wm.tasks():
        dense = wm.dense_hist(task)
        nonzero = np.flatnonzero(dense)
        keys, cells = wm.cells(task)
        np.testing.assert_array_equal(keys, nonzero)
        np.testing.assert_array_equal(cells, dense.ravel()[nonzero])
        assert keys.nbytes + cells.nbytes == 16 * nonzero.size
        stored += nonzero.size
        occupied = np.flatnonzero(dense.any(axis=0))
        columns += wm.n_windows * (occupied[-1] - occupied[0] + 1)
    # a plane of each task's occupied bin columns would be 20x larger: the
    # outliers stretch the bin range across every window
    assert stored * 20 < columns
