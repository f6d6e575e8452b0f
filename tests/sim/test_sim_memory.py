"""The simulator's working set follows the requests in flight.

- The fast-path sweep realizes one device group of one window at a time and
  drops each task's rows once it has advanced, so a streaming sweep peaks
  well below one whole window of request rows.
- Window histograms store only their non-zero ``(window, bin)`` cells, so a
  fault run with a few outlier latencies costs those cells and no more.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.core.candidates import build_candidates
from repro.core.joint import JointOptimizer
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.sim import fastpath
from repro.sim.runner import SimulationConfig, simulate_plan
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
    window_bytes = cfg.chunk_size * len(fastpath._COLS) * 8
    assert peak < 0.5 * window_bytes, (peak, window_bytes)


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
        tw = wm.per_task[task]
        assert tw.open_row is None  # no dense row outlives a read
        assert tw.keys.nbytes + tw.cells.nbytes == 16 * nonzero.size
        stored += nonzero.size
        occupied = np.flatnonzero(dense.any(axis=0))
        columns += wm.n_windows * (occupied[-1] - occupied[0] + 1)
    # a plane of each task's occupied bin columns would be 20x larger: the
    # outliers stretch the bin range across every window
    assert stored * 20 < columns
