"""Deterministic replication fan-out: serial == parallel, rep 0 == plain run."""

import concurrent.futures
import dataclasses
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.joint import JointOptimizer
from repro.errors import ConfigError
from repro.faults import FaultSchedule
from repro.sim import runner as runner_mod
from repro.sim.metrics import merge_reports
from repro.sim.runner import SimulationConfig, run_replications, simulate_plan
from repro.telemetry.metrics import get_registry


@pytest.fixture(scope="module")
def solved(small_cluster, small_tasks, small_candidates):
    return JointOptimizer(small_cluster).solve(
        small_tasks, candidates=small_candidates, seed=0
    ).plan


def assert_reports_identical(a, b):
    assert a.records == b.records
    assert a.utilizations == b.utilizations
    assert a.discarded_warmup == b.discarded_warmup
    assert a.counters == b.counters


@pytest.fixture(scope="module")
def base_cfg():
    return SimulationConfig(horizon_s=6.0, warmup_s=0.5, seed=21, replications=3)


class TestReplications:
    def test_serial_equals_parallel(self, small_cluster, small_tasks, solved, base_cfg):
        serial = run_replications(small_tasks, solved, small_cluster, base_cfg)
        parallel = run_replications(
            small_tasks, solved, small_cluster,
            dataclasses.replace(base_cfg, sim_workers=4),
        )
        assert len(serial) == len(parallel) == 3
        for s, p in zip(serial, parallel):
            assert_reports_identical(s, p)

    def test_replication_zero_is_the_plain_run(self, small_cluster, small_tasks, solved, base_cfg):
        reps = run_replications(small_tasks, solved, small_cluster, base_cfg)
        plain = simulate_plan(
            small_tasks, solved, small_cluster,
            dataclasses.replace(base_cfg, replications=1),
        )
        assert_reports_identical(reps[0], plain)

    def test_replications_differ_from_each_other(self, small_cluster, small_tasks, solved, base_cfg):
        reps = run_replications(small_tasks, solved, small_cluster, base_cfg)
        assert reps[0].records != reps[1].records  # independent seed streams

    def test_merged_report(self, small_cluster, small_tasks, solved, base_cfg):
        reps = run_replications(small_tasks, solved, small_cluster, base_cfg)
        merged = merge_reports(reps)
        assert merged.total_requests == sum(r.total_requests for r in reps)
        assert merged.counters.replications == 3
        assert merged.counters.events == sum(r.counters.events for r in reps)
        # records keep replication order, so serial/parallel merges are equal
        assert merged.records[: reps[0].total_requests] == reps[0].records

    def test_event_loop_replications_match_fast(self, small_cluster, small_tasks, solved, base_cfg):
        fast = run_replications(small_tasks, solved, small_cluster, base_cfg)
        event = run_replications(
            small_tasks, solved, small_cluster,
            dataclasses.replace(base_cfg, faults=FaultSchedule()),
        )
        for f, e in zip(fast, event):
            assert_reports_identical(f, e)

    @pytest.mark.parametrize("kwargs", [dict(replications=0), dict(sim_workers=0)])
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigError):
            SimulationConfig(**kwargs)


class TestPoolFallback:
    def test_pool_start_failure_warns_and_runs_serially(
        self, small_cluster, small_tasks, solved, base_cfg, monkeypatch
    ):
        class NoPool:
            def __init__(self, *a, **k):
                raise OSError("no semaphores")

        fallbacks = get_registry().counter("sim.pool.fallbacks")
        serial = run_replications(small_tasks, solved, small_cluster, base_cfg)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        before = fallbacks.value
        with pytest.warns(RuntimeWarning, match="OSError: no semaphores"):
            pooled = run_replications(
                small_tasks, solved, small_cluster,
                dataclasses.replace(base_cfg, sim_workers=2),
            )
        assert fallbacks.value == before + 1
        assert len(pooled) == len(serial)
        for s, p in zip(serial, pooled):
            assert_reports_identical(s, p)

    def test_broken_pool_warns_and_runs_serially(
        self, small_cluster, small_tasks, solved, base_cfg, monkeypatch
    ):
        class BrokenPool:
            def __init__(self, *a, **k):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                raise BrokenProcessPool("worker killed")

        serial = run_replications(small_tasks, solved, small_cluster, base_cfg)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", BrokenPool)
        with pytest.warns(RuntimeWarning, match="BrokenProcessPool: worker killed"):
            pooled = run_replications(
                small_tasks, solved, small_cluster,
                dataclasses.replace(base_cfg, sim_workers=2),
            )
        assert len(pooled) == len(serial)
        for s, p in zip(serial, pooled):
            assert_reports_identical(s, p)

    def test_job_error_propagates_without_serial_rerun(
        self, small_cluster, small_tasks, solved, base_cfg, monkeypatch
    ):
        class FailingPool:
            def __init__(self, *a, **k):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                raise ValueError("job failed")

        calls = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FailingPool)
        monkeypatch.setattr(
            runner_mod, "_replication_worker", lambda job: calls.append(job)
        )
        with pytest.raises(ValueError, match="job failed"):
            run_replications(
                small_tasks, solved, small_cluster,
                dataclasses.replace(base_cfg, sim_workers=2),
            )
        assert calls == []
