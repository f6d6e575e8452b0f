"""Online re-optimization controller."""

import numpy as np
import pytest

from repro.core.online import (
    ControllerConfig,
    EnvironmentSample,
    OnlineController,
)
from repro.core.sharding import ShardPlan
from repro.errors import ConfigError
from repro.telemetry.drift import DriftConfig
from repro.telemetry.metrics import MetricsRegistry
from repro.units import mbps


@pytest.fixture()
def controller(small_cluster, small_tasks, small_candidates):
    return OnlineController(
        small_cluster,
        small_tasks,
        candidates=small_candidates,
        config=ControllerConfig(replan_threshold=0.3, min_replan_interval_s=1.0),
    )


def all_links(cluster, bw):
    return {k: bw for k in cluster.topology.links}


class TestConfigValidation:
    def test_negative_threshold(self):
        with pytest.raises(ConfigError):
            ControllerConfig(replan_threshold=-0.1)

    def test_negative_interval(self):
        with pytest.raises(ConfigError):
            ControllerConfig(min_replan_interval_s=-1.0)

    def test_sample_validation(self):
        with pytest.raises(ConfigError):
            EnvironmentSample(time_s=-1.0)
        with pytest.raises(ConfigError):
            EnvironmentSample(time_s=0.0, arrival_rates={"t": 0.0})


class TestController:
    def test_initial_plan_solved(self, controller, small_tasks):
        assert set(controller.plan.latencies) == {t.name for t in small_tasks}
        assert np.isfinite(controller.plan.objective_value)
        assert controller.replan_count == 0

    def test_small_drift_no_replan(self, controller, small_cluster):
        fired = controller.observe(
            EnvironmentSample(
                time_s=5.0,
                bandwidth_bps=all_links(small_cluster, mbps(40) * 1.1),
            )
        )
        assert not fired
        assert controller.replan_count == 0

    def test_large_drift_replans(self, controller, small_cluster):
        fired = controller.observe(
            EnvironmentSample(
                time_s=5.0, bandwidth_bps=all_links(small_cluster, mbps(2))
            )
        )
        assert fired
        assert controller.replan_count == 1

    def test_hysteresis_blocks_flapping(self, small_cluster, small_tasks, small_candidates):
        c = OnlineController(
            small_cluster,
            small_tasks,
            candidates=small_candidates,
            config=ControllerConfig(replan_threshold=0.1, min_replan_interval_s=100.0),
        )
        assert not c.observe(
            EnvironmentSample(time_s=1.0, bandwidth_bps=all_links(small_cluster, mbps(5)))
        )
        assert "hysteresis" in c.events[-1].reason

    def test_arrival_drift_replans(self, controller, small_tasks):
        fired = controller.observe(
            EnvironmentSample(
                time_s=5.0,
                arrival_rates={small_tasks[0].name: small_tasks[0].arrival_rate * 3},
            )
        )
        assert fired

    def test_replan_adapts_to_fade(self, controller, small_cluster):
        before = controller.plan
        controller.observe(
            EnvironmentSample(
                time_s=5.0, bandwidth_bps=all_links(small_cluster, mbps(0.5))
            )
        )
        after = controller.plan
        # the faded plan ships (weakly) fewer expected bytes per request
        wire_before = sum(f.wire_bytes for f in before.features.values())
        wire_after = sum(f.wire_bytes for f in after.features.values())
        assert wire_after <= wire_before + 1e-9

    def test_unknown_link_rejected(self, controller):
        with pytest.raises(ConfigError):
            controller.observe(
                EnvironmentSample(time_s=1.0, bandwidth_bps={("x", "y"): 1e6})
            )

    def test_unknown_task_rejected(self, controller):
        with pytest.raises(ConfigError):
            controller.observe(
                EnvironmentSample(time_s=1.0, arrival_rates={"ghost": 1.0})
            )

    def test_events_logged(self, controller, small_cluster):
        controller.observe(
            EnvironmentSample(time_s=2.0, bandwidth_bps=all_links(small_cluster, mbps(41)))
        )
        controller.observe(
            EnvironmentSample(time_s=4.0, bandwidth_bps=all_links(small_cluster, mbps(1)))
        )
        assert [e.replanned for e in controller.events] == [True, False, True]

    def test_current_tasks_reflect_rates(self, controller, small_tasks, small_cluster):
        controller.observe(
            EnvironmentSample(time_s=5.0, arrival_rates={small_tasks[0].name: 9.0})
        )
        tasks = controller.current_tasks()
        assert tasks[0].arrival_rate == 9.0

    def test_empty_tasks_rejected(self, small_cluster):
        with pytest.raises(ConfigError):
            OnlineController(small_cluster, [])


#: window=6 and 400 relabelings give the permutation test the power to
#: fire mid-transition (see tests/telemetry/test_drift.py)
DRIFT = DriftConfig(window=6, permutations=400)


class TestDriftWiring:
    def test_service_time_validation(self, controller):
        with pytest.raises(ConfigError, match="non-positive service time"):
            EnvironmentSample(time_s=1.0, service_times_s={"t0": 0.0})
        with pytest.raises(ConfigError, match="unknown task"):
            controller.observe(
                EnvironmentSample(time_s=1.0, service_times_s={"ghost": 0.1})
            )

    def test_drift_off_by_default(self, controller, small_cluster):
        assert controller.drift_monitor is None
        controller.observe(
            EnvironmentSample(time_s=1.0, service_times_s={"t0": 0.05})
        )
        assert controller.drifted_shards == ()

    def test_shard_plan_must_home_controller_tasks(
        self, small_cluster, small_tasks, small_candidates
    ):
        with pytest.raises(ConfigError, match="different task set"):
            OnlineController(
                small_cluster, small_tasks, candidates=small_candidates,
                drift=DRIFT,
                shard_plan=ShardPlan(server_shards=((0,), (1,)), task_shard=(0,)),
            )

    def test_flags_only_perturbed_shard(
        self, small_cluster, small_tasks, small_candidates
    ):
        # t0 homed on shard 0, t1 on shard 1; only t1's service time jumps.
        # Service times bypass the re-plan trigger, so no solves fire while
        # the statistical monitor accumulates its windows.
        registry = MetricsRegistry()
        c = OnlineController(
            small_cluster, small_tasks, candidates=small_candidates,
            drift=DRIFT,
            shard_plan=ShardPlan(server_shards=((0,), (1,)), task_shard=(0, 1)),
            registry=registry,
        )
        stable = [0.020, 0.0202, 0.0198, 0.0201, 0.0199, 0.020]
        for i, v in enumerate(stable * 2):
            c.observe(EnvironmentSample(
                time_s=float(i), service_times_s={"t0": v, "t1": v},
            ))
        assert c.drifted_shards == ()
        for i, v in enumerate([0.050, 0.0498, 0.0502, 0.0501, 0.0499, 0.050]):
            c.observe(EnvironmentSample(
                time_s=12.0 + i, service_times_s={"t0": 0.020, "t1": v},
            ))
            if c.drifted_shards:
                break
        assert c.drifted_shards == (1,)
        assert registry.gauge("shard.0.drifted").value == 0.0
        assert registry.gauge("shard.1.drifted").value == 1.0
        # after a targeted re-solve the operator resets the shard's streams
        c.drift_monitor.reset_shard(1)
        assert c.drifted_shards == ()

    def test_without_shard_plan_everything_is_shard_zero(
        self, small_cluster, small_tasks, small_candidates
    ):
        registry = MetricsRegistry()
        c = OnlineController(
            small_cluster, small_tasks, candidates=small_candidates,
            drift=DRIFT, registry=registry,
        )
        for i in range(12):
            c.observe(EnvironmentSample(
                time_s=float(i), service_times_s={"t0": 0.02},
            ))
        for i in range(6):
            c.observe(EnvironmentSample(
                time_s=12.0 + i, service_times_s={"t0": 0.08},
            ))
            if c.drifted_shards:
                break
        assert c.drifted_shards == (0,)
        assert registry.gauge("shard.0.drifted").value == 1.0


class TestIncrementalReplan:
    """Drift-flagged strict-subset re-plans route through resolve_dirty."""

    def _drifted_controller(self, small_cluster, small_tasks, small_candidates, jump=("t1",)):
        """A two-shard controller whose ``jump`` tasks' service times step
        up together, observed until every shard homing them is flagged."""
        from repro.core.joint import JointSolverConfig

        c = OnlineController(
            small_cluster, small_tasks, candidates=small_candidates,
            solver_config=JointSolverConfig(shards=2),
            config=ControllerConfig(replan_threshold=0.3, min_replan_interval_s=1.0),
            drift=DRIFT,
            shard_plan=ShardPlan(server_shards=((0,), (1,)), task_shard=(0, 1)),
        )
        stable = [0.020, 0.0202, 0.0198, 0.0201, 0.0199, 0.020]
        for i, v in enumerate(stable * 2):
            c.observe(EnvironmentSample(
                time_s=float(i), service_times_s={"t0": v, "t1": v},
            ))
        want = tuple(int(t[1:]) for t in jump)  # t<i> is homed on shard i
        for i, v in enumerate([0.050, 0.0498, 0.0502, 0.0501, 0.0499, 0.050]):
            c.observe(EnvironmentSample(
                time_s=12.0 + i,
                service_times_s={t: v if t in jump else 0.020 for t in ("t0", "t1")},
            ))
            if c.drifted_shards == want:
                break
        assert c.drifted_shards == want
        return c

    def test_subset_drift_resolves_incrementally(
        self, small_cluster, small_tasks, small_candidates
    ):
        c = self._drifted_controller(small_cluster, small_tasks, small_candidates)
        fired = c.observe(
            EnvironmentSample(time_s=40.0, arrival_rates={"t1": 8.0})
        )
        assert fired
        event = c.events[-1]
        assert event.replanned
        assert event.reason.startswith("incremental re-solve of shards [1]")
        # the re-solved shard's streams are reset for fresh calibration
        assert c.drifted_shards == ()
        assert set(c.plan.latencies) == {t.name for t in small_tasks}

    def test_global_drift_escalates_to_full_solve(
        self, small_cluster, small_tasks, small_candidates
    ):
        # both shards drift together: every shard dirty -> full solve
        c = self._drifted_controller(
            small_cluster, small_tasks, small_candidates, jump=("t0", "t1")
        )
        fired = c.observe(
            EnvironmentSample(time_s=40.0, arrival_rates={"t0": 9.0})
        )
        assert fired
        assert not c.events[-1].reason.startswith("incremental")

    def test_centralized_solver_never_incremental(
        self, small_cluster, small_tasks, small_candidates
    ):
        # shards=1 (default solver): the drift monitor may flag, but there
        # is no prior sharded result to stitch from
        c = OnlineController(
            small_cluster, small_tasks, candidates=small_candidates,
            config=ControllerConfig(replan_threshold=0.3, min_replan_interval_s=1.0),
            drift=DRIFT,
            shard_plan=ShardPlan(server_shards=((0,), (1,)), task_shard=(0, 1)),
        )
        for i in range(12):
            c.observe(EnvironmentSample(
                time_s=float(i), service_times_s={"t0": 0.02, "t1": 0.02},
            ))
        for i in range(6):
            c.observe(EnvironmentSample(
                time_s=12.0 + i, service_times_s={"t1": 0.05},
            ))
            if c.drifted_shards:
                break
        fired = c.observe(
            EnvironmentSample(time_s=40.0, arrival_rates={"t1": 8.0})
        )
        assert fired
        assert not c.events[-1].reason.startswith("incremental")
