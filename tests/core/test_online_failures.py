"""Server-liveness handling in the online controller: immediate repair
solves, cluster shrinking, recovery, and plan-repair packaging."""

import pytest

from repro.core.online import (
    ControllerConfig,
    EnvironmentSample,
    OnlineController,
)
from repro.errors import ConfigError
from repro.faults.policy import PlanUpdate


@pytest.fixture()
def controller(small_cluster, small_tasks, small_candidates):
    return OnlineController(
        small_cluster,
        small_tasks,
        candidates=small_candidates,
        config=ControllerConfig(replan_threshold=0.3, min_replan_interval_s=1.0),
    )


def _assigned_server(controller, cluster):
    """Name of a server carrying at least one task in the active plan."""
    for name, idx in controller.plan.assignment.items():
        if idx is not None:
            return cluster.servers[idx].name
    pytest.skip("plan offloads nothing")


class TestSampleValidation:
    def test_down_up_overlap_rejected(self):
        with pytest.raises(ConfigError, match="both down and up"):
            EnvironmentSample(time_s=1.0, server_down=("s",), server_up=("s",))

    def test_unknown_down_server_rejected(self, controller):
        with pytest.raises(ConfigError, match="unknown server"):
            controller.observe(EnvironmentSample(time_s=1.0, server_down=("ghost",)))

    def test_unknown_up_server_rejected(self, controller):
        with pytest.raises(ConfigError, match="unknown server"):
            controller.observe(EnvironmentSample(time_s=1.0, server_up=("ghost",)))


class TestServerFailure:
    def test_failure_of_assigned_server_replans_immediately(
        self, controller, small_cluster
    ):
        victim = _assigned_server(controller, small_cluster)
        # t=0.1 is deep inside the hysteresis window of the initial solve at 0
        replanned = controller.observe(
            EnvironmentSample(time_s=0.1, server_down=(victim,))
        )
        assert replanned
        assert victim not in [s.name for s in controller.current_cluster().servers]
        # the repaired plan routes around the dead server
        for idx in controller.plan.assignment.values():
            if idx is not None:
                assert small_cluster.servers[idx].name != victim

    def test_repair_reason_names_stranded_tasks(self, controller, small_cluster):
        victim = _assigned_server(controller, small_cluster)
        controller.observe(EnvironmentSample(time_s=0.1, server_down=(victim,)))
        assert "server failure" in controller.events[-1].reason
        assert victim in controller.events[-1].reason

    def test_current_cluster_excludes_down_servers(self, controller, small_cluster):
        victim = _assigned_server(controller, small_cluster)
        controller.observe(EnvironmentSample(time_s=0.1, server_down=(victim,)))
        names = [s.name for s in controller.current_cluster().servers]
        assert victim not in names
        assert len(names) == len(small_cluster.servers) - 1

    def test_all_servers_down_raises(self, controller, small_cluster):
        names = tuple(s.name for s in small_cluster.servers)
        with pytest.raises(ConfigError, match="all edge servers are down"):
            controller.observe(EnvironmentSample(time_s=0.1, server_down=names))

    def test_redundant_down_report_is_idempotent(self, controller, small_cluster):
        victim = _assigned_server(controller, small_cluster)
        controller.observe(EnvironmentSample(time_s=0.1, server_down=(victim,)))
        count = controller.replan_count
        # same server reported down again: no new transition, no re-solve
        replanned = controller.observe(
            EnvironmentSample(time_s=0.2, server_down=(victim,))
        )
        assert not replanned
        assert controller.replan_count == count


class TestServerRecovery:
    def test_recovery_replans_and_restores_cluster(self, controller, small_cluster):
        victim = _assigned_server(controller, small_cluster)
        controller.observe(EnvironmentSample(time_s=0.1, server_down=(victim,)))
        replanned = controller.observe(
            EnvironmentSample(time_s=5.0, server_up=(victim,))
        )
        assert replanned
        assert len(controller.current_cluster().servers) == len(small_cluster.servers)

    def test_recovery_of_unknown_outage_is_noop(self, controller, small_cluster):
        alive = small_cluster.servers[0].name
        replanned = controller.observe(
            EnvironmentSample(time_s=5.0, server_up=(alive,))
        )
        assert not replanned


class TestPlanRepairPackaging:
    def test_repair_update_wraps_active_plan(self, controller):
        update = controller.repair_update(3.0)
        assert isinstance(update, PlanUpdate)
        assert update.time_s == 3.0
        assert update.plan is controller.plan
        assert update.shed_tasks == ()

    def test_shed_on_overload_populates_update(
        self, small_cluster, small_tasks, small_candidates
    ):
        import dataclasses

        # deadlines nothing can meet force admission control to shed
        doomed = [
            dataclasses.replace(t, deadline_s=1e-6, arrival_rate=50.0)
            for t in small_tasks
        ]
        ctl = OnlineController(
            small_cluster,
            doomed,
            config=ControllerConfig(shed_on_overload=True),
        )
        assert ctl.shed_tasks
        update = ctl.repair_update(0.0)
        assert update.shed_tasks == ctl.shed_tasks
