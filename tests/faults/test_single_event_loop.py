"""The fault runtime is the one event loop: a fault-free run is a run with an
empty schedule, and standby slices exist only where failover can use them."""

import pytest

from repro.faults import FailurePolicy, FaultSchedule
from repro.sim import SimulationConfig, simulate_plan
from repro.telemetry.windows import WindowConfig

_WINDOWS = WindowConfig(window_s=1.0, bin_s=5e-3, max_s=2.0)


def _cfg(**kw):
    return SimulationConfig(
        horizon_s=8.0, warmup_s=1.0, seed=7, windows=_WINDOWS, **kw
    )


class TestEmptyScheduleIdentity:
    def test_fault_free_equals_empty_schedule(
        self, small_tasks, small_plan, small_cluster
    ):
        # no schedule takes the sweep; the empty one, the event loop
        free = simulate_plan(small_tasks, small_plan, small_cluster, _cfg())
        empty = simulate_plan(
            small_tasks, small_plan, small_cluster, _cfg(faults=FaultSchedule())
        )
        assert free.total_requests > 0
        assert free.records == empty.records
        assert free.utilizations == empty.utilizations
        assert free.discarded_warmup == empty.discarded_warmup
        assert free.counters == empty.counters
        assert free.windowed.fingerprint() == empty.windowed.fingerprint()


class TestStandbySlices:
    def test_no_policy_reports_no_standby_slices(
        self, small_tasks, small_plan, small_cluster, offload_target
    ):
        _, server = offload_target
        rep = simulate_plan(
            small_tasks, small_plan, small_cluster,
            _cfg(faults=FaultSchedule.crash_recover(server, 3.0, 2.0)),
        )
        assert rep.counters.faults_injected == 1
        assert not [k for k in rep.utilizations if k.endswith(":fo")]

    @pytest.mark.parametrize("failover", [True, False])
    def test_standby_slices_follow_failover(
        self, small_tasks, small_plan, small_cluster, offload_target, failover
    ):
        _, server = offload_target
        rep = simulate_plan(
            small_tasks, small_plan, small_cluster,
            _cfg(
                faults=FaultSchedule.crash_recover(server, 3.0, 2.0),
                failure_policy=FailurePolicy(failover=failover),
            ),
        )
        standby = [k for k in rep.utilizations if k.endswith(":fo")]
        assert bool(standby) == failover
