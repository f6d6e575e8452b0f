"""Resource fault windows, applied lazily."""

import math

import numpy as np
import pytest

from repro.errors import FaultError, ResourceUnavailableError, SimulationError
from repro.sim.queues import FifoResource, LinkResource


class TestFifoFailureState:
    def test_submit_while_down_raises(self):
        res = FifoResource("srv", rate=1e9, down=((1.0, math.inf),))
        with pytest.raises(ResourceUnavailableError, match="while down"):
            res.submit(2.0, 100.0)

    def test_double_fail_raises(self):
        with pytest.raises(FaultError, match="already down"):
            FifoResource("srv", rate=1e9, down=((1.0, 3.0), (2.0, 4.0)))

    def test_recover_while_up_raises(self):
        # a window that closes the instant it opens never takes the resource down
        with pytest.raises(FaultError, match="empty or inverted"):
            FifoResource("srv", rate=1e9, down=((1.0, 1.0),))

    def test_recover_before_failure_raises(self):
        with pytest.raises(FaultError, match="empty or inverted"):
            FifoResource("srv", rate=1e9, down=((2.0, 1.0),))

    def test_fail_clamps_busy_horizon_and_busy_time(self):
        res = FifoResource("srv", rate=100.0, down=((1.0, 5.0),))
        res.submit(0.0, 400.0)  # busy until t=4
        assert res.is_down(1.0)
        # 3 s of un-served residual is subtracted from utilization accounting
        assert res.busy_time == pytest.approx(1.0)
        # post-recovery work starts at recovery, not the stale busy horizon
        start, finish = res.submit(5.0, 100.0)
        assert start == pytest.approx(5.0)
        assert finish == pytest.approx(6.0)

    def test_recover_records_outage_window(self):
        res = FifoResource("srv", rate=1e9, down=((1.0, 3.5),))
        assert res.down == ((1.0, 3.5),)
        assert [res.is_down(t) for t in (0.0, 1.0, 3.0, 3.5)] == [
            False, True, True, False,
        ]
        # the next-crash query sees an outage only strictly inside the span
        res = FifoResource("srv", rate=1e9, down=((1.0, 3.5),))
        assert res.next_crash(0.0, 1.0) is None
        assert res.next_crash(0.5, 2.0) == 1.0

    def test_speed_factor_validation(self):
        with pytest.raises(FaultError, match="positive"):
            FifoResource("srv", rate=1e9, speed=((0.0, 1.0, 0.0),))
        with pytest.raises(FaultError, match="positive"):
            FifoResource("srv", rate=1e9, speed=((0.0, 1.0, -1.0),))

    def test_speed_factor_scales_service(self):
        res = FifoResource("srv", rate=100.0, speed=((0.0, math.inf, 0.5),))
        _, finish = res.submit(0.0, 100.0)
        assert finish == pytest.approx(2.0)

    def test_sweep_refuses_fault_state(self):
        res = FifoResource("srv", rate=100.0, down=((0.5, 1.0),))
        with pytest.raises(SimulationError, match="incompatible with faults"):
            res.sweep(np.array([2.0]), np.array([10.0]))


class TestLinkFailureState:
    def test_submit_while_down_raises(self):
        link = LinkResource("up", bandwidth_bps=1e6, down=((0.0, math.inf),))
        with pytest.raises(ResourceUnavailableError):
            link.submit(1.0, 1000.0)

    def test_recover_then_transfer(self):
        link = LinkResource("up", bandwidth_bps=1e6, down=((0.0, 2.0),))
        assert link.is_down(0.0)
        start, delivery = link.submit(2.0, 1e6)
        assert start == pytest.approx(2.0)
        assert delivery == pytest.approx(3.0)
        assert link.down == ((0.0, 2.0),)

    def test_speed_factor_scales_serialization(self):
        link = LinkResource("up", bandwidth_bps=1e6, speed=((0.0, 10.0, 0.25),))
        _, delivery = link.submit(0.0, 1e6)
        assert delivery == pytest.approx(4.0)

    def test_sweep_refuses_fault_state(self):
        link = LinkResource("up", bandwidth_bps=1e6, speed=((0.0, 1.0, 0.5),))
        with pytest.raises(SimulationError, match="incompatible with faults"):
            link.sweep(np.array([0.0]), np.array([100.0]))
