"""FIFO resources and link serialization."""

import numpy as np
import pytest

from repro.core.joint import JointOptimizer
from repro.errors import SimulationError
from repro.faults import FaultSchedule
from repro.sim import SimulationConfig, simulate_plan
from repro.sim.queues import (
    FifoResource, LinkResource, device_resources, slice_resources,
)
from repro.telemetry.timeline import TimelineRecorder


class TestFifoResource:
    def test_idle_starts_immediately(self):
        r = FifoResource("r", rate=100.0)
        start, finish = r.submit(1.0, 50.0)
        assert start == 1.0
        assert finish == pytest.approx(1.5)

    def test_busy_queues(self):
        r = FifoResource("r", rate=100.0)
        r.submit(0.0, 100.0)  # busy until 1.0
        start, finish = r.submit(0.2, 100.0)
        assert start == pytest.approx(1.0)
        assert finish == pytest.approx(2.0)

    def test_overhead_added(self):
        r = FifoResource("r", rate=100.0, overhead_s=0.5)
        _, finish = r.submit(0.0, 100.0)
        assert finish == pytest.approx(1.5)

    def test_zero_work_instant(self):
        r = FifoResource("r", rate=100.0, overhead_s=0.5)
        start, finish = r.submit(3.0, 0.0)
        assert start == finish == 3.0

    def test_utilization(self):
        r = FifoResource("r", rate=100.0)
        r.submit(0.0, 500.0)
        assert r.utilization(10.0) == pytest.approx(0.5)

    def test_negative_work_raises(self):
        with pytest.raises(SimulationError):
            FifoResource("r", rate=100.0).submit(0.0, -1.0)

    def test_invalid_rate(self):
        with pytest.raises(SimulationError):
            FifoResource("r", rate=0.0)


class TestLinkResource:
    def test_fixed_bandwidth(self):
        l = LinkResource("l", bandwidth_bps=1000.0, rtt_s=0.01)
        start, done = l.submit(0.0, 500.0)
        assert done == pytest.approx(0.5 + 0.005)

    def test_propagation_does_not_block_channel(self):
        l = LinkResource("l", bandwidth_bps=1000.0, rtt_s=1.0)
        l.submit(0.0, 1000.0)  # serialized until 1.0, delivered at 1.5
        start2, _ = l.submit(0.0, 1000.0)
        assert start2 == pytest.approx(1.0)  # not 1.5

    def test_share_scales(self):
        l = LinkResource("l", bandwidth_bps=1000.0, share=0.5)
        _, done = l.submit(0.0, 500.0)
        assert done == pytest.approx(1.0)

    def test_zero_bytes_instant(self):
        l = LinkResource("l", bandwidth_bps=1000.0, rtt_s=1.0)
        assert l.submit(2.0, 0.0) == (2.0, 2.0)

    def test_fifo_ordering_preserved(self):
        l = LinkResource("l", bandwidth_bps=1000.0)
        _, d1 = l.submit(0.0, 1000.0)
        s2, d2 = l.submit(0.1, 100.0)
        assert s2 == pytest.approx(1.0)
        assert d2 > d1 - 1.0  # second transfer serialized after first

    def test_invalid_bandwidth(self):
        with pytest.raises(SimulationError):
            LinkResource("l", bandwidth_bps=0.0)

    def test_invalid_share(self):
        with pytest.raises(SimulationError):
            LinkResource("l", bandwidth_bps=1.0, share=0.0)


class TestBuilders:
    def test_server_spread_slices_hold_plain_floats(self, city_instance):
        # with server_spread the servers' blended rates are NumPy
        # scalars; the builder hands the resources plain, equal floats
        cluster, tasks, cands = city_instance(6, 3, 0)
        plan = JointOptimizer(cluster).solve(tasks, candidates=cands, seed=0).plan
        assert isinstance(cluster.servers[0].blended_flops, np.floating)
        for d in device_resources(cluster).values():
            assert type(d.rate) is float
        offloaded = [t for t in tasks if plan.assignment[t.name] is not None]
        assert offloaded
        for t in offloaded:
            s = plan.assignment[t.name]
            srv, up, down = slice_resources(t, plan, s, cluster)
            assert type(srv.rate) is float
            assert srv.rate == cluster.servers[s].blended_flops * plan.compute_shares[t.name]
            for link in (up, down):
                assert type(link.bandwidth_bps) is float and type(link.share) is float
                assert link.share == plan.bandwidth_shares[t.name]
        # so the event loop's times stay plain floats too
        rep = simulate_plan(
            tasks, plan, cluster,
            SimulationConfig(horizon_s=2.0, warmup_s=0.0, faults=FaultSchedule()),
            recorder=TimelineRecorder(),
        )
        assert rep.timeline.events
        assert all(type(e.t_s) is float for e in rep.timeline.events)


class TestSlots:
    """A fleet run builds several resources per task: no instance ``__dict__``."""

    def test_resources_have_no_instance_dict(self):
        for res in (FifoResource("r", rate=1.0), LinkResource("l", bandwidth_bps=1.0)):
            assert not hasattr(res, "__dict__")
            with pytest.raises(AttributeError):
                res.extra = 1.0

    def test_inflight_list_only_with_a_recorder(self):
        assert FifoResource("r", rate=1.0)._inflight is None
        r = FifoResource("r", rate=1.0, recorder=TimelineRecorder())
        r.submit(0.0, 2.0)
        r.submit(0.5, 1.0)
        assert r._inflight == [2.0, 3.0]
        r.submit(2.5, 1.0)  # the first job finished at 2.0
        assert r._inflight == [3.0, 4.0]
