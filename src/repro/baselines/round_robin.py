"""Round-robin placement with per-task best plan under equal shares.

A reasonable "simple system" point: spreads load evenly, lets each task do
surgery for the share it will actually get, but never specializes shares or
placement to the task mix.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.baselines.base import Strategy, equal_share_allocation
from repro.core.plan import JointPlan
from repro.rng import SeedLike


class RoundRobinStrategy(Strategy):
    """Round-robin servers + surgery under the implied equal shares."""

    name = "round_robin"

    def solve(self, tasks, cluster, candidates=None, seed=None) -> JointPlan:
        candsets = self._candidates(tasks, candidates)
        n, m = len(tasks), cluster.num_servers
        assignment: List[Optional[int]] = [i % m for i in range(n)]
        alloc = equal_share_allocation(assignment, tasks)
        plan_idx = []
        for i, t in enumerate(tasks):
            device = cluster.by_name(t.device_name)
            server = cluster.servers[assignment[i]]
            link = cluster.link(t.device_name, server.name)
            lat = candsets[i].latencies(
                device,
                server=server,
                link=link,
                compute_share=float(alloc.compute_shares[i]),
                bandwidth_share=float(alloc.bandwidth_shares[i]),
            )
            plan_idx.append(int(np.argmin(lat)))
        for i in range(n):
            if candsets[i].features[plan_idx[i]].is_local_only:
                assignment[i] = None
        alloc = equal_share_allocation(assignment, tasks)
        return self._finish(tasks, candsets, plan_idx, alloc, cluster)
