"""Edgent-style surgery-only baseline (Li et al., SEC'18 / TWC'19).

Joint early-exit + partition-point selection *per task in isolation*: each
task optimizes its own surgery as if it had the round-robin-assigned server
and the access link entirely to itself.  The surgery machinery is identical
to the joint optimizer's; what is missing is any awareness that servers and
links are shared — the resulting plans over-offload under load, which is the
gap experiments E4/E12 quantify.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.baselines.base import Strategy, equal_share_allocation
from repro.core.plan import JointPlan
from repro.rng import SeedLike


class Edgent(Strategy):
    """Per-task surgery (exits + partition), allocation-oblivious."""

    name = "edgent"

    def solve(self, tasks, cluster, candidates=None, seed=None) -> JointPlan:
        candsets = self._candidates(tasks, candidates)
        m = cluster.num_servers
        assignment: List[Optional[int]] = [i % m for i in range(len(tasks))]
        plan_idx = []
        for i, t in enumerate(tasks):
            device = cluster.by_name(t.device_name)
            server = cluster.servers[assignment[i]]
            link = cluster.link(t.device_name, server.name)
            lat = candsets[i].latencies(
                device, server=server, link=link
            )
            plan_idx.append(int(np.argmin(lat)))
        for i in range(len(tasks)):
            if candsets[i].features[plan_idx[i]].is_local_only:
                assignment[i] = None
        alloc = equal_share_allocation(assignment, tasks)
        return self._finish(tasks, candsets, plan_idx, alloc, cluster)
