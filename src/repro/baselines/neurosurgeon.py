"""Neurosurgeon-style partition-only baseline (Kang et al., ASPLOS'17).

Per task, independently, pick the latency-minimal partition point of the
*unmodified* model (no early exits), assuming the server assigned round-robin
and fair equal shares.  This is the canonical "DNN partitioning" baseline:
compute/communication-aware, but blind to both multi-exit surgery and
cross-task resource contention at decision time.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.baselines.base import Strategy, equal_share_allocation, no_exit, restrict
from repro.core.plan import JointPlan
from repro.rng import SeedLike


class Neurosurgeon(Strategy):
    """Partition-only, contention-oblivious baseline."""

    name = "neurosurgeon"

    def solve(self, tasks, cluster, candidates=None, seed=None) -> JointPlan:
        candsets = self._candidates(tasks, candidates)
        restricted = [restrict(cs, no_exit) for cs in candsets]
        m = cluster.num_servers
        assignment: List[Optional[int]] = [i % m for i in range(len(tasks))]
        # the original system decides as if it had the server to itself:
        # evaluate partitions at full share, then live with equal shares
        plan_idx = []
        for i, t in enumerate(tasks):
            device = cluster.by_name(t.device_name)
            server = cluster.servers[assignment[i]]
            link = cluster.link(t.device_name, server.name)
            lat = restricted[i].latencies(
                device, server=server, link=link
            )
            plan_idx.append(int(np.argmin(lat)))
        # a task whose chosen plan turned out fully local needs no server
        for i in range(len(tasks)):
            if restricted[i].features[plan_idx[i]].is_local_only:
                assignment[i] = None
        alloc = equal_share_allocation(assignment, tasks)
        return self._finish(tasks, restricted, plan_idx, alloc, cluster)
