"""BranchyNet-style exit-only baseline (Teerapittayanon et al., ICPR'16).

Early exits with confidence thresholds, but everything executes on the end
device — no offloading, no allocation.  Picks the fastest local multi-exit
configuration meeting the accuracy floor.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Strategy, equal_share_allocation, restrict
from repro.core.plan import JointPlan
from repro.rng import SeedLike


class BranchyLocal(Strategy):
    """Early exits only; all computation stays on the device."""

    name = "branchy_local"

    def solve(self, tasks, cluster, candidates=None, seed=None) -> JointPlan:
        candsets = self._candidates(tasks, candidates)
        restricted = [restrict(cs, lambda f: f.is_local_only) for cs in candsets]
        plan_idx = []
        for i, t in enumerate(tasks):
            device = cluster.by_name(t.device_name)
            lat = restricted[i].latencies(device)
            plan_idx.append(int(np.argmin(lat)))
        alloc = equal_share_allocation([None] * len(tasks), tasks)
        return self._finish(tasks, restricted, plan_idx, alloc, cluster)
