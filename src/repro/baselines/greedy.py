"""Greedy sequential joint heuristic.

Tasks are processed once in deadline order (most urgent first); each picks
the (server-or-local, plan) pair minimizing its own predicted latency given
the shares that would result from joining the already-placed tasks.  This is
effectively a single round of best response with a fixed visiting order —
cheap, contention-aware, but with no back-tracking, so early placements can
strand later tasks.
"""

from __future__ import annotations

import numpy as np

from repro.core.allocation import GroupState
from repro.baselines.base import Strategy
from repro.core.plan import JointPlan
from repro.rng import SeedLike


class GreedyJoint(Strategy):
    """One-pass greedy joint placement + surgery."""

    name = "greedy"

    def solve(self, tasks, cluster, candidates=None, seed=None) -> JointPlan:
        candsets = self._candidates(tasks, candidates)
        n, m = len(tasks), cluster.num_servers
        order = sorted(range(n), key=lambda i: tasks[i].deadline_s)
        # start everyone on their best local plan so partially-built states
        # are always evaluable
        plan_idx = [
            int(np.argmin(candsets[i].latencies(cluster.by_name(t.device_name))))
            for i, t in enumerate(tasks)
        ]
        state = GroupState(
            tasks, candsets, cluster, [None] * n, plan_idx,
            objective=self.objective, include_queueing=self.include_queueing,
        )
        for i in order:
            device = state.devices[i]
            best_lat = np.inf
            best_choice: tuple = (None, state.plan_idx[i])
            for option in [None, *range(m)]:
                if option is None:
                    j = int(np.argmin(candsets[i].latencies(device)))
                    x = y = 1.0
                else:
                    # the plan is picked under the shares the current plan
                    # would get there, then priced under its own
                    x, y = state.shares_if_placed(i, option, state.plan_idx[i])
                    lat_vec = candsets[i].latencies(
                        device,
                        server=cluster.servers[option],
                        link=state.link(i, option),
                        compute_share=x,
                        bandwidth_share=y,
                    )
                    j = int(np.argmin(lat_vec))
                    x, y = state.shares_if_placed(i, option, j)
                my_lat = state.price(i, option, j, x, y)
                if my_lat < best_lat:
                    best_lat = my_lat
                    best_choice = (option, j)
            state.move(i, *best_choice)
        return self._finish(tasks, candsets, state.plan_idx, state.allocation(), cluster)
