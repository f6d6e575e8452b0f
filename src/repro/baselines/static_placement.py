"""Static placement baselines: device-only, edge-only, cloud-only, and the
allocation-only ablation."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.baselines.base import (
    Strategy,
    equal_share_allocation,
    full_offload,
    no_exit,
    restrict,
)
from repro.core.allocation import allocate_shares, assign_servers
from repro.core.candidates import CandidateSet
from repro.core.plan import JointPlan, TaskSpec
from repro.devices.cluster import EdgeCluster
from repro.rng import SeedLike


class DeviceOnly(Strategy):
    """Run the unmodified full-depth model on the end device.

    What a deployment without any edge infrastructure does; the weakest
    baseline on constrained hardware and the strongest at zero bandwidth.
    """

    name = "device_only"

    def solve(self, tasks, cluster, candidates=None, seed=None) -> JointPlan:
        candsets = self._candidates(tasks, candidates)
        restricted = [
            restrict(cs, lambda f: no_exit(f) and f.is_local_only) for cs in candsets
        ]
        plan_idx = [0] * len(tasks)  # exactly one plan survives the restriction
        for i, cs in enumerate(restricted):
            device = cluster.by_name(tasks[i].device_name)
            lat = cs.latencies(device)
            plan_idx[i] = int(np.argmin(lat))
        alloc = equal_share_allocation([None] * len(tasks), tasks)
        return self._finish(tasks, restricted, plan_idx, alloc, cluster)


class EdgeOnly(Strategy):
    """Ship the raw input to an edge server chosen round-robin; no surgery."""

    name = "edge_only"

    def solve(self, tasks, cluster, candidates=None, seed=None) -> JointPlan:
        candsets = self._candidates(tasks, candidates)
        restricted = [
            restrict(cs, lambda f: no_exit(f) and full_offload(f)) for cs in candsets
        ]
        m = cluster.num_servers
        assignment: List[Optional[int]] = [i % m for i in range(len(tasks))]
        plan_idx = [0] * len(tasks)
        alloc = equal_share_allocation(assignment, tasks)
        return self._finish(tasks, restricted, plan_idx, alloc, cluster)


class CloudOnly(Strategy):
    """Ship the raw input to the single most powerful server (the "cloud").

    Models the pre-edge-computing status quo: all load converges on one
    remote site, contending for its compute and for the access links.
    """

    name = "cloud_only"

    def solve(self, tasks, cluster, candidates=None, seed=None) -> JointPlan:
        candsets = self._candidates(tasks, candidates)
        restricted = [
            restrict(cs, lambda f: no_exit(f) and full_offload(f)) for cs in candsets
        ]
        best_server = int(
            np.argmax([s.peak_flops for s in cluster.servers])
        )
        assignment: List[Optional[int]] = [best_server] * len(tasks)
        plan_idx = [0] * len(tasks)
        alloc = equal_share_allocation(assignment, tasks)
        return self._finish(tasks, restricted, plan_idx, alloc, cluster)


class AllocationOnly(Strategy):
    """Smart allocation without model surgery (the allocation-only ablation).

    Keeps the full-depth model (no exits) but can choose local vs. any
    partition-free placement; assignment via Hungarian matching and shares
    via the KKT sqrt rule — i.e. everything the joint optimizer does except
    touching the model.
    """

    name = "allocation_only"

    def solve(self, tasks, cluster, candidates=None, seed=None) -> JointPlan:
        candsets = self._candidates(tasks, candidates)
        # no surgery: final-exit-only plans; both extremes of partitioning
        # (fully local / full offload) are placement, not surgery
        restricted = [
            restrict(
                cs,
                lambda f: no_exit(f) and (f.is_local_only or full_offload(f)),
            )
            for cs in candsets
        ]
        assignment = assign_servers(tasks, restricted, cluster)
        # pick best restricted plan per task under sqrt shares, iterated once
        plan_idx = [0] * len(tasks)
        alloc = allocate_shares(
            tasks, restricted, plan_idx, assignment, cluster, self.objective
        )
        for i, t in enumerate(tasks):
            device = cluster.by_name(t.device_name)
            s = alloc.assignment[i]
            if s is None:
                lat = restricted[i].latencies(device)
            else:
                server = cluster.servers[s]
                link = cluster.link(t.device_name, server.name)
                lat = restricted[i].latencies(
                    device,
                    server=server,
                    link=link,
                    compute_share=float(alloc.compute_shares[i]),
                    bandwidth_share=float(alloc.bandwidth_shares[i]),
                )
            plan_idx[i] = int(np.argmin(lat))
        alloc = allocate_shares(
            tasks, restricted, plan_idx, assignment, cluster, self.objective
        )
        return self._finish(tasks, restricted, plan_idx, alloc, cluster)
