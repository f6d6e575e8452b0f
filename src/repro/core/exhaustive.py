"""Brute-force optimum for small instances (optimality-gap measurement, E8).

Enumerates every task->server assignment (including local execution) crossed
with every combination of candidate plans, solving shares in closed form for
each combination.  The search space is ``(m+1)^n * prod_i |C_i|`` — viable
only for a handful of tasks with pruned candidate sets, which is exactly the
regime experiment E8 uses.  A hard budget guards against accidental blow-ups.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence

import numpy as np

from repro.core.allocation import allocate_shares, solution_latencies
from repro.core.candidates import CandidateSet, build_candidates
from repro.core.objectives import Objective
from repro.core.plan import JointPlan, TaskSpec
from repro.devices.cluster import EdgeCluster
from repro.errors import ConfigError, InfeasibleError


def exhaustive_optimum(
    tasks: Sequence[TaskSpec],
    cluster: EdgeCluster,
    objective: Objective = Objective.AVG_LATENCY,
    candidates: Optional[Sequence[CandidateSet]] = None,
    include_queueing: bool = True,
    budget: int = 2_000_000,
) -> JointPlan:
    """Globally optimal joint plan by exhaustive enumeration.

    Raises :class:`ConfigError` if the instance exceeds ``budget`` evaluated
    combinations, and :class:`InfeasibleError` if nothing feasible exists.
    """
    if not tasks:
        raise ConfigError("no tasks")
    n, m = len(tasks), cluster.num_servers
    if candidates is None:
        candsets = [build_candidates(t) for t in tasks]
    else:
        candsets = list(candidates)

    sizes = [len(c) for c in candsets]
    total = (m + 1) ** n
    for s in sizes:
        total *= s
        if total > budget:
            raise ConfigError(
                f"exhaustive search space too large (> {budget}); "
                f"n={n}, m={m}, candidate sizes={sizes}"
            )

    best_obj = np.inf
    best: Optional[JointPlan] = None
    options: List[Optional[int]] = [None] + list(range(m))
    for assign_combo in itertools.product(options, repeat=n):
        assignment = list(assign_combo)
        for plan_combo in itertools.product(*[range(s) for s in sizes]):
            plan_idx = list(plan_combo)
            alloc = allocate_shares(
                tasks, candsets, plan_idx, assignment, cluster, objective
            )
            lat = solution_latencies(
                tasks, candsets, plan_idx, alloc, cluster, include_queueing
            )
            obj = objective.evaluate(lat, tasks)
            if obj < best_obj:
                best_obj = obj
                best = JointPlan(
                    assignment={t.name: assignment[i] for i, t in enumerate(tasks)},
                    features={
                        t.name: candsets[i].features[plan_idx[i]]
                        for i, t in enumerate(tasks)
                    },
                    compute_shares={
                        t.name: float(alloc.compute_shares[i]) for i, t in enumerate(tasks)
                    },
                    bandwidth_shares={
                        t.name: float(alloc.bandwidth_shares[i])
                        for i, t in enumerate(tasks)
                    },
                    latencies={t.name: float(lat[i]) for i, t in enumerate(tasks)},
                    objective_value=float(obj),
                )
    if best is None or not np.isfinite(best_obj):
        raise InfeasibleError("no feasible joint plan exists for this instance")
    return best
