"""Strategy interface and shared helpers for baselines."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.allocation import Allocation, solution_latencies
from repro.core.candidates import CandidateSet, build_candidates
from repro.core.objectives import Objective
from repro.core.plan import JointPlan, PlanFeatures, SurgeryPlan, TaskSpec
from repro.devices.cluster import EdgeCluster
from repro.errors import InfeasibleError
from repro.rng import SeedLike


class Strategy(ABC):
    """A decision procedure mapping an instance to a :class:`JointPlan`."""

    #: Human-readable name used in experiment tables.
    name: str = "strategy"

    def __init__(
        self,
        objective: Objective = Objective.AVG_LATENCY,
        include_queueing: bool = True,
    ) -> None:
        self.objective = objective
        self.include_queueing = include_queueing

    @abstractmethod
    def solve(
        self,
        tasks: Sequence[TaskSpec],
        cluster: EdgeCluster,
        candidates: Optional[Sequence[CandidateSet]] = None,
        seed: SeedLike = None,
    ) -> JointPlan:
        """Produce a complete joint plan for the instance."""

    # -- shared plumbing -------------------------------------------------------

    def _candidates(
        self,
        tasks: Sequence[TaskSpec],
        candidates: Optional[Sequence[CandidateSet]],
    ) -> List[CandidateSet]:
        if candidates is not None:
            return list(candidates)
        return [build_candidates(t) for t in tasks]

    def _finish(
        self,
        tasks: Sequence[TaskSpec],
        candsets: Sequence[CandidateSet],
        plan_idx: Sequence[int],
        allocation: Allocation,
        cluster: EdgeCluster,
    ) -> JointPlan:
        return package_solution(
            tasks,
            candsets,
            plan_idx,
            allocation,
            cluster,
            self.objective,
            self.include_queueing,
        )


def restrict(cs: CandidateSet, pred: Callable[[PlanFeatures], bool]) -> CandidateSet:
    """Subset of a candidate set matching a plan predicate."""
    kept = [f for f in cs.features if pred(f)]
    if not kept:
        raise InfeasibleError(
            f"{cs.task.name}: no candidate satisfies the strategy's restriction"
        )
    return CandidateSet(cs.task, kept)


def no_exit(f: PlanFeatures) -> bool:
    """Plans that keep only the final exit (no early-exit surgery)."""
    return len(f.plan.kept_exits) == 1


def full_offload(f: PlanFeatures) -> bool:
    """Plans that ship the raw input (partition at the input node)."""
    return f.plan.partition_cut == 0


def equal_share_allocation(
    assignment: Sequence[Optional[int]],
    tasks: Sequence[TaskSpec],
) -> Allocation:
    """Fair 1/k compute and bandwidth shares per server / link group.

    What an allocation-unaware system gets from a fair OS scheduler.
    """
    n = len(assignment)
    compute = np.ones(n)
    bandwidth = np.ones(n)
    counts: Dict[int, int] = {}
    for s in assignment:
        if s is not None:
            counts[s] = counts.get(s, 0) + 1
    link_counts: Dict[tuple, int] = {}
    for i, s in enumerate(assignment):
        if s is not None:
            key = (tasks[i].device_name, s)
            link_counts[key] = link_counts.get(key, 0) + 1
    for i, s in enumerate(assignment):
        if s is not None:
            compute[i] = 1.0 / counts[s]
            bandwidth[i] = 1.0 / link_counts[(tasks[i].device_name, s)]
    return Allocation(list(assignment), compute, bandwidth)


def package_solution(
    tasks: Sequence[TaskSpec],
    candsets: Sequence[CandidateSet],
    plan_idx: Sequence[int],
    allocation: Allocation,
    cluster: EdgeCluster,
    objective: Objective,
    include_queueing: bool = True,
) -> JointPlan:
    """Evaluate a complete solution and wrap it as a :class:`JointPlan`."""
    lat = solution_latencies(
        tasks, candsets, plan_idx, allocation, cluster, include_queueing
    )
    obj = objective.evaluate(lat, tasks)
    return JointPlan(
        assignment={t.name: allocation.assignment[i] for i, t in enumerate(tasks)},
        features={t.name: candsets[i].features[plan_idx[i]] for i, t in enumerate(tasks)},
        compute_shares={
            t.name: float(allocation.compute_shares[i]) for i, t in enumerate(tasks)
        },
        bandwidth_shares={
            t.name: float(allocation.bandwidth_shares[i]) for i, t in enumerate(tasks)
        },
        latencies={t.name: float(lat[i]) for i, t in enumerate(tasks)},
        objective_value=float(obj),
    )
