"""Admission control: when the edge cannot serve everyone, serve the right
subset.

Overload is a first-class regime for latency-sensitive inference: past a
load threshold no joint plan meets every deadline, and the practical policy
question becomes *which tasks to reject* so the admitted ones keep their
guarantees.  :func:`admit_tasks` implements the standard greedy dual:

1. solve the joint problem for the current admitted set;
2. if every admitted task's predicted latency meets its deadline (with
   ``margin``), stop;
3. otherwise reject the *least valuable violating* task — the one with the
   smallest ``weight / violation-ratio``, so low-priority badly-failing tasks
   go first — and re-solve.

Candidate sets are reused across iterations, so each round costs one solve.
The procedure terminates after at most ``len(tasks)`` rounds and always
returns a feasible (possibly empty-admission) outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.candidates import CandidateSet, build_candidates
from repro.core.joint import JointOptimizer, JointSolverConfig
from repro.core.objectives import Objective
from repro.core.plan import JointPlan, TaskSpec
from repro.devices.cluster import EdgeCluster
from repro.errors import ConfigError
from repro.rng import SeedLike


@dataclass
class AdmissionResult:
    """Outcome of admission control."""

    admitted: List[TaskSpec]
    rejected: List[TaskSpec]
    plan: Optional[JointPlan]  # plan for the admitted set; None if none admitted
    rounds: int
    #: (task name, predicted latency / deadline) at the moment of rejection
    rejection_log: List[Tuple[str, float]] = field(default_factory=list)

    @property
    def admission_ratio(self) -> float:
        total = len(self.admitted) + len(self.rejected)
        return len(self.admitted) / total if total else 1.0


def admit_tasks(
    tasks: Sequence[TaskSpec],
    cluster: EdgeCluster,
    candidates: Optional[Sequence[CandidateSet]] = None,
    margin: float = 1.0,
    solver_config: Optional[JointSolverConfig] = None,
    seed: SeedLike = 0,
) -> AdmissionResult:
    """Greedy deadline-driven admission control.

    ``margin`` scales the deadline check: a task is violating when its
    predicted expected latency exceeds ``margin * deadline`` (use < 1 for
    headroom against prediction error).
    """
    if not tasks:
        raise ConfigError("no tasks to admit")
    if margin <= 0:
        raise ConfigError("margin must be positive")
    cfg = solver_config or JointSolverConfig()
    if candidates is None:
        candidates = [build_candidates(t) for t in tasks]
    elif len(candidates) != len(tasks):
        raise ConfigError("candidates/tasks length mismatch")

    admitted = list(range(len(tasks)))
    rejected: List[int] = []
    log: List[Tuple[str, float]] = []
    plan: Optional[JointPlan] = None
    rounds = 0
    while admitted:
        rounds += 1
        sub_tasks = [tasks[i] for i in admitted]
        sub_cands = [candidates[i] for i in admitted]
        plan = JointOptimizer(
            cluster,
            objective=Objective.DEADLINE_MISS,
            config=cfg,
        ).solve(sub_tasks, candidates=sub_cands, seed=seed).plan
        ratios = np.array(
            [plan.latencies[t.name] / (margin * t.deadline_s) for t in sub_tasks]
        )
        violating = [k for k, r in enumerate(ratios) if not (r <= 1.0)]
        if not violating:
            break
        # reject the least valuable violator: smallest weight, tie-broken by
        # worst violation ratio (inf-ratio tasks are maximally rejectable)
        def _key(k: int) -> Tuple[float, float]:
            r = ratios[k]
            return (sub_tasks[k].weight, -(r if np.isfinite(r) else np.inf))

        worst = min(violating, key=_key)
        victim = admitted[worst]
        log.append((tasks[victim].name, float(ratios[worst])))
        rejected.append(victim)
        admitted.pop(worst)
        plan = None
    return AdmissionResult(
        admitted=[tasks[i] for i in admitted],
        rejected=[tasks[i] for i in sorted(rejected)],
        plan=plan,
        rounds=rounds,
        rejection_log=log,
    )
