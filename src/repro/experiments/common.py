"""Shared experiment plumbing."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import (
    AllocationOnly,
    BranchyLocal,
    CloudOnly,
    DeviceOnly,
    EdgeOnly,
    Edgent,
    GreedyJoint,
    Neurosurgeon,
    RandomStrategy,
    RoundRobinStrategy,
    Strategy,
)
from repro.core.candidates import CandidateSet, build_candidates
from repro.core.joint import JointOptimizer, JointSolverConfig
from repro.core.objectives import Objective
from repro.core.plan import JointPlan, TaskSpec
from repro.devices.cluster import EdgeCluster
from repro.errors import ConfigError, InfeasibleError
from repro.analysis.tables import format_table
from repro.rng import SeedLike
from repro.sim.metrics import SimulationReport, merge_reports
from repro.sim.runner import (
    SimulationConfig,
    run_cells,
    run_replications,
    simulate_plan,
)


@dataclass
class ExperimentResult:
    """Output of one experiment run: a printable table plus raw extras."""

    exp_id: str
    title: str
    headers: List[str]
    rows: List[Tuple]
    notes: List[str] = field(default_factory=list)
    extras: Dict[str, Any] = field(default_factory=dict)

    def format(self) -> str:
        out = format_table(self.headers, self.rows, title=f"[{self.exp_id}] {self.title}")
        if self.notes:
            out += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return out


def default_strategies(
    objective: Objective = Objective.AVG_LATENCY,
) -> List[Strategy]:
    """The standard baseline lineup used across experiments."""
    kw = dict(objective=objective)
    return [
        DeviceOnly(**kw),
        BranchyLocal(**kw),
        EdgeOnly(**kw),
        CloudOnly(**kw),
        Neurosurgeon(**kw),
        Edgent(**kw),
        AllocationOnly(**kw),
        GreedyJoint(**kw),
        RoundRobinStrategy(**kw),
        RandomStrategy(**kw),
    ]


def run_strategies(
    tasks: Sequence[TaskSpec],
    cluster: EdgeCluster,
    strategies: Sequence[Strategy],
    candidates: Optional[Sequence[CandidateSet]] = None,
    joint_objective: Objective = Objective.AVG_LATENCY,
    joint_config: Optional[JointSolverConfig] = None,
    seed: SeedLike = 0,
) -> Dict[str, JointPlan]:
    """Solve one instance with the joint optimizer and every strategy.

    Candidate sets are built once and shared.  Strategies whose restrictions
    are infeasible on this instance (e.g. no local-only plan meets the
    accuracy floor on a weak device) are skipped rather than failing the
    whole sweep.
    """
    if candidates is None:
        candidates = [build_candidates(t) for t in tasks]
    out: Dict[str, JointPlan] = {}
    joint = JointOptimizer(
        cluster,
        objective=joint_objective,
        config=joint_config or JointSolverConfig(),
    )
    out["joint"] = joint.solve(tasks, candidates=candidates, seed=seed).plan
    for s in strategies:
        try:
            out[s.name] = s.solve(tasks, cluster, candidates=candidates, seed=seed)
        except InfeasibleError:
            continue
    return out


def simulate_measured(
    tasks: Sequence[TaskSpec],
    plan: JointPlan,
    cluster: EdgeCluster,
    config: SimulationConfig,
    plan_updates: Sequence = (),
    cells: int = 1,
) -> SimulationReport:
    """Simulate ``plan``, honouring ``config.replications``/``sim_workers``.

    With one replication (the default everywhere) this is exactly
    :func:`repro.sim.runner.simulate_plan`, so experiment outputs are
    unchanged; with more, replications fan out deterministically and the
    pooled report (records concatenated in replication order, utilizations
    averaged, counters merged) is returned.  ``plan_updates`` (fault runs
    only) forward controller-issued mid-run plan repairs.

    ``cells > 1`` instead shards the workload across independent traffic
    cells (:func:`repro.sim.runner.run_cells`) — the high-volume streaming
    fan-out, which forces ``streaming=True`` and merges cell accumulators
    exactly.  Cells and replications/fault runs are mutually exclusive.
    """
    if cells > 1:
        if plan_updates:
            raise ConfigError("cells cannot be combined with plan_updates")
        if config.replications != 1:
            raise ConfigError("cells cannot be combined with replications")
        return run_cells(tasks, plan, cluster, config, cells)
    if config.replications == 1:
        return simulate_plan(
            tasks, plan, cluster, config, plan_updates=plan_updates
        )
    return merge_reports(
        run_replications(
            tasks, plan, cluster, config, plan_updates=plan_updates
        )
    )


def finite(x: float, cap: float = float("inf")) -> float:
    """Clamp inf to ``cap`` for display-friendly aggregation."""
    return min(float(x), cap)
