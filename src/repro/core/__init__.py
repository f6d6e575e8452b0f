"""The paper's contribution: joint model surgery + resource allocation.

Layered as:

- :mod:`repro.core.plan` — plan/feature data model.  The central trick: for a
  fixed surgery plan, expected end-to-end latency is **linear** in the
  reciprocal compute and bandwidth shares, with coefficients (expected device
  FLOPs, expected server FLOPs, expected bytes on the wire, offload
  probability) that do not depend on the allocation.  Candidate plans are
  therefore compiled once per task into small feature arrays.
- :mod:`repro.core.surgery` — evaluates and enumerates surgery plans
  (exit subsets × thresholds × partition points) into those features.
- :mod:`repro.core.candidates` — dominance pruning of the candidate set.
- :mod:`repro.core.allocation` — closed-form KKT share allocation +
  Hungarian-style server assignment.
- :mod:`repro.core.queueing` — M/M/1 & M/G/1 delay terms for congestion.
- :mod:`repro.core.joint` — block-coordinate descent joint optimizer.
- :mod:`repro.core.sharding` — server partitions, shard-local cluster views,
  deterministic task→shard homing.
- :mod:`repro.core.coordinator` — hierarchical control plane: parallel shard
  solves + cross-shard migration rounds.
- :mod:`repro.core.distributed` — best-response (potential-game) variant.
- :mod:`repro.core.exhaustive` — brute-force optimum for small instances.
"""

from repro.core.admission import AdmissionResult, admit_tasks
from repro.core.allocation import (
    Allocation,
    allocate_shares,
    assign_servers,
    power_shares,
    sqrt_shares,
)
from repro.core.candidates import CandidateSet, build_candidates
from repro.core.coordinator import ShardedResult, ShardStats, solve_sharded
from repro.core.distributed import BestResponseResult, best_response_offloading
from repro.core.exhaustive import exhaustive_optimum
from repro.core.joint import JointOptimizer, JointResult, JointSolverConfig
from repro.core.objectives import Objective
from repro.core.sharding import ShardPlan, ShardView, make_shard_plan
from repro.core.online import ControllerConfig, EnvironmentSample, OnlineController
from repro.core.plan import JointPlan, PlanFeatures, SurgeryPlan, TaskSpec
from repro.core.queueing import mg1_wait, mm1_response, mm1_wait
from repro.core.latency import plan_latency
from repro.core.surgery import evaluate_plan

__all__ = [
    "AdmissionResult",
    "Allocation",
    "ControllerConfig",
    "EnvironmentSample",
    "OnlineController",
    "BestResponseResult",
    "CandidateSet",
    "JointOptimizer",
    "JointPlan",
    "JointResult",
    "JointSolverConfig",
    "Objective",
    "PlanFeatures",
    "ShardPlan",
    "ShardStats",
    "ShardView",
    "ShardedResult",
    "SurgeryPlan",
    "TaskSpec",
    "admit_tasks",
    "allocate_shares",
    "assign_servers",
    "best_response_offloading",
    "build_candidates",
    "evaluate_plan",
    "exhaustive_optimum",
    "make_shard_plan",
    "mg1_wait",
    "mm1_response",
    "mm1_wait",
    "plan_latency",
    "power_shares",
    "solve_sharded",
    "sqrt_shares",
]
