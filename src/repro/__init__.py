"""repro — joint DNN model surgery + resource allocation in heterogeneous edge.

A from-scratch reproduction of *"Enabling Latency-Sensitive DNN Inference via
Joint Optimization of Model Surgery and Resource Allocation in Heterogeneous
Edge"* (Huang, Dong, Shen, Wang, Guo, Fu — ICPP 2022).  See ``DESIGN.md`` for
the provenance note (the paper body was unavailable; the system is
reconstructed from the title/venue/authors and the authors' closely related
LEIME work) and for the full system inventory.

Quickstart::

    from repro import build_scenario, JointOptimizer, simulate_plan

    cluster, tasks = build_scenario("smart_city", num_tasks=6, seed=0)
    result = JointOptimizer(cluster).solve(tasks)
    print(result.plan.summary())
    report = simulate_plan(tasks, result.plan, cluster)
    print(report.summary())

Package map:

- :mod:`repro.models` — layer DAGs, model zoo, multi-exit transform
- :mod:`repro.devices` / :mod:`repro.network` — heterogeneous edge substrate
- :mod:`repro.profiling` — per-layer latency profiles
- :mod:`repro.core` — the joint optimizer (the paper's contribution)
- :mod:`repro.baselines` — comparison strategies
- :mod:`repro.sim` — discrete-event simulator (testbed stand-in)
- :mod:`repro.workloads` — scenarios and generators
- :mod:`repro.experiments` — every table/figure's regeneration harness
"""

from repro.core import (
    AdmissionResult,
    JointOptimizer,
    JointPlan,
    JointResult,
    JointSolverConfig,
    Objective,
    SurgeryPlan,
    TaskSpec,
    OnlineController,
    admit_tasks,
    best_response_offloading,
    build_candidates,
    exhaustive_optimum,
)
from repro.devices import (
    DeviceSpec,
    EdgeCluster,
    EnergyModel,
    device_preset,
    heterogeneous_servers,
)
from repro.models import MultiExitModel, insert_exits
from repro.models import zoo
from repro.network import Link
from repro.sim import SimulationConfig, simulate_plan
from repro.workloads import build_scenario, random_scenario

__version__ = "1.0.0"

__all__ = [
    "AdmissionResult",
    "DeviceSpec",
    "EdgeCluster",
    "EnergyModel",
    "JointOptimizer",
    "JointPlan",
    "JointResult",
    "JointSolverConfig",
    "Link",
    "MultiExitModel",
    "Objective",
    "OnlineController",
    "SimulationConfig",
    "SurgeryPlan",
    "TaskSpec",
    "__version__",
    "admit_tasks",
    "best_response_offloading",
    "build_candidates",
    "build_scenario",
    "device_preset",
    "exhaustive_optimum",
    "heterogeneous_servers",
    "insert_exits",
    "random_scenario",
    "simulate_plan",
    "zoo",
]
