"""E8 (table): optimality gap of BCD and best-response vs exhaustive search.

Small instances (few tasks, 2 servers, coarsened candidate sets) are solved
exactly by enumeration; both practical solvers are scored by their relative
objective gap.  Expected shape: gaps within a few percent; the centralized
solver at or near 0%.  An instance with no feasible joint plan gets a row
marked ``infeasible``, stays out of the gap means, and is counted in the
notes.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.candidates import build_candidates
from repro.core.distributed import best_response_offloading
from repro.core.exhaustive import exhaustive_optimum
from repro.core.joint import JointOptimizer, JointSolverConfig
from repro.errors import InfeasibleError
from repro.experiments.common import ExperimentResult
from repro.rng import derive
from repro.workloads.generator import RandomScenarioConfig, random_scenario

#: Coarse enumeration knobs that keep exhaustive search tractable.
SMALL = RandomScenarioConfig(
    num_tasks=(2, 3),
    num_servers=(2, 2),
    models=("alexnet", "resnet18", "mobilenet_v2"),
)


def run(num_instances: int = 6, seed: int = 11) -> ExperimentResult:
    """Measure gap-to-optimal over ``num_instances`` small random instances."""
    rows: List[tuple] = []
    gaps_bcd, gaps_br = [], []
    infeasible = 0
    for k in range(num_instances):
        cluster, tasks = random_scenario(derive(seed, "inst", k), SMALL)
        cands = [
            build_candidates(t, threshold_grid=(0.6, 0.9), max_cuts=5).subsample(10)
            for t in tasks
        ]
        try:
            opt = exhaustive_optimum(tasks, cluster, candidates=cands)
        except InfeasibleError:
            infeasible += 1
            rows.append((k, len(tasks), "infeasible", "-", "-", "-", "-"))
            continue
        # refinement is disabled so all three solvers search the identical
        # candidate space (it would otherwise beat the "optimum")
        bcd = JointOptimizer(
            cluster, config=JointSolverConfig(refine_thresholds=False)
        ).solve(tasks, candidates=cands, seed=k).plan
        br = best_response_offloading(tasks, cluster, candidates=cands, seed=k).plan
        g_bcd = bcd.objective_value / opt.objective_value - 1.0
        g_br = br.objective_value / opt.objective_value - 1.0
        gaps_bcd.append(g_bcd)
        gaps_br.append(g_br)
        rows.append(
            (
                k,
                len(tasks),
                opt.objective_value * 1e3,
                bcd.objective_value * 1e3,
                g_bcd * 100,
                br.objective_value * 1e3,
                g_br * 100,
            )
        )
    rows.append(
        (
            "mean",
            "-",
            float("nan"),
            float("nan"),
            float(np.mean(gaps_bcd)) * 100 if gaps_bcd else float("nan"),
            float("nan"),
            float(np.mean(gaps_br)) * 100 if gaps_br else float("nan"),
        )
    )
    notes = []
    if gaps_bcd:
        notes.append(
            f"max bcd gap {max(gaps_bcd) * 100:.2f}%, max br gap {max(gaps_br) * 100:.2f}%"
        )
    if infeasible:
        notes.append(
            f"{infeasible} of {num_instances} instances infeasible "
            "(no feasible joint plan; excluded from the gap means)"
        )
    return ExperimentResult(
        exp_id="E8",
        title="optimality gap vs exhaustive optimum (small instances)",
        headers=["inst", "tasks", "opt_ms", "bcd_ms", "bcd_gap_%", "br_ms", "br_gap_%"],
        rows=rows,
        notes=notes,
        extras={"gaps_bcd": gaps_bcd, "gaps_br": gaps_br, "infeasible": infeasible},
    )
