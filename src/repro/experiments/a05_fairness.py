"""A5 (ablation): the fairness/efficiency knob of the share allocation.

The sqrt rule (share exponent 0.5) is *provably* the minimum of total
weighted latency, but a platform may prefer equal shares (exponent 0) or
latency-equalizing shares (exponent 1).  This ablation sweeps the exponent on
a fixed instance and reports both the efficiency axis (mean latency) and the
fairness axis (Jain's index over deadline-normalized latencies).

Expected shape: the rate-weighted per-request mean (no queueing) is
minimized *exactly* at 0.5 — that is the KKT statement, and the sweep shows
the symmetric bowl around it.  With queueing included the optimum drifts
slightly upward (waiting times are more convex in 1/x than service times),
while fairness peaks at exponent 0 (equal shares).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.stats import jain_index
from repro.core.allocation import allocate_shares, solution_latencies
from repro.core.candidates import build_candidates
from repro.core.joint import JointOptimizer
from repro.experiments.common import ExperimentResult
from repro.workloads.scenarios import build_scenario

DEFAULT_EXPONENTS = (0.0, 0.25, 0.5, 0.75, 1.0)


def run(
    scenario: str = "smart_city",
    num_tasks: int = 8,
    exponents: Sequence[float] = DEFAULT_EXPONENTS,
    seed: int = 0,
) -> ExperimentResult:
    """Re-allocate a fixed joint solution under different share exponents."""
    cluster, tasks = build_scenario(scenario, num_tasks=num_tasks, seed=seed)
    cands = [build_candidates(t) for t in tasks]
    # fix plans + assignment with the standard solver, vary only the shares:
    # this isolates the allocation rule from the surgery search
    base = JointOptimizer(cluster).solve(tasks, candidates=cands, seed=seed).plan
    plan_idx = [
        next(
            j
            for j, f in enumerate(cands[i].features)
            if f.plan == base.features[t.name].plan
        )
        for i, t in enumerate(tasks)
    ]
    assignment = [base.assignment[t.name] for t in tasks]

    rows = []
    extras = {"mean_request": {}, "mean_queued": {}, "jain": {}}
    deadlines = np.array([t.deadline_s for t in tasks])
    rates = np.array([t.arrival_rate for t in tasks])
    for beta in exponents:
        alloc = allocate_shares(
            tasks, cands, plan_idx, assignment, cluster, share_exponent=beta
        )
        lat_req = solution_latencies(
            tasks, cands, plan_idx, alloc, cluster,
            include_queueing=False, overload="penalty",
        )
        lat_q = solution_latencies(
            tasks, cands, plan_idx, alloc, cluster, overload="penalty"
        )
        # rate-weighted means: the quantity the allocation rule optimizes
        # (every *request* counts equally, so busier tasks weigh more)
        extras["mean_request"][beta] = float(rates @ lat_req / rates.sum())
        extras["mean_queued"][beta] = float(rates @ lat_q / rates.sum())
        extras["jain"][beta] = jain_index(lat_q / deadlines)
        rows.append(
            (
                beta,
                extras["mean_request"][beta] * 1e3,
                extras["mean_queued"][beta] * 1e3,
                float(np.max(lat_q)) * 1e3,
                extras["jain"][beta],
            )
        )
    best_req = min(extras["mean_request"], key=extras["mean_request"].get)
    return ExperimentResult(
        exp_id="A5",
        title="ablation: share-allocation fairness/efficiency exponent",
        headers=["exponent", "request_mean_ms", "queued_mean_ms", "queued_max_ms", "jain_fairness"],
        rows=rows,
        notes=[
            f"per-request mean is minimized at exponent {best_req} "
            "(KKT predicts 0.5); queueing shifts the queued-mean optimum "
            "slightly higher, while equal shares (0.0) maximize fairness"
        ],
        extras=extras,
    )
