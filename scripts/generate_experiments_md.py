#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md from live experiment runs.

    python scripts/generate_experiments_md.py [output-path]

Runs every registered experiment (E1-E18 + ablations A1-A6) at
benchmark-sized knobs, renders the measured tables with the reconstructed
paper-expectation commentary, and writes the record.  Seeds are fixed, so
the output is bit-reproducible on a given build.
"""

import sys

from repro.analysis.report import render_markdown_report, render_scorecard
from repro.experiments import EXPERIMENTS, run_experiment

#: Benchmark-sized knobs (defaults elsewhere are the same or larger).
KNOBS = {
    "E4": dict(loads=(2, 4, 8), horizon_s=15.0),
    "E5": dict(horizon_s=15.0),
    "E6": dict(num_scenarios=25),
    "E8": dict(num_instances=4),
    "E11": dict(window_s=8.0),
    "E12": dict(horizon_s=15.0),
    "E14": dict(horizon_s=40.0),
    "E15": dict(horizon_s=15.0),
    "E16": dict(horizon_s=15.0),
    "E17": dict(sizes=((64, 8, 4), (192, 16, 8))),
    "E18": dict(horizon_s=15.0, warmup_s=2.0),
    "A4": dict(loads=(8, 24), horizon_s=15.0),
}

PREAMBLE = """\
⚠ **Read the provenance note in [`DESIGN.md`](DESIGN.md) first.**  The
paper's own tables/figures were not available; each experiment below states
the *reconstructed* expectation (the qualitative shape any faithful
implementation of the title's system must produce, anchored on the sibling
LEIME paper's published 1.1–18.7× speedup band) and the numbers this
repository measures.  Absolute milliseconds are properties of the simulated
substrate, not of the authors' testbed; the claims being reproduced are the
*shapes*: who wins, by roughly what factor, and where crossovers fall.

Sections E1–E18 are the reconstructed evaluation; sections A1–A6 ablate this
repository's own design choices (DESIGN.md §4).  Regenerate everything with

```bash
pytest benchmarks/ --benchmark-only           # one bench target per experiment
python scripts/generate_experiments_md.py     # this file
```
"""

COMMENTARY = {
    "A1": """**Design claim:** the default enumeration budget sits on the flat part of
the quality curve.
**Measured:** minimal budget costs +2.3% objective; fine (2.2× candidates)
improves the default by <0.1%.""",
    "A2": """**Design claim (extension S17):** the precision knob pays on thin links
and never hurts.
**Measured:** int8 turns an infeasible 10 Mbps instance feasible and wins
4.3× at 40 Mbps, 2.5× at 150 Mbps, always meeting the accuracy floors.""",
    "A3": """**Design claim:** dominance pruning is allocation-safe — identical
objectives at a large candidate reduction.
**Measured:** objectives match exactly at ~3.8–3.9× candidate reduction.""",
    "A4": """**Design claim:** the M/G/1 terms inside the solver prevent
queue-unstable plan choices.
**Measured:** with smart allocation still in place the blind variant stays
near par at light load; toward saturation the aware solver is (weakly)
ahead — removing allocation too yields the Edgent collapse of E4/E12.""",
    "A6": """**Design claim (see DESIGN.md §6):** per-exit coordinate-descent
refinement recovers what coarse shared-threshold enumeration loses.
**Measured:** +2.2% objective recovered on a single-threshold grid (landing
within 0.02% of the fine grid), monotone never-worse, at ~0.1 s cost.""",
    "A5": """**Design claim:** the sqrt share rule is the KKT optimum of rate-weighted
per-request latency.
**Measured:** the sweep shows a symmetric bowl minimized exactly at exponent
0.5; fairness (Jain) is monotone decreasing in the exponent, exposing the
fairness/efficiency dial.""",
    "E1": """**Paper expectation (reconstructed):** per-layer latency spans orders of
magnitude across devices; boundary activation sizes are non-monotone in
depth, so a mid-network cut can ship far less than the raw input.
**Measured — shape holds:** the Pi-4 runs VGG-16 in ~4.4 s where the GPU
server takes ~8.7 ms (500×); every model's smallest interior boundary
(2–4 KiB) is ~150× below the 0.57 MiB input.""",
    "E2": """**Paper expectation:** device-only flat; edge-only decays as 1/bandwidth
and overtakes device-only past a crossover; partition tracks the better of
the two; the joint plan (partition + exits) lower-bounds everything.
**Measured — shape holds:** crossover at ~0.9 Mbps for VGG-16 on a Pi-4 vs a
GPU server; the joint plan is at or below every baseline at every bandwidth;
below the crossover it beats device-only by 1.4× via local early exits.""",
    "E3": """**Paper expectation:** latency non-decreasing in the accuracy floor; loose
floors admit aggressive exits, tight floors force deep execution; floors
above a model's attainable accuracy are infeasible.
**Measured — shape holds:** monotone for every model; AlexNet (56.5% top-1)
correctly reports floors ≥ 0.60 infeasible.""",
    "E4": """**Paper expectation:** all curves rise with load; contention-oblivious
surgery (Neurosurgeon/Edgent) collapses first; joint degrades slowest.
**Measured — shape holds:** at 8 tasks joint holds 206 ms mean / 543 ms p99
while edge-only and Neurosurgeon blow up to 910 ms mean with 10.3 s p99
(4.4× mean, 19× p99) and Edgent sits at 2.2× joint.""",
    "E5": """**Paper expectation:** satisfaction monotone in the deadline scale; joint
reaches high satisfaction at tighter deadlines than any baseline.
**Measured — shape holds:** at 2× deadlines joint satisfies 94.4% vs
71.7–85.0% for the baselines; at 4× joint reaches 100% while full-offload
strategies are still at ~87%.""",
    "E6": """**Paper expectation (anchored on the sibling LEIME paper's 1.1–18.7×):**
speedups near 1× where a baseline happens to be right, order-10× where it is
badly wrong, pooled range spanning roughly that band.
**Measured — shape holds:** competent baselines have medians 1.2–1.4× with
p95 up to 40×; placement baselines median 2–3× with maxima 29–57×; no-offload
baselines exceed 100× where devices can't sustain load (capped at 100× in
the table).  Pooled range ~1.0×–100×, fully covering the 1.1–18.7× band.""",
    "E7": """**Paper expectation:** both solvers monotone non-increasing; BCD converges
within a handful of iterations; the distributed variant lands close.
**Measured — shape holds:** BCD converges in ≤4 iterations; best response
reaches a pure equilibrium in 2 rounds with <1% gap to centralized.""",
    "E8": """**Paper expectation:** practical solvers within a few percent of the
enumerated optimum on instances small enough to brute-force.
**Measured — stronger than required:** both BCD and best response hit the
exhaustive optimum exactly (0.00% gap) on all sampled instances.""",
    "E9": """**Paper expectation:** fast enough to re-run online on every environment
change; near-linear growth in tasks.
**Measured — shape holds:** the solve stays ≤~1 s up to 64 tasks × 8
servers; one-time candidate generation (cacheable across re-solves)
dominates at ~0.14 s/task.""",
    "E10": """**Paper expectation:** heterogeneity-oblivious placement degrades as the
fastest-to-slowest spread grows; joint exploits the fast servers.
**Measured — shape holds:** joint is flat (~239 ms) across spreads 1–16×
while round-robin degrades from 249 ms to unstable (∞) at spread 16; the
joint-vs-round-robin gain grows 1.04× → 1.66× → unbounded.""",
    "E11": """**Paper expectation:** indistinguishable in good windows; in deep fades the
static plan's offloading stalls while re-optimization retreats to earlier
exits/local execution.
**Measured — shape holds:** identical at nominal bandwidth; in the 1.6 Mbps
deep-fade window re-optimization cuts mean latency 2.5× (both regimes remain
overloaded, but the adaptive plan sheds most of the wire traffic).""",
    "E12": """**Paper expectation:** each single knob (surgery-only; allocation-only)
beats no-knob placement; the joint combination beats both; the distributed
variant lands near the centralized one.
**Measured — shape holds:** joint ≈ distributed < cloud-only <
allocation-only < Edgent < edge-only ≪ device-only (simulated means).""",
    "E13": """**Paper expectation:** device-only burns the most compute energy; full
offload trades compute joules for radio + idle-wait joules; joint sits on
the knee of the tradeoff.
**Measured — shape holds:** joint is the energy minimum (~285 mJ) — 35%
below device-only (all compute) and 44% below edge-only (all radio +
waiting) — at a per-request latency beating both extremes.""",
    "E14": """**Expectation:** the per-stage M/G/1 tandem model used inside the
optimizer should track simulation closely away from saturation and may
diverge near it (steady-state vs finite horizon).
**Measured — shape holds:** |error| 3–6% up to ~0.75 utilization; at the
near-saturation point the steady-state prediction exceeds the finite-horizon
measurement by ~114%, as documented.""",
    "E15": """**Expectation (extension, S19):** admission ratio ~1 until the edge
saturates, then decays; the *admitted* set's measured satisfaction stays
high throughout — reject rather than degrade everyone.
**Measured — shape holds:** full admission through 16 tasks, 59% at 32;
admitted-set satisfaction stays at 73–85% while E4's un-gated system
degrades everyone.""",
    "E16": """**Expectation (extension, S21):** with no failure handling, every request
stranded on the crashed server is lost; the recovery ladder (timeout →
retry → failover → local degradation) completes all of them at a latency
cost (retries pile onto the survivor); adding failure-triggered plan
repair shortens the degraded window because new arrivals never target the
dead server at all.
**Measured — shape holds:** static loses 84 requests (11.6% miss among
survivors — the misses it *doesn't* see are the losses); failover drives
losses to 0 but pays mean 12.7 s while the survivor drains the backlog;
failover+repair also loses nothing, sheds 40 requests of one
now-infeasible task, and restores goodput to within 6% of the fault-free
static plan (10.5 vs 11.1 rps).""",
    "E17": """**Expectation (extension, S11/S12, DESIGN.md §11):** the sharded
hierarchical control plane should sit between the two poles — much faster
than one centralized solve (per-shard sub-problems are superlinearly
cheaper), within a few % of its objective (cross-shard migration repairs
what the partition severs), while the coordination-free best-response game
bounds how little control-plane machinery can achieve.
**Measured — shape holds:** at the gate's 4096×128/64-shard instance the
sharded arm is ≈5–6× faster than centralized at ≤1% objective difference
(`benchmarks/baselines/shard_baseline.json`; migration accepts a handful of
moves then quiesces).  At the small sizes here the centralized solver is
still comfortably fast, so the speedup is modest — the sharded arm's win
grows with n·m, which is the point of the experiment.""",
    "E18": """**Expectation (extension, DESIGN.md §12):** buffered (μ+κ(ε)·σ)
certification must be *calibrated* — realized request-level violation among
certified tasks stays ≤ ε in every (ε, load) cell — while the risk-blind
deterministic arm's certified set violates freely under jitter at high load.
Cantelli is distribution-free, so slack (conservatism) is expected, and the
buffered arm certifies (weakly) fewer tasks.
**Measured — shape holds:** buffered realized violation is at or below ε in
all 9 cells (ε ∈ {0.01, 0.05, 0.1} × load {0.6, 1.0, 1.4}×, σ=0.15); the
deterministic arm exceeds ε on the over-loaded cells where the buffered arm
stays within budget.  `scripts/perf_gate.py --suite risk` re-checks the
calibration booleans plus risk-off bit-identity on every run.""",
}

SCORECARD = [
    ("E1", "motivation figure", "100×+ device spread; non-monotone boundaries", "✅"),
    ("E2", "crossover figure", "device/edge crossover; joint lower bound", "✅ (crossover ≈ 0.9 Mbps)"),
    ("E3", "frontier table", "latency monotone in accuracy floor", "✅"),
    ("E4", "load figure", "joint degrades slowest; surgery-only collapses", "✅ (19× p99 gap at 8 tasks)"),
    ("E5", "deadline figure", "joint satisfies at tighter deadlines", "✅ (94% vs ≤85% at 2×)"),
    ("E6", "speedup distribution", "spans ~1.1–18.7× band", "✅ (1.0–100× pooled)"),
    ("E7", "convergence figure", "monotone, few iterations, small BR gap", "✅ (≤4 iters, <1% gap)"),
    ("E8", "optimality table", "within a few % of optimum", "✅ (0.00%)"),
    ("E9", "scalability figure", "online-re-solve fast", "✅ (≤1 s at 64×8)"),
    ("E10", "heterogeneity figure", "joint gain widens with spread", "✅ (1.04× → ∞)"),
    ("E11", "dynamics figure", "re-optimization wins in fades", "✅ (2.5× in deep fade)"),
    ("E12", "ablation table", "joint ≤ each single knob ≤ no knob", "✅"),
    ("E13", "energy figure", "joint on the knee", "✅ (−35%/−44% energy)"),
    ("E14", "queueing validation", "close off-saturation, diverges at it", "✅ (3–6% off-saturation)"),
    ("E15", "admission extension", "ratio decays, admitted stay satisfied", "✅"),
    ("E16", "resilience extension", "static loses; ladder recovers; repair restores goodput", "✅ (84 → 0 lost)"),
    ("E17", "control-plane extension", "sharded ≈ centralized objective at a fraction of the wall", "✅ (≈5× at 4k tasks, <1% gap)"),
    ("E18", "chance-constrained extension", "realized tail violation ≤ ε among certified tasks", "✅ (all ε × load cells)"),
    ("A1", "candidate budget", "objective saturates at default budget", "✅ (+2.3% for minimal)"),
    ("A2", "quantization knob", "big wins on thin links, never hurts", "✅ (4.3× at 40 Mbps)"),
    ("A3", "dominance pruning", "identical objectives, ~4× fewer candidates", "✅"),
    ("A4", "M/G/1 in solver", "aware ≤ blind; edge near saturation", "✅"),
    ("A5", "share exponent", "rate-weighted mean minimized at 0.5", "✅ (exact)"),
    ("A6", "threshold refinement", "recovers coarse-grid loss, never hurts", "✅ (+2.2% on single grid)"),
]


#: Static appendices: wall-clock tables measured on the reference container
#: by the perf suites (numbers change only when the corresponding baseline
#: is regenerated, so they are checked in as text, not re-measured here).
WALL_CLOCK_APPENDICES = """\

## Appendix: simulator wall-clock (fast path + replication fan-out)

Before/after of the simulator hot-path work (`sim/fastpath.py`,
`run_replications`), measured on the reference container on the E4-style
workload (smart_city × 64 tasks, 60 s horizon, ≈14 k requests per
replication); `benchmarks/bench_p02_sim_hotpath.py` re-times the
8-replication row. Reports are byte-identical between configurations
(asserted by that bench and by `tests/sim`), so only wall time changes.

| configuration | before (event loop, serial) | after | speedup |
|---|---:|---:|---:|
| 1 replication | 1.71 s | 0.14 s (fast path) | ≈12× |
| 8 replications | 19.1 s | 3.0 s (fast path, 4 workers) | ≈6× |
| perf-gate workload (16 tasks, 20 s) | 0.146 s | 0.018 s | ≈8× |

The single event loop (`faults/runtime.py`; a fault-free run is a run with
an empty fault schedule) remains the reference: telemetry runs, fault runs
and `fast_path=False` use it, and `scripts/perf_gate.py --suite sim`
re-verifies fast ≡ event identity plus exact `sim.*` counter equality on
every run.

## Appendix: million-request streaming wall-clock

Capacity study of the chunked streaming sweep
(`SimulationConfig(streaming=True)` + `run_cells`), measured on the
reference container (1 CPU) with `scripts/perf_gate.py --suite stream` on
the perf-gate workload stretched to ≈1M requests (smart_city × 16 tasks,
aggregate 59 req/s, ≈16 949 s horizon, seed 0; 999 423 requests
generated). The streaming run's scalar summary matches the record-backed
run exactly on counters / miss rate / accuracy / goodput and to <1e-9
relative on mean latency (asserted by the gate on every run).

| configuration | wall | throughput | peak RSS |
|---|---:|---:|---:|
| record-backed one-shot (keeps 1M records) | 16.8 s | ≈60 k req/s | 762 MiB |
| streaming, single cell (`streaming=True`) | 1.4 s | ≈710 k req/s | 160 MiB |
| streaming, 4 cells serial (`run_cells`) | 1.45 s | ≈690 k req/s | bounded per cell |

Headline: ≈12× the throughput at ≈5× less memory, and memory stays flat
in the horizon (O(tasks × histogram bins) accumulators, ≈33 MiB above
interpreter+workload baseline at 1M requests), so multi-hour horizons are
now simulable. The 4-cell process-pool fan-out merges to byte-identical
counters vs. the serial fan-out (gated); on this 1-core container the
pool is pure overhead (0.6× vs. serial cells), so the gated speedup is
sharded-streaming vs. record-backed (≈10×, floor 3×) and the
serial-vs-pooled cell ratio is recorded as information (`cell_pool_ratio`
in the gate's `stream_measure.json`; `benchmarks/baselines/BENCH_stream.json`
keeps the runs up to 2026-08-08 as frozen history). On a ≥4-core machine the cell
fan-out additionally parallelizes the remaining wall clock.

## Appendix: sharded control-plane wall-clock

The E17 gate instance (`scripts/perf_gate.py --suite shard`), measured on
the reference container (1 CPU): smart_city × 4096 tasks on 128 servers,
arrival rates × 0.1 for queue stability, seed 0, local search off in both
arms at this size (E9 precedent). Wall clocks are the min over repeated
runs; plans are fully seeded, so objectives and the migration history are
exact (gated).

| arm | wall | objective | note |
|---|---:|---:|---|
| centralized (one joint solve) | ≈25 s | 1.0149 | one 4096×128 assignment + sweeps |
| sharded, 64 shards (interleave) | ≈4.4 s | 1.0085 | **≈5.7×**; migration history [6, 0] |

The sharded objective lands ~0.6% *better* than centralized here: the
restricted per-shard search escapes the local optimum the centralized
descent settles into, and cross-shard migration repairs the partition
coupling (6 moves, then quiescent). `shards=1` reproduces the centralized
solver bit-exactly on all 7 reference instances (gated), so the hierarchy
is pay-as-you-go. A gate run with `--artifacts-dir` writes its numbers to
`shard_measure.json`; `benchmarks/baselines/BENCH_solver.json` keeps the
trajectory up to 2026-08-08 as frozen history.
"""


def phase_breakdown_appendix(num_tasks: int = 64, num_servers: int = 8) -> str:
    """Markdown appendix: traced solver phase breakdown on the E9-sized instance.

    Wall-clock milliseconds vary run to run; the *shape* (candidate build and
    descent dominating, near-zero untraced remainder) is the documented claim.
    """
    from repro.core.joint import JointOptimizer
    from repro.telemetry.trace import get_tracer, phase_breakdown
    from repro.workloads.scenarios import build_scenario

    cluster, tasks = build_scenario(
        "smart_city", num_tasks=num_tasks, num_servers=num_servers, seed=0
    )
    tracer = get_tracer().enable()
    try:
        JointOptimizer(cluster).solve(tasks, seed=0)
    finally:
        tracer.disable()
    spans = tracer.drain()
    rows = phase_breakdown(spans, root="solve")
    lines = [
        "\n---\n",
        "## Appendix: solver phase breakdown (telemetry)\n",
        f"One traced `solve` of the E9-sized instance ({num_tasks} tasks × "
        f"{num_servers} servers), captured with the `repro.telemetry` tracer "
        "(`python -m repro trace smart_city --tasks "
        f"{num_tasks} --servers {num_servers}`).  Regenerated with this file; "
        "milliseconds are machine-dependent, the phase *shares* are the "
        "reproducible part.\n",
        "| phase | spans | total (ms) | share of solve |",
        "|---|---:|---:|---:|",
    ]
    for name, count, total_s, fraction in rows:
        lines.append(
            f"| `{name}` | {count} | {total_s * 1e3:.1f} | {fraction * 100:.1f}% |"
        )
    return "\n".join(lines) + "\n"


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    results = []
    for eid in sorted(EXPERIMENTS, key=lambda e: (e[0], int(e[1:]))):
        print(f"running {eid}...", flush=True)
        results.append(run_experiment(eid, **KNOBS.get(eid, {})))
    body = render_markdown_report(
        results,
        title="EXPERIMENTS — paper-vs-measured record",
        preamble=PREAMBLE,
        commentary=COMMENTARY,
    )
    body += "\n---\n\n## Summary scorecard\n\n" + render_scorecard(SCORECARD) + "\n"
    print("tracing the E9-sized solve for the phase-breakdown appendix...", flush=True)
    body += phase_breakdown_appendix()
    body += WALL_CLOCK_APPENDICES
    with open(out_path, "w") as fh:
        fh.write(body)
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
