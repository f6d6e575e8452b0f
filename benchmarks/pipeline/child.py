"""One pass of one workload, in a fresh process (started by ``run.py``).

Set-up runs from process start until the workload's inputs are ready; the
timed section then drives the pipeline once.  The pass prints one JSON
object on its last stdout line: end-to-end values, layer values, the
fingerprint of its deterministic outputs, and its operation counts.

With ``--trace 1`` the library's global tracer is on and every timed call
is wrapped in a ``bench.<phase>`` span; layer times are then read off the
span tree, using the library's existing spans only.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List

import spans as sp
from repro.telemetry.trace import export_jsonl, export_perfetto, get_tracer
from workloads import NPROC, SIZES, WORKLOADS, plan_digest


def maxrss_mb() -> float:
    """This process's resident-set high-water mark, in MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Timer:
    __slots__ = ("elapsed_s",)

    def __init__(self) -> None:
        self.elapsed_s = 0.0


class Recorder:
    """Times public calls from outside and counts operations and checks."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.phases: Dict[str, float] = defaultdict(float)
        self.rss_delta: Dict[str, float] = defaultdict(float)
        self.layers: Dict[str, float] = {}
        self.attempted = 0
        self.failed: List[str] = []

    @contextmanager
    def phase(self, name: str):
        """Time one public call; an exception counts it as failed."""
        self.attempted += 1
        timer = _Timer()
        rss0 = maxrss_mb()
        t0 = time.perf_counter()
        try:
            with self.tracer.span("bench." + name):
                yield timer
        except Exception:
            self.failed.append(name)
            raise
        finally:
            timer.elapsed_s = time.perf_counter() - t0
            self.phases[name] += timer.elapsed_s
            self.rss_delta[name] += maxrss_mb() - rss0

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)
            print(f"check failed: {name}", file=sys.stderr)


def span_layers(spans, wall_s: float) -> Dict[str, float]:
    """Layer times read off one pass's span tree."""
    kids = sp.children_of(spans)
    out: Dict[str, float] = defaultdict(float)
    top = []
    for s in spans:
        dur = s.end_s - s.start_s
        if s.parent_id is None and s.name.startswith("bench."):
            top.append(sp.interval(s))
        elif s.name == "alloc.assign_servers":
            out["core.allocation.assign_servers_s"] += dur
        elif s.name == "solve.shard_plan":
            out["core.sharding.shard_plan_s"] += dur
        if s.name in ("solve.sharded", "solve.resolve_dirty"):
            children = kids.get(s.span_id, [])
            shard_solves = [c for c in children if c.name == "solve"]
            out["core.joint.shard_solve_s"] += sp.union_length(map(sp.interval, shard_solves))
            out["core.joint.shard_busy_s"] += sum(c.end_s - c.start_s for c in shard_solves)
            out["core.coordinator.self_s"] += sp.self_time(
                sp.interval(s), map(sp.interval, children)
            )
            for c in children:
                if c.name in ("solve.assemble", "solve.migrate", "solve.package"):
                    out["core.coordinator." + c.name.split(".")[1] + "_s"] += c.end_s - c.start_s
    if out["core.joint.shard_solve_s"] > 0:
        out["core.joint.parallelism"] = out["core.joint.shard_busy_s"] / out["core.joint.shard_solve_s"]
    out["trace.coverage"] = sp.union_length(top) / wall_s
    return dict(out)


def result_layers(rec: Recorder, outcome, inputs: dict, wall_s: float) -> Dict[str, float]:
    """Layer values from outside timing and the library's public counters."""
    report = outcome.sim
    c = report.counters
    sim_s = rec.phases[outcome.sim_phase]
    wm = report.windowed
    layers = {
        "pipeline.wall_s": wall_s,
        "workloads.build_s": inputs["build_s"],
        "core.candidates.build_s": rec.phases["candidates"],
        "core.plan_s": sum(rec.phases[p] for p in outcome.plan_phases),
        "core.rss_delta_mb": sum(rec.rss_delta[p] for p in outcome.plan_phases),
        "sim.simulate_s": rec.phases.get("simulate", 0.0),
        "sim.req_per_s": c.requests / sim_s,
        "sim.requests": float(c.requests),
        "sim.completed": float(c.records + c.discarded_warmup),
        "sim.lost": float(c.lost),
        "sim.us_per_request": sim_s / c.requests * 1e6,
        "sim.rss_delta_mb": rec.rss_delta[outcome.sim_phase],
        "telemetry.slo.evaluate_s": rec.phases["slo"],
        "telemetry.slo.alerts": float(len(outcome.slo.alerts())),
        "telemetry.windows.cells": float(wm.n_windows * wm.n_bins * len(wm.tasks())),
    }
    if outcome.solve is not None:
        perf = outcome.solve.perf
        layers.update(
            {
                "core.sharding.index_build_s": perf.index_build_s,
                "core.allocation.group_solves": float(perf.allocate_group_solves),
                "core.joint.latency_evals": float(perf.latency_evals),
                "core.joint.candidate_evals": float(perf.candidate_evals),
                "core.coordinator.migrations": float(perf.migrations),
            }
        )
    layers.update(rec.layers)
    layers.update(outcome.layers)
    return layers


def end_to_end(outcome, setup_s: float) -> Dict[str, float]:
    errors = sum(t.errors for t in outcome.slo.per_task.values())
    eligible = sum(t.eligible for t in outcome.slo.per_task.values())
    return {
        "setup_s": setup_s,
        "peak_rss_mb": maxrss_mb(),
        "objective_ms": outcome.plan.objective_value * 1e3,
        "deadline_met": 1.0 - errors / eligible if eligible else 0.0,
        "p99_ms": outcome.sim.percentile_latency_s(99) * 1e3,
    }


def fingerprint(outcome) -> Dict[str, object]:
    fp = {
        "objective": repr(outcome.plan.objective_value),
        "plan": plan_digest(outcome.plan),
        "sim_counters": outcome.sim.counters.as_dict(),
        "windows": outcome.sim.windowed.fingerprint(),
        "slo": outcome.slo.fingerprint(),
    }
    fp.update(outcome.fingerprint)
    return fp


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="parent's perf_counter() just before it started this process")
    ap.add_argument("--export", default="", help="path prefix for the span exports")
    args = ap.parse_args(argv)

    setup, run = WORKLOADS[args.workload]
    tracer = get_tracer()
    rec = Recorder(tracer)
    out: Dict[str, object] = {"nproc": NPROC}
    try:
        t0 = time.perf_counter()
        inputs = setup(args.seed, SIZES[args.scale][args.workload])
        inputs["build_s"] = time.perf_counter() - t0
        setup_s = time.perf_counter() - args.spawned_at
        if args.trace:
            tracer.enable()
        t_wall = time.perf_counter()
        outcome = run(inputs, rec)
        wall_s = time.perf_counter() - t_wall
        tracer.disable()

        plan = outcome.plan
        rec.check("plan.covers_tasks", set(plan.assignment) == {t.name for t in inputs["tasks"]})
        rec.check("plan.objective_finite", math.isfinite(plan.objective_value))
        out["e2e"] = end_to_end(outcome, setup_s)
        out["fingerprint"] = fingerprint(outcome)
        layers = result_layers(rec, outcome, inputs, wall_s)
        if args.trace:
            spans = tracer.drain()
            layers.update(span_layers(spans, wall_s))
            if outcome.probe is not None:
                layers.update(outcome.probe())
            if args.export:
                export_jsonl(spans, args.export + ".jsonl")
                export_perfetto(spans, args.export + ".perfetto.json")
        out["layers"] = layers
    except Exception:
        traceback.print_exc()
        if not rec.failed:
            rec.failed.append("exception")
    out["attempted"] = max(rec.attempted, 1)
    out["failed"] = rec.failed
    print(json.dumps(out))
    return 1 if rec.failed else 0


if __name__ == "__main__":
    sys.exit(main())
