"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list-models`` — the zoo, with FLOPs/params/cut counts;
- ``profile MODEL DEVICE`` — per-layer latency table;
- ``solve`` — build a scenario, run the joint optimizer, print (and
  optionally save) the plan; ``--shards N`` routes the solve through the
  sharded control plane (partitioned solves + cross-shard migration);
- ``simulate`` — solve then replay under Poisson load in the simulator;
  ``--window-s``/``--slo-target`` switch on streaming-compatible windowed
  SLO monitoring, ``--metrics-out`` saves the metrics stream for
  ``repro monitor --from``;
- ``monitor`` — live-refreshing text dashboard (SLO status, burn rates,
  per-shard health, miss-rate sparklines) over a monitored run executed
  cell-by-cell, or over a saved metrics stream (``--from``);
- ``experiment ID`` — regenerate one table/figure (E1–E18);
- ``risk`` — chance-constrained solve: compare the deterministic plan
  against the mean+κ·σ buffered plan under per-request service jitter, and
  report certification counts and realized tail-violation rates against ε;
- ``chaos`` — replay a scenario under a seed-sampled fault schedule, with
  and without the failure-recovery policy ladder;
- ``trace TARGET`` — run a scenario solve (or an experiment) with telemetry
  enabled, write a Perfetto-loadable ``trace.json`` + ``metrics.jsonl``, and
  print the solver phase breakdown.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.tables import format_table
from repro.core.joint import JointOptimizer, JointSolverConfig
from repro.core.objectives import Objective
from repro.devices.latency import LatencyModel
from repro.devices.presets import DEVICE_PRESETS, SERVER_PRESETS, device_preset
from repro.errors import ReproError
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.models import zoo
from repro.profiling.profiler import profile_model
from repro.sim.runner import SimulationConfig, run_cells, simulate_plan
from repro.workloads.scenarios import SCENARIOS, build_scenario


def _cmd_list_models(args: argparse.Namespace) -> int:
    rows = []
    for name in zoo.available_models():
        g = zoo.build(name)
        rows.append(
            (name, g.total_flops / 1e9, g.total_params / 1e6, g.num_layers, len(g.cut_points))
        )
    print(
        format_table(
            ["model", "GFLOPs", "MParams", "layers", "cut_points"],
            rows,
            title="model zoo",
            float_fmt="{:.2f}",
        )
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    graph = zoo.build(args.model)
    device = device_preset(args.device)
    table = profile_model(
        graph, device, LatencyModel(), noise=args.noise, seed=args.seed,
        repeats=args.repeats,
    )
    print(table.summary(top=args.top))
    return 0


def _solve(args: argparse.Namespace):
    cluster, tasks = build_scenario(
        args.scenario,
        num_tasks=args.tasks,
        num_servers=args.servers,
        access_mbps=args.bandwidth,
        seed=args.seed,
    )
    objective = Objective(args.objective)
    config = JointSolverConfig(
        shards=getattr(args, "shards", 1),
        shard_by=getattr(args, "shard_by", "contiguous"),
        migration_rounds=getattr(args, "migration_rounds", 3),
        nested_shards=getattr(args, "nested_shards", 0),
    )
    result = JointOptimizer(cluster, objective=objective, config=config).solve(
        tasks, seed=args.seed
    )
    return cluster, tasks, result


def _cmd_solve(args: argparse.Namespace) -> int:
    cluster, tasks, result = _solve(args)
    print(
        f"solved {len(tasks)} tasks on {cluster.num_servers} servers in "
        f"{result.iterations} iterations (converged={result.converged})"
    )
    print(result.plan.summary())
    print(f"objective: {result.plan.objective_value * 1e3:.2f} ms")
    stats = getattr(result, "shard_stats", None)
    if stats and args.shards > 1:
        print()
        print(
            format_table(
                ["shard", "servers", "tasks", "iters", "converged", "solve_s"],
                [
                    (st.shard, len(st.servers), st.num_tasks, st.iterations,
                     str(st.converged), st.solve_s)
                    for st in stats
                ],
                title=f"shard solves ({args.shard_by})",
                float_fmt="{:.3f}",
            )
        )
        print(
            f"migrations/round: {result.migration_history or [0]} "
            f"({result.perf.migrations} total over "
            f"{result.perf.migration_rounds} rounds)"
        )
    if getattr(args, "profile", False):
        import dataclasses as _dc

        print()
        print(
            format_table(
                ["counter", "value"],
                [
                    (f.name, getattr(result.perf, f.name))
                    for f in _dc.fields(result.perf)
                ],
                title="solver perf counters",
                float_fmt="{:.4f}",
            )
        )
    if args.output:
        from repro.io import save_joint_plan

        save_joint_plan(result.plan, args.output)
        print(f"plan written to {args.output}")
    return 0


def _window_config(args: argparse.Namespace):
    """The windowed-metrics config the monitoring flags ask for, or None."""
    from repro.telemetry import WindowConfig

    if args.window_s is None and args.slo_target is None:
        return None
    return WindowConfig(window_s=args.window_s if args.window_s is not None else 1.0)


def _slo_policy(args: argparse.Namespace):
    from repro.telemetry import SLOPolicy, SLOTarget

    if args.slo_target is None:
        return None
    return SLOPolicy(targets=(SLOTarget("*", args.slo_target),))


def _cmd_simulate(args: argparse.Namespace) -> int:
    cluster, tasks, result = _solve(args)
    print(result.plan.summary())
    cfg = SimulationConfig(
        horizon_s=args.horizon,
        warmup_s=min(args.horizon / 5, 5.0),
        seed=args.seed,
        streaming=args.streaming or args.cells > 1,
        chunk_size=args.chunk_size,
        max_records=args.max_records,
        sim_workers=args.sim_workers,
        windows=_window_config(args),
        service_noise=args.service_noise,
        epsilon=args.epsilon,
    )
    if args.cells > 1:
        report = run_cells(tasks, result.plan, cluster, cfg, args.cells)
    else:
        report = simulate_plan(tasks, result.plan, cluster, cfg)
    print()
    print(report.summary())
    if report.streaming:
        print(
            f"(streaming mode: {report.total_requests} requests folded into "
            f"bounded accumulators, {len(report.records)} reservoir records kept)"
        )
    if args.epsilon is not None:
        print()
        print(_epsilon_verdict(report, tasks, args.epsilon))
    if report.windowed is not None:
        from repro.telemetry import MetricsRegistry, MetricsStreamWriter, evaluate_slos

        slo = None
        policy = _slo_policy(args)
        if policy is not None:
            slo = evaluate_slos(report.windowed, policy)
            print()
            print(f"SLO ({args.slo_target * 100:g}% deadline satisfaction):")
            print(slo.format())
        if args.metrics_out:
            registry = MetricsRegistry()
            report.counters.publish(registry)
            if getattr(result, "shard_plan", None) is not None:
                result.publish_health(registry, tasks=tasks)
            with MetricsStreamWriter(args.metrics_out) as out:
                out.windowed_snapshot(args.horizon, report.windowed.snapshot())
                if slo is not None:
                    out.slo_report(args.horizon, slo.as_dict())
                out.registry_snapshot(args.horizon, registry)
            print(f"metrics stream written to {args.metrics_out}")
    return 0


def _epsilon_verdict(report, tasks, epsilon: float) -> str:
    """Per-task realized deadline-miss rate against the tail target ε."""
    rows = []
    total = 0
    missed = 0.0
    for t in tasks:
        st = report.per_task.get(t.name)
        if st is None or st.count == 0:
            rows.append((t.name, t.deadline_s * 1e3, 0, "-", "-"))
            continue
        total += st.count
        missed += st.miss_rate * st.count
        rows.append(
            (
                t.name,
                t.deadline_s * 1e3,
                st.count,
                f"{st.miss_rate * 100:.2f}",
                "yes" if st.miss_rate <= epsilon + 1e-12 else "NO",
            )
        )
    overall = missed / total if total else 0.0
    table = format_table(
        ["task", "deadline_ms", "requests", "miss_%", "<=eps"],
        rows,
        title=f"tail-violation verdict (eps={epsilon:g})",
        float_fmt="{:.1f}",
    )
    verdict = "within" if overall <= epsilon + 1e-12 else "EXCEEDS"
    return (
        f"{table}\n"
        f"overall realized violation: {overall * 100:.2f}% — {verdict} the "
        f"eps={epsilon * 100:g}% tail budget"
    )


def _print_frame(frame: str, live: bool) -> None:
    if live and sys.stdout.isatty():  # pragma: no cover - interactive only
        print("\x1b[2J\x1b[H", end="")
    print(frame)


def _monitor_replay(args: argparse.Namespace) -> int:
    """Replay a saved metrics stream as dashboard frames."""
    import time as _time

    from repro.telemetry import read_metrics_stream, render_dashboard

    events = read_metrics_stream(args.from_path)
    if not events:
        raise ReproError(f"metrics stream {args.from_path!r} is empty")
    state = {"windows": None, "slo": None, "registry": None, "t_s": 0.0}
    frames: List[dict] = []
    for ev in events:
        state["t_s"] = ev.get("t_s", state["t_s"])
        if ev["kind"] == "windows":
            state["windows"] = ev["windows"]
            frames.append(dict(state))  # window flushes delimit frames
        elif ev["kind"] == "slo":
            state["slo"] = ev["slo"]
        elif ev["kind"] == "registry":
            state["registry"] = ev["metrics"]
    if not frames or frames[-1] != state:
        frames.append(dict(state))
    if args.once:
        frames = frames[-1:]
    for i, f in enumerate(frames):
        if i:
            _time.sleep(args.refresh)
        _print_frame(
            render_dashboard(
                f["t_s"], windows=f["windows"], slo=f["slo"],
                registry=f["registry"],
                title=f"repro monitor ({args.from_path})",
            ),
            live=not args.once,
        )
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    """Live SLO dashboard: run a monitored fan-out, or replay a stream."""
    import dataclasses
    import time as _time

    from repro.sim.metrics import merge_reports
    from repro.sim.runner import _cell_config
    from repro.telemetry import (
        MetricsRegistry,
        MetricsStreamWriter,
        WindowedMetrics,
        evaluate_slos,
        render_dashboard,
    )

    if args.from_path:
        return _monitor_replay(args)

    cluster, tasks, result = _solve(args)
    wcfg = _window_config(args)
    policy = _slo_policy(args)
    cfg = SimulationConfig(
        horizon_s=args.horizon,
        warmup_s=min(args.horizon / 5, 5.0),
        seed=args.seed,
        streaming=True,
        chunk_size=args.chunk_size,
        windows=wcfg,
    )
    registry = MetricsRegistry()
    if getattr(result, "shard_plan", None) is not None:
        result.publish_health(registry, tasks=tasks)
    out = MetricsStreamWriter(args.metrics_out) if args.metrics_out else None
    # one traffic cell at a time: each cell carries 1/cells of the offered
    # load, so the dashboard refreshes as coverage accumulates — the same
    # decomposition run_cells fans out, just unrolled for display
    scaled = [
        dataclasses.replace(t, arrival_rate=t.arrival_rate / args.cells)
        for t in tasks
    ]
    pooled = WindowedMetrics(wcfg, cfg.horizon_s)
    reports = []
    title = f"repro monitor ({args.scenario}, {args.cells} cells)"
    try:
        for c in range(args.cells):
            rep = simulate_plan(scaled, result.plan, cluster, _cell_config(cfg, c))
            reports.append(rep)
            pooled.merge(rep.windowed)
            t_s = args.horizon * (c + 1) / args.cells  # load coverage
            slo = evaluate_slos(pooled, policy) if policy is not None else None
            if out is not None:
                out.windowed_snapshot(t_s, pooled.snapshot())
                if slo is not None:
                    out.slo_report(t_s, slo.as_dict())
                out.registry_snapshot(t_s, registry)
            if not args.once or c == args.cells - 1:
                if c and not args.once:
                    _time.sleep(args.refresh)
                _print_frame(
                    render_dashboard(
                        t_s,
                        windows=pooled.snapshot(),
                        slo=slo.as_dict() if slo is not None else None,
                        registry=registry.snapshot(),
                        title=f"{title} [{c + 1}/{args.cells}]",
                    ),
                    live=not args.once,
                )
    finally:
        if out is not None:
            out.close()
    merged = merge_reports(reports)
    print()
    print(merged.summary())
    if out is not None:
        print(f"metrics stream written to {args.metrics_out}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import os

    from repro.telemetry import (
        MetricsRegistry,
        TimelineRecorder,
        export_jsonl,
        export_perfetto,
        get_tracer,
        phase_breakdown,
    )

    if args.target not in EXPERIMENTS and args.target not in SCENARIOS:
        raise ReproError(
            f"unknown trace target {args.target!r}: expected an "
            f"experiment ({', '.join(sorted(EXPERIMENTS))}) or a "
            f"scenario ({', '.join(sorted(SCENARIOS))})"
        )
    os.makedirs(args.out, exist_ok=True)
    registry = MetricsRegistry()
    tracer = get_tracer().enable()
    extra_events = []
    try:
        if args.target in EXPERIMENTS:
            result = run_experiment(args.target)
            print(result.format())
        else:
            cluster, tasks = build_scenario(
                args.target,
                num_tasks=args.tasks,
                num_servers=args.servers,
                seed=args.seed,
            )
            result = JointOptimizer(cluster).solve(tasks, seed=args.seed)
            result.perf.publish(registry)
            print(
                f"solved {len(tasks)} tasks on {cluster.num_servers} servers: "
                f"objective {result.plan.objective_value * 1e3:.2f} ms"
            )
            if args.simulate:
                rec = TimelineRecorder(registry=registry)
                report = simulate_plan(
                    tasks,
                    result.plan,
                    cluster,
                    SimulationConfig(
                        horizon_s=args.horizon,
                        warmup_s=min(args.horizon / 5, 5.0),
                        seed=args.seed,
                    ),
                    recorder=rec,
                )
                print(report.summary())
                extra_events = rec.timeline.perfetto_events()
    finally:
        tracer.disable()
    spans = tracer.drain()

    trace_path = os.path.join(args.out, "trace.json")
    spans_path = os.path.join(args.out, "spans.jsonl")
    metrics_path = os.path.join(args.out, "metrics.jsonl")
    export_perfetto(spans, trace_path, extra_events=extra_events)
    export_jsonl(spans, spans_path)
    registry.export_jsonl(metrics_path)

    rows = phase_breakdown(spans, root="solve")
    if rows:
        print()
        print(
            format_table(
                ["phase", "count", "total_ms", "fraction"],
                [(name, count, total * 1e3, frac) for name, count, total, frac in rows],
                title="solve phase breakdown",
                float_fmt="{:.3f}",
            )
        )
    print()
    print(f"trace:   {trace_path}  (open at https://ui.perfetto.dev)")
    print(f"spans:   {spans_path}")
    print(f"metrics: {metrics_path}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.faults import FailurePolicy, sample_fault_schedule

    cluster, tasks = build_scenario(
        args.scenario, num_tasks=args.tasks, num_servers=args.servers, seed=args.seed
    )
    result = JointOptimizer(cluster).solve(tasks, seed=args.seed)
    plan = result.plan
    print(plan.summary())
    schedule = sample_fault_schedule(
        args.seed,
        args.horizon,
        [s.name for s in cluster.servers],
        [t.name for t in tasks],
        crash_rate_per_min=args.crash_rate,
        mean_down_s=args.mean_down,
        loss_prob=args.loss,
    )
    print(f"\nsampled fault schedule ({len(schedule)} events, seed={args.seed}):")
    for e in schedule:
        end = "inf" if e.permanent else f"{e.end_s:.2f}"
        print(f"  {e.kind:>15s} {e.target:<12s} [{e.start_s:.2f}, {end})s "
              f"severity={e.severity:.2f}")
    base = SimulationConfig(
        horizon_s=args.horizon,
        warmup_s=min(args.horizon / 5, 5.0),
        seed=args.seed,
        faults=schedule,
    )
    policy = FailurePolicy(stage_timeout_s=args.timeout, max_retries=args.retries)
    rows = []
    for name, cfg in (
        ("no-policy", base),
        ("policy", dataclasses.replace(base, failure_policy=policy)),
    ):
        rep = simulate_plan(tasks, plan, cluster, cfg)
        c = rep.counters
        rows.append(
            (name, c.records, c.lost, c.degraded_completions, c.failovers,
             c.retries, rep.mean_latency_s * 1e3, rep.percentile_latency_s(99) * 1e3,
             rep.miss_rate * 100)
        )
    print()
    print(
        format_table(
            ["mode", "completed", "lost", "degraded", "failovers", "retries",
             "mean_ms", "p99_ms", "miss_%"],
            rows,
            title=f"chaos replay ({args.scenario}, {args.horizon:.0f}s horizon)",
        )
    )
    return 0


def _cmd_risk(args: argparse.Namespace) -> int:
    """Deterministic vs chance-constrained solve under service-time jitter."""
    import dataclasses

    from repro.core.risk import RiskConfig

    cluster, tasks = build_scenario(
        args.scenario,
        num_tasks=args.tasks,
        num_servers=args.servers,
        access_mbps=args.bandwidth,
        seed=args.seed,
    )
    if args.deadline_scale != 1.0:
        tasks = [
            dataclasses.replace(t, deadline_s=t.deadline_s * args.deadline_scale)
            for t in tasks
        ]
    risk = RiskConfig(
        epsilon=args.epsilon,
        buffer=args.buffer,
        service_noise=args.service_noise,
    )
    det = JointOptimizer(cluster).solve(tasks, seed=args.seed)
    buf = JointOptimizer(
        cluster, config=JointSolverConfig(risk=risk)
    ).solve(tasks, seed=args.seed)
    print(
        f"solved {len(tasks)} tasks on {cluster.num_servers} servers; "
        f"buffer={risk.buffer}, eps={risk.epsilon:g} (kappa={risk.kappa:.2f}), "
        f"service noise sigma={risk.service_noise:g}"
    )

    sim_cfg = SimulationConfig(
        horizon_s=args.horizon,
        warmup_s=min(args.horizon / 5, 5.0),
        seed=args.seed,
        service_noise=args.service_noise,
        epsilon=args.epsilon,
    )
    arms = {}
    for arm, plan in (("deterministic", det.plan), ("buffered", buf.plan)):
        arms[arm] = simulate_plan(tasks, plan, cluster, sim_cfg)

    rows = []
    viol = {"deterministic": [0.0, 0], "buffered": [0.0, 0]}
    for t in tasks:
        det_lat = det.plan.latencies[t.name]
        buf_lat = buf.plan.latencies[t.name]
        cert = {
            "deterministic": det_lat <= t.deadline_s,
            "buffered": buf_lat <= t.deadline_s,
        }
        miss = {}
        for arm, rep in arms.items():
            st = rep.per_task.get(t.name)
            miss[arm] = st.miss_rate if st is not None and st.count else 0.0
            if cert[arm] and st is not None:
                viol[arm][0] += st.miss_rate * st.count
                viol[arm][1] += st.count
        rows.append(
            (
                t.name,
                t.deadline_s * 1e3,
                det_lat * 1e3,
                "yes" if cert["deterministic"] else "no",
                f"{miss['deterministic'] * 100:.2f}",
                buf_lat * 1e3,
                "yes" if cert["buffered"] else "no",
                f"{miss['buffered'] * 100:.2f}",
            )
        )
    print()
    print(
        format_table(
            ["task", "deadline_ms", "det_ms", "det_cert", "det_miss%",
             "buf_ms", "buf_cert", "buf_miss%"],
            rows,
            title=(
                f"certification and realized misses "
                f"({args.scenario}, {args.horizon:g}s jittered replay)"
            ),
            float_fmt="{:.1f}",
        )
    )
    print()
    for arm in ("deterministic", "buffered"):
        m, n = viol[arm]
        rate = m / n if n else 0.0
        note = ""
        if arm == "buffered":
            ok = rate <= args.epsilon + 1e-12
            note = (
                f" — {'within' if ok else 'EXCEEDS'} the "
                f"eps={args.epsilon * 100:g}% tail budget"
            )
        print(
            f"{arm:>13s}: realized violation over certified tasks "
            f"{rate * 100:.2f}% ({n} requests){note}"
        )
    print(
        "\n(det_ms is the plan's mean latency; buf_ms is the buffered "
        "mu+kappa*sigma the chance-constrained solver certifies against)"
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    result = run_experiment(args.id)
    print(result.format())
    if args.output:
        from repro.io import save_experiment_result

        save_experiment_result(result, args.output)
        print(f"result written to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Joint model surgery + resource allocation in heterogeneous edge",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-models", help="list the model zoo").set_defaults(
        fn=_cmd_list_models
    )

    p = sub.add_parser("profile", help="per-layer latency profile")
    p.add_argument("model", choices=zoo.available_models())
    p.add_argument(
        "device", choices=sorted(list(DEVICE_PRESETS) + list(SERVER_PRESETS))
    )
    p.add_argument("--noise", type=float, default=0.0, help="measurement jitter sigma")
    p.add_argument(
        "--repeats", type=int, default=1,
        help="measurement repetitions per layer; >1 averages the draws and "
        "records the sample variance (tightens the profiled latency_var_s2)",
    )
    p.add_argument("--top", type=int, default=10, help="rows to show")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_profile)

    for name, help_text in (
        ("solve", "solve a scenario and print the joint plan"),
        ("simulate", "solve a scenario, then measure the plan in the simulator"),
        ("monitor", "live SLO dashboard over a monitored run or a saved "
         "metrics stream"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", choices=sorted(SCENARIOS), default="smart_city")
        p.add_argument("--tasks", type=int, default=6)
        p.add_argument("--servers", type=int, default=None)
        p.add_argument("--bandwidth", type=float, default=None, help="access Mbps")
        p.add_argument(
            "--objective",
            choices=[o.value for o in Objective],
            default=Objective.AVG_LATENCY.value,
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--shards", type=int, default=1,
            help="partition the servers into N shards and solve through the "
            "hierarchical coordinator (1 = centralized, bit-identical)",
        )
        p.add_argument(
            "--shard-by", choices=["contiguous", "interleave"],
            default="contiguous", help="server partition strategy",
        )
        p.add_argument(
            "--migration-rounds", type=int, default=3,
            help="cross-shard migration rounds after the shard solves",
        )
        p.add_argument(
            "--nested-shards", type=int, default=0,
            help="two-level sharding: re-partition each shard (region) into "
            "up to N racks solved by a nested coordinator (0 = flat)",
        )
        if name == "solve":
            p.add_argument("--output", help="write the plan as JSON")
            p.add_argument(
                "--profile", action="store_true",
                help="print the solver PerfCounters table (candidate/latency "
                "evals, cache hits, index-build and re-solve timers)",
            )
            p.set_defaults(fn=_cmd_solve)
            continue
        p.add_argument("--horizon", type=float, default=30.0, help="sim seconds")
        p.add_argument(
            "--chunk-size", type=int, default=65536,
            help="target requests per streaming window (results identical "
            "for any value)",
        )
        p.add_argument(
            "--metrics-out",
            help="write the windowed/SLO/registry snapshots as a JSONL "
            "metrics stream (replayable with `repro monitor --from`)",
        )
        if name == "simulate":
            p.add_argument(
                "--streaming", action="store_true",
                help="bounded-memory chunked sweep (records-free report; "
                "required for very long horizons)",
            )
            p.add_argument(
                "--max-records", type=int, default=0,
                help="reservoir-sampled records to keep on streaming runs",
            )
            p.add_argument(
                "--cells", type=int, default=1,
                help="shard the workload across N independent traffic cells "
                "(implies --streaming; merges exactly)",
            )
            p.add_argument(
                "--sim-workers", type=int, default=1,
                help="worker processes for the cell fan-out",
            )
            p.add_argument(
                "--window-s", type=float, default=None,
                help="tumbling-window size for streaming-compatible SLO "
                "metrics (enables windowed monitoring)",
            )
            p.add_argument(
                "--slo-target", type=float, default=None,
                help="deadline-satisfaction SLO target in (0,1); prints the "
                "burn-rate report (implies --window-s 1.0 if unset)",
            )
            p.add_argument(
                "--service-noise", type=float, default=0.0,
                help="per-request service-time jitter sigma (mean-one "
                "log-normal per pipeline stage; 0 = deterministic replay)",
            )
            p.add_argument(
                "--epsilon", type=float, default=None,
                help="tail-violation target in (0,1); prints the per-task "
                "realized miss rate vs eps verdict table",
            )
            p.set_defaults(fn=_cmd_simulate)
        else:  # monitor
            p.add_argument(
                "--cells", type=int, default=8,
                help="traffic cells to run one at a time; the dashboard "
                "refreshes after each (each cell carries 1/N of the load)",
            )
            p.add_argument(
                "--window-s", type=float, default=1.0,
                help="tumbling-window size for the SLO metrics",
            )
            p.add_argument(
                "--slo-target", type=float, default=0.99,
                help="deadline-satisfaction SLO target in (0,1)",
            )
            p.add_argument(
                "--from", dest="from_path", default=None, metavar="FILE",
                help="replay a saved metrics stream instead of running",
            )
            p.add_argument(
                "--once", action="store_true",
                help="render only the final frame and exit (no refresh loop)",
            )
            p.add_argument(
                "--refresh", type=float, default=0.5,
                help="seconds between dashboard frames",
            )
            p.set_defaults(fn=_cmd_monitor)

    p = sub.add_parser(
        "trace",
        help="run a scenario (or experiment) with telemetry; write trace + metrics",
    )
    p.add_argument(
        "target",
        nargs="?",
        default="smart_city",
        help="scenario name or experiment ID (default: smart_city)",
    )
    p.add_argument("--tasks", type=int, default=64)
    p.add_argument("--servers", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="traces", help="output directory")
    p.add_argument(
        "--simulate", action="store_true",
        help="also replay the plan in the simulator with event timelines",
    )
    p.add_argument("--horizon", type=float, default=10.0, help="sim seconds")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "chaos",
        help="replay a scenario under a sampled fault schedule, with and "
        "without the recovery-policy ladder",
    )
    p.add_argument("--scenario", choices=sorted(SCENARIOS), default="smart_city")
    p.add_argument("--tasks", type=int, default=6)
    p.add_argument("--servers", type=int, default=None)
    p.add_argument("--horizon", type=float, default=20.0, help="sim seconds")
    p.add_argument(
        "--crash-rate", type=float, default=2.0, help="server crashes per minute"
    )
    p.add_argument(
        "--mean-down", type=float, default=3.0, help="mean outage length, seconds"
    )
    p.add_argument(
        "--loss", type=float, default=0.0,
        help="request-loss probability during the mid-horizon loss window",
    )
    p.add_argument(
        "--timeout", type=float, default=0.25, help="per-stage timeout, seconds"
    )
    p.add_argument("--retries", type=int, default=2, help="retry budget per request")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser(
        "risk",
        help="chance-constrained solve: deterministic vs mean+kappa*sigma "
        "buffered plan under service-time jitter, with certification and "
        "realized tail-violation table",
    )
    p.add_argument("--scenario", choices=sorted(SCENARIOS), default="smart_city")
    p.add_argument("--tasks", type=int, default=6)
    p.add_argument("--servers", type=int, default=None)
    p.add_argument("--bandwidth", type=float, default=None, help="access Mbps")
    p.add_argument(
        "--epsilon", type=float, default=0.05,
        help="tail-violation target in (0,1): certify P[latency > deadline] "
        "<= eps",
    )
    p.add_argument(
        "--buffer", choices=["cantelli", "gaussian"], default="cantelli",
        help="buffer rule: distribution-free Cantelli (default) or the "
        "tighter Gaussian quantile",
    )
    p.add_argument(
        "--service-noise", type=float, default=0.15,
        help="service-time jitter sigma assumed by the solver and applied "
        "per request in the replay",
    )
    p.add_argument(
        "--deadline-scale", type=float, default=1.0,
        help="scale scenario deadlines before solving (looser deadlines "
        "let both arms certify)",
    )
    p.add_argument("--horizon", type=float, default=20.0, help="sim seconds")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_risk)

    p = sub.add_parser("experiment", help="regenerate one experiment (E1-E18)")
    p.add_argument("id", choices=sorted(EXPERIMENTS, key=lambda e: int(e[1:])))
    p.add_argument("--output", help="write the tables as JSON")
    p.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
