"""Pipeline benchmark: the command that runs one workload.

Usage (from the repository root)::

    python3 benchmarks/pipeline/run.py --workload stream_city --seed 0 --seconds 30 --trace 0

Runs passes of one workload back to back -- one closed loop, no pacing --
each pass in a fresh child process (``child.py``) so no pass inherits
another's caches.  Passes continue until ``--seconds`` is spent and number
at least ``MIN_PASSES``.  With ``--trace 1`` passes alternate traced and
untraced, and the traced ones give the per-layer metrics.

The metrics and their units are the ones ``BENCHMARK.json`` declares.
End-to-end values are medians over untraced passes; layer values are
medians over traced passes.  Every pass of one seed must produce identical
deterministic outputs (plan, simulator counters, window and SLO
fingerprints, re-plan sequence, fault counters); a mismatch, a failed
output check or a crashed pass counts as a failed operation and makes the
command exit non-zero.  The last stdout line is one JSON object; a ledger
with every pass's values, ``nproc`` and the git sha is written under
``benchmarks/pipeline/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import spans as sp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
WORKLOADS = ("stream_city", "plan_fleet", "online_fleet", "chaos_city")
MIN_PASSES = 3
#: stop starting passes after this long, whatever --seconds says
HARD_STOP_S = 120.0
PASS_TIMEOUT_S = 150.0


def git_sha(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(args, traced: bool, export: str) -> dict:
    """One child process; returns its JSON result plus bookkeeping."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", args.scale, "--trace", str(int(traced)),
    ]
    if export:
        cmd += ["--export", export]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(t0)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=PASS_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        returncode = proc.returncode
    except (subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"pass failed: {exc!r}", file=sys.stderr)
        result, returncode = {}, -1
    result.setdefault("attempted", 1)
    result.setdefault("failed", ["crashed"])
    if returncode != 0 and not result["failed"]:
        result["failed"] = [f"exit {returncode}"]
    result.update(traced=traced, duration_s=time.perf_counter() - t0, returncode=returncode)
    return result


def run_passes(args) -> List[dict]:
    passes: List[dict] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 0
        export = ""
        if traced and not any(p["traced"] for p in passes):
            export = str(OUT / f"{args.workload}-seed{args.seed}.spans")
        passes.append(run_pass(args, traced, export))
        elapsed = time.perf_counter() - start
        typical = sp.median([p["duration_s"] for p in passes])
        if len(passes) >= MIN_PASSES and elapsed + typical > args.seconds:
            break
        if elapsed > HARD_STOP_S:
            break
    return passes


def summarize(args, bench: dict, passes: List[dict]) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    good = [p for p in passes if "fingerprint" in p]
    # deterministic outputs must repeat exactly across passes of one seed
    for p in good[1:]:
        attempted += 1
        if p["fingerprint"] != good[0]["fingerprint"]:
            failed += 1
            diff = sorted(k for k in p["fingerprint"] if p["fingerprint"][k] != good[0]["fingerprint"].get(k))
            print(f"fingerprint mismatch in {diff}", file=sys.stderr)
    untraced = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    metrics: Dict[str, dict] = {}
    if args.trace:
        for m in bench["per_layer"]:
            values = [p["layers"].get(m["name"], 0.0) for p in traced]
            metrics[m["name"]] = {"value": sp.median(values), "unit": m["unit"], "n": len(values)}
        walls_t = [p["layers"]["pipeline.wall_s"] for p in traced]
        walls_u = [p["layers"]["pipeline.wall_s"] for p in untraced]
        if "trace.overhead_pct" in metrics and walls_t and walls_u:
            metrics["trace.overhead_pct"]["value"] = (sp.median(walls_t) / sp.median(walls_u) - 1.0) * 100.0
    else:
        for m in bench["end_to_end"]:
            values = [p["e2e"][m["name"]] for p in untraced]
            metrics[m["name"]] = {"value": sp.median(values), "unit": m["unit"], "n": len(values)}
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"library source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)

    passes = run_passes(args)
    summary = summarize(args, bench, passes)
    for name, m in summary["metrics"].items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']:8s} (median of {m['n']})")

    ledger = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": passes[0].get("nproc"),
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "passes": passes,
        **summary,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}.json"
    (OUT / name).write_text(json.dumps(ledger, indent=1))

    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in summary["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
