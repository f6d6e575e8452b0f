"""The pipeline runs with neither networkx nor any SciPy module.

Both are blocked in a fresh interpreter (``sys.modules[name] = None`` makes
any import of them, or of a submodule, fail).  The package and its CLI are
imported, then a preset scenario is built, solved, simulated in streaming
mode with SLO windows and evaluated against an SLO policy, in-process and
through the CLI; none of it fans out, so ``multiprocessing`` stays unloaded
too.  A record-backed run's percentiles leave ``numpy.ma`` unloaded (NumPy's
own percentile interpolation imports it).  The difficulty presets' Beta pdf
grids ship as a table, so no step loads SciPy; only custom difficulty
distributions (``_beta_pdf``), the Gaussian risk buffer and service-time
jitter (``ndtri``) need ``scipy.special``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = """
import sys
sys.modules["networkx"] = None
sys.modules["scipy"] = None


def loaded(prefix):
    return sorted(
        m for m, mod in sys.modules.items()
        if mod is not None and (m == prefix or m.startswith(prefix + "."))
    )


import repro
import repro.cli
from repro import JointOptimizer, build_candidates, build_scenario, simulate_plan
from repro.sim import SimulationConfig
from repro.telemetry import WindowConfig, evaluate_slos

cluster, tasks = build_scenario("smart_city", num_tasks=4, seed=3)
candidates = [build_candidates(t) for t in tasks]
plan = JointOptimizer(cluster).solve(tasks, candidates=candidates, seed=3).plan
cfg = SimulationConfig(
    horizon_s=3.0, seed=3, streaming=True, windows=WindowConfig(window_s=0.5)
)
report = simulate_plan(tasks, plan, cluster, cfg)
assert report.counters.conserved() and report.total_requests > 0
slo = evaluate_slos(report.windowed)
assert slo.per_task, slo
records = simulate_plan(tasks, plan, cluster, SimulationConfig(horizon_s=3.0, seed=3))
assert records.per_task and records.percentile_latency_s(99) > 0
assert repro.cli.main(["solve", "--tasks", "4", "--seed", "1"]) == 0
assert repro.cli.main([
    "simulate", "--tasks", "4", "--horizon", "4", "--seed", "1",
    "--streaming", "--window-s", "0.5", "--slo-target", "0.9",
]) == 0
assert loaded("scipy") == [], loaded("scipy")
# the simulation process pool loads only when jobs fan out
assert loaded("multiprocessing") == [], loaded("multiprocessing")
assert loaded("numpy.ma") == [], loaded("numpy.ma")
print("LEAN-OK")
"""


def test_runs_without_networkx_or_scipy_stats():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("LEAN-OK")
