"""The library runs with neither networkx, scipy.stats nor scipy.optimize.

All three are blocked in a fresh interpreter (``sys.modules[name] = None``
makes any import of them fail), then the package and its CLI are imported and
a scenario is built, solved and simulated, in-process and through the CLI.
Importing the package and its CLI loads no scipy module at all;
``scipy.special`` loads on first use by the kernels that need it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = """
import sys
sys.modules["networkx"] = None
sys.modules["scipy.stats"] = None
sys.modules["scipy.optimize"] = None


def loaded(prefix):
    return sorted(
        m for m, mod in sys.modules.items()
        if mod is not None and (m == prefix or m.startswith(prefix + "."))
    )


import repro
import repro.cli

assert loaded("scipy") == [], loaded("scipy")
from repro import JointOptimizer, build_candidates, build_scenario, simulate_plan
from repro.sim import SimulationConfig

cluster, tasks = build_scenario("smart_city", num_tasks=4, seed=3)
candidates = [build_candidates(t) for t in tasks]
plan = JointOptimizer(cluster).solve(tasks, candidates=candidates, seed=3).plan
report = simulate_plan(tasks, plan, cluster, SimulationConfig(horizon_s=3.0, seed=3))
assert report.counters.conserved() and report.total_requests > 0
assert loaded("scipy.optimize") == [], loaded("scipy.optimize")
assert repro.cli.main(["solve", "--tasks", "4", "--seed", "1"]) == 0
assert loaded("scipy.optimize") == [], loaded("scipy.optimize")
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
