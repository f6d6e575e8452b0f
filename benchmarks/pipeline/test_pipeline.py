"""Tests of the pipeline benchmark.

Run from the repository root with ``pytest benchmarks/pipeline`` (under a
minute on two cores): smoke-sized runs of every workload, traced and
untraced, a check that each metric ``BENCHMARK.json`` names is emitted
with its unit, and unit tests of the span arithmetic.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import spans as sp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "benchmarks/pipeline/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=150,
    )
    return proc


@pytest.fixture(scope="module")
def smoke():
    jobs = [(w["name"], trace) for w in BENCH["workloads"] for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        procs = list(pool.map(lambda job: _run(*job), jobs))
    return dict(zip(jobs, procs))


def _result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_runs_are_correct(smoke):
    for (workload, trace), proc in smoke.items():
        assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
        result = _result(proc)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= 1


def test_every_declared_metric_is_emitted_with_its_unit(smoke):
    for (workload, trace), proc in smoke.items():
        declared = BENCH["per_layer" if trace else "end_to_end"]
        metrics = _result(proc)["metrics"]
        assert {k: m["unit"] for k, m in metrics.items()} == {
            m["name"]: m["unit"] for m in declared
        }, (workload, trace)
        for name, m in metrics.items():
            assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
            if not trace:
                assert m["value"] != 0, (workload, name)


def test_passes_produce_exactly_the_declared_layers(smoke):
    """A layer name the passes emit but BENCHMARK.json lacks (or the
    reverse) would silently read as zero; the union over workloads must
    match the declaration exactly."""
    emitted = set()
    for w in BENCH["workloads"]:
        ledger = json.loads(
            (HERE / "out" / f"{w['name']}-seed{SEED}-trace1-smoke.json").read_text()
        )
        for p in ledger["passes"]:
            if p["traced"]:
                emitted |= set(p["layers"])
    declared = {m["name"] for m in BENCH["per_layer"]}
    assert emitted | {"trace.overhead_pct"} == declared


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "pipeline",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("stream_city", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- span arithmetic ------------------------------------------------------------


@pytest.mark.parametrize(
    "intervals, length",
    [
        ([], 0.0),
        ([(0.0, 1.0), (2.0, 3.0)], 2.0),  # disjoint
        ([(0.0, 2.0), (1.0, 3.0)], 3.0),  # overlapping
        ([(0.0, 4.0), (1.0, 2.0)], 4.0),  # nested
        ([(2.0, 3.0), (0.0, 2.0)], 3.0),  # unsorted, touching
        ([(1.0, 1.0), (3.0, 2.0)], 0.0),  # empty and reversed
        ([(0.0, 2.0), (0.0, 2.0), (1.0, 5.0), (6.0, 7.0)], 6.0),
    ],
)
def test_union_length(intervals, length):
    assert sp.union_length(intervals) == pytest.approx(length)


def test_self_time_subtracts_the_union_of_overlapping_children():
    # two parallel shard solves overlap on [2, 3): counted once
    assert sp.self_time((0.0, 10.0), [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == pytest.approx(5.0)
    # children fully covering the parent in parallel leave no self time
    assert sp.self_time((0.0, 4.0), [(0.0, 4.0), (0.0, 4.0)]) == 0.0
    # a child poking past its parent is clipped, never negative
    assert sp.self_time((0.0, 10.0), [(8.0, 12.0)]) == pytest.approx(8.0)
    assert sp.self_time((0.0, 1.0), []) == pytest.approx(1.0)
