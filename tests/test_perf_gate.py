"""The perf gate's contract machinery, without running any solve or simulation."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_GATE = Path(__file__).resolve().parent.parent / "scripts" / "perf_gate.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("perf_gate", _GATE)
    module = importlib.util.module_from_spec(spec)
    sys.modules["perf_gate"] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop("perf_gate", None)


@pytest.mark.parametrize(
    "kind, bound, base, value, ok",
    [
        # absolute ceiling
        ("max", 1.5, None, 1.5, True),
        ("max", 1.5, None, 1.4999, True),
        ("max", 1.5, None, 1.5001, False),
        # ratio ceiling against a baseline of 2.0
        ("max", 1.5, 2.0, 3.0, True),
        ("max", 1.5, 2.0, 2.999, True),
        ("max", 1.5, 2.0, 3.001, False),
        # absolute floor
        ("min", 10.0, None, 10.0, True),
        ("min", 10.0, None, 10.001, True),
        ("min", 10.0, None, 9.999, False),
        # ratio floor against a baseline of 4.0
        ("min", 0.5, 4.0, 2.0, True),
        ("min", 0.5, 4.0, 2.001, True),
        ("min", 0.5, 4.0, 1.999, False),
        # exact equality with the baseline
        ("exact", None, 97, 97, True),
        ("exact", None, 97, 96, False),
        ("exact", None, 97, 98, False),
        ("exact", None, "ab" * 32, "ab" * 32, True),
        ("exact", None, "ab" * 32, "ab" * 31 + "ac", False),
        # a boolean that must hold
        ("holds", None, None, True, True),
        ("holds", None, None, False, False),
    ],
)
def test_contract_verdicts_at_the_bound(gate, kind, bound, base, value, ok):
    baseline = {} if base is None else {"group": {"x": base}}
    contract = gate.Contract(
        kind, "group/x", "x", bound,
        base="group/x" if base is not None and kind != "exact" else None,
    )
    assert gate.verdict(contract, {"group": {"x": value}}, baseline)[0] is ok


@pytest.mark.parametrize("kind, bound", [("exact", None), ("max", 1.5), ("min", 0.5)])
def test_missing_baseline_key_fails_with_its_name(gate, capsys, kind, bound):
    contract = gate.Contract(kind, "counters/events", "sim.events", bound, base="counters/events")
    failures = gate.check([contract], {"counters": {"events": 5955}}, {"counters": {}})
    assert failures == ["counters/events"]
    assert "FAIL sim.events: baseline has no key 'counters/events'" in capsys.readouterr().out


def test_missing_measured_key_fails(gate):
    contract = gate.Contract("holds", "paths_equal", "identity")
    ok, detail = gate.verdict(contract, {}, {})
    assert not ok and "paths_equal" in detail


def test_every_baseline_keyed_row_resolves_in_the_checked_in_baselines(gate):
    args = gate.parse_args([])
    for name, suite in gate.SUITES.items():
        baseline = json.loads(suite.baseline.read_text())
        rows = suite.rows(args)
        keys = [c.baseline_key for c in rows if c.baseline_key is not None]
        if suite.overhead is not None:
            keys.append(suite.overhead[0])
        assert keys, name
        for key in keys:
            gate.lookup(baseline, key)  # raises KeyError when absent


def test_update_refuses_while_an_identity_row_fails(gate, monkeypatch, tmp_path):
    measured = {"identity": False, "wall_s": 1.0}
    suite = gate.Suite(
        tmp_path / "unused.json",
        lambda: dict(measured),
        lambda a: [gate.Contract("holds", "identity", "identity"),
                   gate.Contract("max", "wall_s", "wall", a.factor, "wall_s")],
    )
    monkeypatch.setitem(gate.SUITES, "fake", suite)
    out = tmp_path / "fake.json"
    args = gate.parse_args(["--update", "--baseline", str(out)])
    assert gate.run_suite("fake", args) == 1
    assert not out.exists()

    measured["identity"] = True
    assert gate.run_suite("fake", args) == 0
    assert json.loads(out.read_text()) == measured
    assert gate.run_suite("fake", gate.parse_args(["--baseline", str(out)])) == 0
