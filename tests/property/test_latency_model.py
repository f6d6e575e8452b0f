"""Hypothesis properties of the predicted-latency model (:mod:`repro.core.latency`).

The solver ranks candidates with the vector form and prices solutions with
the scalar form, so the two must be one model.  For every drawn case —
candidate features, local or server placement, shares, arrival rates up to
and past overload, queueing on and off, both overload modes and risk
``None``/Cantelli/Gaussian — the scalar twin at candidate ``j`` equals the
vector pass's entry ``j`` bit for bit (``inf`` matching ``inf``), the
ranking path :meth:`CandidateSet.latencies` is the vector pass, and
:func:`solution_latencies` prices each task with the twin.
"""

import dataclasses
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import Allocation, solution_latencies
from repro.core.candidates import CandidateSet, build_candidates
from repro.core.latency import predicted_latency, predicted_latency_vec
from repro.core.plan import PlanFeatures
from repro.core.risk import RiskConfig
from repro.workloads.scenarios import build_scenario

N_TASKS, N_SERVERS = 3, 3


@lru_cache(maxsize=None)
def _instance():
    cluster, tasks = build_scenario(
        "smart_city", num_tasks=N_TASKS, num_servers=N_SERVERS, server_spread=4.0, seed=0
    )
    return cluster, tasks, [build_candidates(t) for t in tasks]


def _moment(draw, lo, hi):
    """A first moment (zero or log-uniform in [10**lo, 10**hi]) and a second
    moment at or above its square."""
    if draw(st.booleans()):
        return 0.0, 0.0
    m1 = 10.0 ** draw(st.floats(lo, hi))
    return m1, m1 * m1 * draw(st.floats(1.0, 4.0))


@st.composite
def synthetic_features(draw):
    dev, dev_sq = _moment(draw, 6.0, 10.5)
    if draw(st.booleans()):
        srv = srv_sq = wire = wire_sq = p = 0.0
    else:
        p = draw(st.floats(1e-3, 1.0))
        srv, srv_sq = _moment(draw, 6.0, 11.0)
        wire, wire_sq = _moment(draw, 3.0, 7.0)
    return PlanFeatures(
        plan=_instance()[2][0].features[0].plan,
        dev_flops=dev, srv_flops=srv, wire_bytes=wire, p_offload=p,
        accuracy=0.9, dev_flops_sq=dev_sq, srv_flops_sq=srv_sq, wire_bytes_sq=wire_sq,
    )


@st.composite
def cases(draw):
    cluster, tasks, cands = _instance()
    t = draw(st.integers(0, N_TASKS - 1))
    if draw(st.booleans()):
        real = cands[t].features
        idx = draw(st.lists(st.integers(0, len(real) - 1), min_size=1, max_size=12))
        feats = [real[k] for k in idx]
    else:
        feats = draw(st.lists(synthetic_features(), min_size=1, max_size=6))
    rate = 10.0 ** draw(st.floats(-2.0, 2.5))  # up to and well past overload
    task = dataclasses.replace(tasks[t], arrival_rate=rate)
    risk = draw(st.sampled_from([None, "cantelli", "gaussian", "none"]))
    if risk is not None:
        risk = RiskConfig(
            epsilon=draw(st.floats(0.01, 0.3)), buffer=risk,
            service_noise=draw(st.sampled_from([0.0, 0.15, 0.4])),
        )
    return dict(
        cluster=cluster,
        task=task,
        cs=CandidateSet(task, feats),
        s=draw(st.one_of(st.none(), st.integers(0, N_SERVERS - 1))),
        x=draw(st.floats(1e-3, 1.0)),
        y=draw(st.floats(1e-3, 1.0)),
        queueing=draw(st.booleans()),
        overload=draw(st.sampled_from(["inf", "penalty"])),
        risk=risk,
    )


@settings(max_examples=300, deadline=None)
@given(cases())
def test_scalar_twin_equals_vector_pass(case):
    cluster, task, cs, s = case["cluster"], case["task"], case["cs"], case["s"]
    device = cluster.by_name(task.device_name)
    server = link = None
    if s is not None:
        server = cluster.servers[s]
        link = cluster.link(task.device_name, server.name)
    rate = task.arrival_rate if case["queueing"] else None
    args = (device, server, link, case["x"], case["y"])
    kw = dict(arrival_rate=rate, risk=case["risk"], overload=case["overload"])

    vec = predicted_latency_vec(cs, *args, **kw)
    twin = np.array([predicted_latency(f, *args, **kw) for f in cs.features])
    assert not np.isnan(twin).any()
    assert twin.tobytes() == vec.tobytes()
    if case["overload"] == "penalty":
        ranked = cs.latencies(*args, arrival_rate=rate, risk=case["risk"])
        assert ranked.tobytes() == vec.tobytes()

    for j in range(len(cs)):
        alloc = Allocation([s], [case["x"]], [case["y"]])
        priced = solution_latencies(
            [task], [cs], [j], alloc, cluster,
            include_queueing=case["queueing"], overload=case["overload"], risk=case["risk"],
        )
        assert priced.tobytes() == twin[j:j + 1].tobytes()


@st.composite
def placements(draw):
    """A candidate set and k placements of it, all local or all on servers;
    each placement parameter is drawn as one shared scalar or per row."""
    case = draw(cases())
    cluster, tasks = case["cluster"], _instance()[1]
    k = draw(st.integers(1, 5))
    local = case["s"] is None
    rows = [
        dict(
            t=draw(st.integers(0, N_TASKS - 1)),
            s=None if local else draw(st.integers(0, N_SERVERS - 1)),
            x=draw(st.floats(1e-3, 1.0)),
            y=draw(st.floats(1e-3, 1.0)),
            rate=10.0 ** draw(st.floats(-2.0, 2.5)),
        )
        for _ in range(k)
    ]
    shared = {key: draw(st.booleans()) for key in ("t", "s", "x", "y", "rate")}
    for key, same in shared.items():
        if same:
            for row in rows:
                row[key] = rows[0][key]
    for row in rows:
        row["device"] = cluster.by_name(tasks[row["t"]].device_name)
        if not local:
            row["server"] = cluster.servers[row["s"]]
            row["link"] = cluster.link(tasks[row["t"]].device_name, row["server"].name)
    return case, rows, shared


@settings(max_examples=300, deadline=None)
@given(placements())
def test_broadcast_pass_equals_per_placement_calls(drawn):
    case, rows, shared = drawn
    cs, local = case["cs"], case["s"] is None

    def arg(key, values):
        return values[0] if shared[key] else values

    kw = dict(risk=case["risk"], overload=case["overload"])
    batch = dict(
        device=arg("t", [r["device"] for r in rows]),
        compute_share=arg("x", np.array([r["x"] for r in rows])),
        bandwidth_share=arg("y", [r["y"] for r in rows]),
        arrival_rate=arg("rate", [r["rate"] for r in rows]) if case["queueing"] else None,
    )
    if not local:
        batch["server"] = arg("s", [r["server"] for r in rows])
        batch["link"] = [r["link"] for r in rows]
    vec = predicted_latency_vec(cs, **batch, **kw)
    # a local pass reads no share, so per-row shares alone add no axis
    vec = np.broadcast_to(vec, (len(rows), len(cs)))
    for i, r in enumerate(rows):
        one = predicted_latency_vec(
            cs, r["device"], r.get("server"), r.get("link"), r["x"], r["y"],
            arrival_rate=r["rate"] if case["queueing"] else None, **kw,
        )
        assert one.tobytes() == vec[i].tobytes()
