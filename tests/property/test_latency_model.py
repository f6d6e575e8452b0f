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
