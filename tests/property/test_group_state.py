"""Hypothesis properties of :class:`~repro.core.allocation.GroupState`.

Every search prices moves through the group state, and every plan it emits
must equal what the from-scratch routines give.  After any sequence of
priced-and-committed moves, rejected trials, unpriced moves and surgery-step
plan changes:

- compute and bandwidth shares are bit-equal to :func:`allocate_shares`;
- server and link member lists equal an index scan of the placement;
- latencies and the objective are bit-equal to :func:`solution_latencies`
  and :meth:`Objective.evaluate` (search surrogate, ``overload="penalty"``);
- a rejected trial leaves the state bit for bit as it was;
- ``shares_if_placed(i, s, j)`` equals task ``i``'s shares once it is placed.
"""

import dataclasses
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import GroupState, allocate_shares, solution_latencies
from repro.core.candidates import build_candidates
from repro.core.objectives import Objective
from repro.workloads.scenarios import build_scenario

N_TASKS, N_SERVERS, N_DEVICES = 10, 3, 4


@lru_cache(maxsize=None)
def _instance():
    cluster, tasks = build_scenario(
        "smart_city", num_tasks=N_TASKS, num_servers=N_SERVERS, server_spread=4.0, seed=3
    )
    # several tasks per device, so access-link groups hold more than one task
    tasks = [
        dataclasses.replace(t, device_name=f"dev{i % N_DEVICES}") for i, t in enumerate(tasks)
    ]
    return cluster, tasks, [build_candidates(t) for t in tasks]


placements = st.one_of(st.none(), st.integers(0, N_SERVERS - 1))
tasks_ix = st.integers(0, N_TASKS - 1)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("trial"), tasks_ix, placements, st.booleans()),
        st.tuples(st.just("move"), tasks_ix, placements, st.integers(0, 10**6)),
        st.tuples(st.just("query"), tasks_ix, st.integers(0, N_SERVERS - 1), st.integers(0, 10**6)),
        st.tuples(st.just("plans"), st.lists(st.integers(0, 10**6), min_size=N_TASKS, max_size=N_TASKS)),
    ),
    max_size=12,
)


def _snapshot(state):
    lat = state.latencies().tobytes()
    return (
        list(state.assignment),
        list(state.plan_idx),
        state.compute.tobytes(),
        state.bandwidth.tobytes(),
        lat,
        {k: list(v) for k, v in state.server_members.items()},
        {k: list(v) for k, v in state.link_members.items()},
    )


def _check_against_oracles(state, tasks, cands, cluster, objective):
    alloc = allocate_shares(
        tasks, cands, state.plan_idx, state.assignment, cluster, objective
    )
    assert state.compute.tobytes() == alloc.compute_shares.tobytes()
    assert state.bandwidth.tobytes() == alloc.bandwidth_shares.tobytes()
    servers, links = {}, {}
    for i, s in enumerate(state.assignment):
        if s is not None:
            servers.setdefault(s, []).append(i)
            links.setdefault((tasks[i].device_name, s), []).append(i)
    assert state.server_members == servers
    assert state.link_members == links
    lat = solution_latencies(
        tasks, cands, state.plan_idx, alloc, cluster, overload="penalty"
    )
    assert state.latencies().tobytes() == lat.tobytes()
    assert state.objective() == objective.evaluate(lat, tasks)


@settings(max_examples=60, deadline=None)
@given(
    objective=st.sampled_from(list(Objective)),
    start=st.lists(placements, min_size=N_TASKS, max_size=N_TASKS),
    plans=st.lists(st.integers(0, 10**6), min_size=N_TASKS, max_size=N_TASKS),
    steps=ops,
)
def test_group_state_matches_full_solves(objective, start, plans, steps):
    cluster, tasks, cands = _instance()
    plan_idx = [p % len(cands[i]) for i, p in enumerate(plans)]
    state = GroupState(
        tasks, cands, cluster, start, plan_idx, objective=objective
    )
    _check_against_oracles(state, tasks, cands, cluster, objective)
    for op in steps:
        kind = op[0]
        if kind == "trial":
            _, i, s, accept = op
            if s == state.assignment[i]:
                continue
            before = _snapshot(state)
            move = state.trial(i, s)
            assert _snapshot(state) == before
            if move is None or not accept:
                continue
            state.commit(move)
            assert state.assignment[i] == s
            assert state.objective() == move.objective
        elif kind == "move":
            _, i, s, j = op
            state.move(i, s, j % len(cands[i]))
        elif kind == "query":
            _, i, s, j = op
            j %= len(cands[i])
            before = _snapshot(state)
            x, y = state.shares_if_placed(i, s, j)
            assert _snapshot(state) == before
            state.move(i, s, j)
            assert (x, y) == (float(state.compute[i]), float(state.bandwidth[i]))
        else:
            new_idx = [p % len(cands[t]) for t, p in enumerate(op[1])]
            before = _snapshot(state)
            move = state.trial_plans(new_idx)
            assert _snapshot(state) == before
            state.commit(move)
            assert state.plan_idx == new_idx
            assert state.objective() == move.objective
        _check_against_oracles(state, tasks, cands, cluster, objective)
