"""Shared fixtures.

Expensive artifacts (zoo graphs, multi-exit transforms, candidate sets) are
session-scoped: they are deterministic and immutable, so sharing them across
tests only saves time.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.core.candidates import build_candidates
from repro.core.plan import TaskSpec
from repro.devices.cluster import EdgeCluster
from repro.devices.presets import SERVER_PRESETS, device_preset
from repro.models.graph import ModelGraph
from repro.models.layers import (
    Activation,
    Conv2D,
    Dense,
    Flatten,
    Input,
    Pool,
    Softmax,
)
from repro.network.link import Link
from repro.units import mbps
from repro.workloads.scenarios import multiexit_model


@pytest.fixture(scope="session")
def tiny_model() -> ModelGraph:
    """A small, fast-to-build chain CNN used by unit tests."""
    return ModelGraph.chain(
        "tiny",
        [
            Input("input", shape=(3, 32, 32)),
            Conv2D("conv1", out_channels=8, kernel=3, padding=1),
            Activation("relu1"),
            Pool("pool1", kernel=2, stride=2),
            Conv2D("conv2", out_channels=16, kernel=3, padding=1),
            Activation("relu2"),
            Pool("pool2", kernel=2, stride=2),
            Flatten("flatten"),
            Dense("fc", out_features=10),
            Softmax("softmax"),
        ],
    )


@pytest.fixture(scope="session")
def me_resnet18():
    """Multi-exit ResNet-18 (cached by the workloads layer)."""
    return multiexit_model("resnet18", 4, "mixed")


@pytest.fixture(scope="session")
def me_alexnet():
    return multiexit_model("alexnet", 3, "easy")


@pytest.fixture(scope="session")
def pi4():
    return device_preset("raspberry_pi4")


@pytest.fixture(scope="session")
def edge_gpu():
    return SERVER_PRESETS["edge_gpu"]


@pytest.fixture(scope="session")
def small_cluster(pi4):
    """2 Pi-class devices, 1 CPU + 1 GPU server, 40 Mbps star."""
    devices = [dataclasses.replace(pi4, name=f"dev{i}") for i in range(2)]
    servers = [
        dataclasses.replace(SERVER_PRESETS["edge_cpu"], name="srv_cpu"),
        dataclasses.replace(SERVER_PRESETS["edge_gpu"], name="srv_gpu"),
    ]
    return EdgeCluster.star(devices, servers, Link(mbps(40), rtt_s=10e-3))


@pytest.fixture(scope="session")
def small_tasks(me_resnet18, me_alexnet):
    return [
        TaskSpec("t0", me_resnet18, "dev0", deadline_s=0.2, accuracy_floor=0.6, arrival_rate=3.0),
        TaskSpec("t1", me_alexnet, "dev1", deadline_s=0.25, accuracy_floor=0.5, arrival_rate=2.0),
    ]


@pytest.fixture(scope="session")
def small_candidates(small_tasks):
    return [build_candidates(t) for t in small_tasks]


def _plan_digest(plan, *extra) -> str:
    """sha256 over every task's placement, surgery plan, shares and latency
    (floats by ``repr``, so a one-ulp drift changes it), the objective, and
    the ``repr`` of each extra diagnostic (rounds, histories, ...)."""
    h = hashlib.sha256()
    for name in sorted(plan.assignment):
        f = plan.features[name]
        h.update(
            f"{name}:{plan.assignment[name]}:{f.plan}:{plan.compute_shares[name]!r}:"
            f"{plan.bandwidth_shares[name]!r}:{plan.latencies[name]!r}".encode()
        )
    h.update(repr(plan.objective_value).encode())
    for e in extra:
        h.update(repr(e).encode())
    return h.hexdigest()


@pytest.fixture(scope="session")
def plan_digest():
    """The pinned-digest function the fixed-seed solver oracles compare."""
    return _plan_digest


@pytest.fixture(scope="session")
def city_instance():
    """``(cluster, tasks, candidates)`` of a smart_city instance, arrival
    rates optionally scaled: ``city_instance(tasks, servers, seed, rate)``."""

    def build(n: int, m: int, seed: int, rate: float = 1.0):
        from repro.workloads.scenarios import build_scenario

        cluster, tasks = build_scenario(
            "smart_city", num_tasks=n, num_servers=m, server_spread=4.0, seed=seed
        )
        if rate != 1.0:
            tasks = [
                dataclasses.replace(t, arrival_rate=t.arrival_rate * rate) for t in tasks
            ]
        return cluster, tasks, [build_candidates(t) for t in tasks]

    return build
