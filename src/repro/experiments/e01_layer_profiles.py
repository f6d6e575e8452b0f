"""E1 (motivation figure): per-layer latency and boundary-size profiles.

Reproduces the classic "why partitioning works" figure: per-layer latency
differs by orders of magnitude across devices, while boundary activation
sizes are *non-monotone* in depth — so the best cut is neither at the input
nor the output, and differs per (model, device, bandwidth).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.devices.presets import device_preset
from repro.experiments.common import ExperimentResult
from repro.models import zoo
from repro.profiling.profiler import profile_model
from repro.units import to_mib

DEFAULT_MODELS: Tuple[str, ...] = ("alexnet", "vgg16", "resnet18", "mobilenet_v1")
DEFAULT_DEVICES: Tuple[str, ...] = ("raspberry_pi4", "jetson_nano", "edge_gpu")


def run(
    models: Sequence[str] = DEFAULT_MODELS,
    devices: Sequence[str] = DEFAULT_DEVICES,
) -> ExperimentResult:
    """Profile every (model, device) pair; report totals, class split, and
    the boundary-size extremes that motivate mid-network cuts."""
    rows = []
    extras = {"profiles": {}, "boundaries": {}}
    for mname in models:
        graph = zoo.build(mname)
        cuts = graph.cut_points
        sizes = np.array([c.boundary_bytes for c in cuts], dtype=float)
        interior = sizes[1:-1] if sizes.size > 2 else sizes
        min_cut = cuts[1 + int(np.argmin(interior))] if sizes.size > 2 else cuts[0]
        extras["boundaries"][mname] = sizes
        for dname in devices:
            dev = device_preset(dname)
            table = profile_model(graph, dev)
            split = table.by_class()
            extras["profiles"][(mname, dname)] = table
            rows.append(
                (
                    mname,
                    dname,
                    table.total_latency_s * 1e3,
                    split.get("conv", 0.0) * 1e3,
                    split.get("dense", 0.0) * 1e3,
                    (split.get("memory", 0.0) + split.get("depthwise", 0.0)) * 1e3,
                    to_mib(graph.input_bytes),
                    to_mib(min_cut.boundary_bytes),
                    min_cut.name,
                )
            )
    return ExperimentResult(
        exp_id="E1",
        title="per-layer latency & boundary-size profiles (motivation)",
        headers=[
            "model",
            "device",
            "total_ms",
            "conv_ms",
            "dense_ms",
            "mem_ms",
            "input_MiB",
            "min_boundary_MiB",
            "min_boundary_at",
        ],
        rows=rows,
        notes=[
            "boundary activation sizes are non-monotone in depth: the smallest "
            "interior boundary is far below the input size, so a mid-network "
            "cut ships less data than full offload",
        ],
        extras=extras,
    )
