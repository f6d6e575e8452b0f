"""Profile table data structures."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.errors import ProfileError


@dataclass(frozen=True)
class LayerProfile:
    """One row of a per-layer profile: cost and measured latency.

    ``latency_var_s2`` is the service-time variance of the measurement
    (seconds², 0.0 for deterministic profiles) — the raw material of the
    chance-constrained solver's ``μ + κσ`` buffers.
    """

    layer_name: str
    layer_type: str
    layer_class: str  # efficiency class: conv/depthwise/dense/memory
    flops: int
    output_bytes: int
    latency_s: float
    latency_var_s2: float = 0.0

    def __post_init__(self) -> None:
        if self.flops < 0 or self.output_bytes < 0:
            raise ProfileError(f"negative profile entry for {self.layer_name}")
        if not (math.isfinite(self.latency_s) and self.latency_s >= 0):
            raise ProfileError(
                f"{self.layer_name}: latency must be finite and >= 0, got {self.latency_s}"
            )
        if not (math.isfinite(self.latency_var_s2) and self.latency_var_s2 >= 0):
            raise ProfileError(
                f"{self.layer_name}: latency variance must be finite and >= 0, "
                f"got {self.latency_var_s2}"
            )


@dataclass
class ProfileTable:
    """Per-layer profile of one (model, device) pair, in topological order."""

    model_name: str
    device_name: str
    rows: List[LayerProfile]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ProfileError(
                f"empty profile for ({self.model_name}, {self.device_name})"
            )

    @property
    def total_latency_s(self) -> float:
        return float(sum(r.latency_s for r in self.rows))

    @property
    def total_flops(self) -> int:
        return int(sum(r.flops for r in self.rows))

    def latencies(self) -> np.ndarray:
        return np.array([r.latency_s for r in self.rows])

    def flops(self) -> np.ndarray:
        return np.array([r.flops for r in self.rows], dtype=float)

    def output_bytes(self) -> np.ndarray:
        return np.array([r.output_bytes for r in self.rows], dtype=float)

    def by_class(self) -> Dict[str, float]:
        """Total latency per efficiency class (where the time goes)."""
        out: Dict[str, float] = {}
        for r in self.rows:
            out[r.layer_class] = out.get(r.layer_class, 0.0) + r.latency_s
        return out

    def summary(self, top: int = 10) -> str:
        """The ``top`` most expensive layers, for reports."""
        ranked = sorted(self.rows, key=lambda r: -r.latency_s)[:top]
        lines = [
            f"profile {self.model_name} on {self.device_name}: "
            f"{self.total_latency_s * 1e3:.2f} ms total"
        ]
        for r in ranked:
            lines.append(
                f"  {r.layer_name:<24s} {r.layer_class:<10s} "
                f"{r.latency_s * 1e3:8.3f} ms  {r.flops / 1e6:10.1f} MFLOPs"
            )
        return "\n".join(lines)
