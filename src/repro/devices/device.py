"""Device specifications.

A :class:`DeviceSpec` captures everything the latency/energy models need:
peak floating-point throughput, per-layer-class efficiency factors (real
devices achieve very different fractions of peak on conv vs. dense vs.
depthwise layers — depthwise convolutions are notoriously memory-bound), a
fixed per-invocation framework overhead, and power draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

from repro.errors import ConfigError

#: Layer-class keys understood by the efficiency map.
LAYER_CLASSES = ("conv", "depthwise", "dense", "memory")

#: Default fraction of peak FLOP/s achieved per layer class.  Conv layers are
#: compute-dense and come closest to peak; depthwise and elementwise/memory
#: layers are bandwidth-bound and fall far short — the well-known reason
#: MobileNets underperform their FLOP counts on GPUs.
DEFAULT_EFFICIENCY: Mapping[str, float] = MappingProxyType(
    {"conv": 0.55, "depthwise": 0.15, "dense": 0.35, "memory": 0.08}
)

#: Fraction of a model's FLOPs per layer class behind every device's single
#: compute rate: a conv-dominated CNN (90% conv / 5% dense / 5% memory-bound).
FLOPS_MIX: Mapping[str, float] = MappingProxyType({"conv": 0.90, "dense": 0.05, "memory": 0.05})


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of one compute device.

    Parameters
    ----------
    name:
        Unique identifier within a cluster.
    kind:
        ``"end_device"`` (where requests originate) or ``"server"``.
    peak_flops:
        Peak FLOP/s of the device (fp32).
    efficiency:
        Layer-class -> achieved fraction of peak (see :data:`LAYER_CLASSES`).
    overhead_s:
        Fixed per-invocation latency (framework dispatch, memcpy, kernel
        launch); paid once per executed model *segment*.
    memory_bytes:
        Usable RAM for weights + activations (feasibility checks).
    idle_power_w / busy_power_w:
        Power draw when idle / computing (for the energy model).
    tx_power_w:
        Extra radio/NIC power while transmitting.
    """

    name: str
    kind: str = "end_device"
    peak_flops: float = 10e9
    efficiency: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_EFFICIENCY))
    overhead_s: float = 2e-3
    memory_bytes: float = 1e9
    idle_power_w: float = 2.0
    busy_power_w: float = 5.0
    tx_power_w: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("end_device", "server"):
            raise ConfigError(f"{self.name}: kind must be end_device|server, got {self.kind}")
        if not (math.isfinite(self.peak_flops) and self.peak_flops > 0):
            raise ConfigError(
                f"{self.name}: peak_flops must be finite and positive, got {self.peak_flops}"
            )
        if not (math.isfinite(self.overhead_s) and self.overhead_s >= 0):
            raise ConfigError(
                f"{self.name}: overhead_s must be finite and >= 0, got {self.overhead_s}"
            )
        for cls in LAYER_CLASSES:
            eff = self.efficiency.get(cls)
            if eff is None or not (0.0 < eff <= 1.0):
                raise ConfigError(
                    f"{self.name}: efficiency[{cls!r}] must be in (0,1], got {eff}"
                )
        if self.busy_power_w < self.idle_power_w:
            raise ConfigError(f"{self.name}: busy power below idle power")

    def effective_flops(self, layer_class: str = "conv") -> float:
        """Achieved FLOP/s on layers of the given class."""
        try:
            return self.peak_flops * self.efficiency[layer_class]
        except KeyError:
            raise ConfigError(
                f"{self.name}: unknown layer class {layer_class!r}; "
                f"expected one of {LAYER_CLASSES}"
            ) from None

    @cached_property
    def blended_flops(self) -> float:
        """The device's compute rate (FLOP/s) under :data:`FLOPS_MIX`.

        The blended rate is the harmonic mean weighted by the share of FLOPs
        each class contributes — time adds, not rate.  Computed once per
        spec; a segment's compute time is its FLOPs divided by this rate
        (times the task's compute share on a server).
        """
        total = sum(FLOPS_MIX.values())
        inv = sum(
            (share / total) / self.effective_flops(cls)
            for cls, share in FLOPS_MIX.items()
            if share > 0
        )
        return 1.0 / inv

    def is_server(self) -> bool:
        return self.kind == "server"
