"""Heterogeneous device substrate: specs, presets, energy.

The paper's testbed — embedded end devices and edge servers of widely varying
capability — is replaced here by :class:`DeviceSpec` objects whose effective
throughput (peak FLOP/s × per-layer-class efficiency) is calibrated against
public Neurosurgeon/Edgent-class measurements.  Each spec's single compute
rate, :attr:`DeviceSpec.blended_flops`, is what the latency model
(:mod:`repro.core.latency`) and the simulator divide FLOPs by, so the
substitution is invisible to the algorithms under study.
"""

from repro.devices.cluster import EdgeCluster
from repro.devices.device import DeviceSpec
from repro.devices.energy import EnergyModel
from repro.devices.presets import (
    DEVICE_PRESETS,
    SERVER_PRESETS,
    device_preset,
    heterogeneous_servers,
)

__all__ = [
    "DEVICE_PRESETS",
    "DeviceSpec",
    "EdgeCluster",
    "EnergyModel",
    "SERVER_PRESETS",
    "device_preset",
    "heterogeneous_servers",
]
