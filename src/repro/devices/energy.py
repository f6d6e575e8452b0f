"""Per-inference energy accounting (secondary metric, experiment E13).

Energy for one request seen from the *end device* — the battery-constrained
party — decomposes into compute energy while the head runs locally, radio
energy while transmitting the boundary activation, and idle energy while
waiting for the server's reply.  Server-side energy is reported separately
(it matters for operator cost, not battery).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices.device import DeviceSpec
from repro.errors import ConfigError


@dataclass(frozen=True)
class EnergyBreakdown:
    """Joules spent per phase of one inference, device perspective."""

    compute_j: float
    tx_j: float
    idle_wait_j: float


@dataclass(frozen=True)
class EnergyModel:
    """Maps phase durations to joules using :class:`DeviceSpec` power draw."""

    def device_energy(
        self,
        device: DeviceSpec,
        compute_s: float,
        tx_s: float,
        wait_s: float,
    ) -> EnergyBreakdown:
        """Energy of one request on the end device.

        ``compute_s``: local head execution time; ``tx_s``: time on air
        (upload + download); ``wait_s``: time blocked on the remote side.
        """
        for label, v in (("compute_s", compute_s), ("tx_s", tx_s), ("wait_s", wait_s)):
            if v < 0:
                raise ConfigError(f"negative duration {label}={v}")
        return EnergyBreakdown(
            compute_j=device.busy_power_w * compute_s,
            tx_j=(device.idle_power_w + device.tx_power_w) * tx_s,
            idle_wait_j=device.idle_power_w * wait_s,
        )
