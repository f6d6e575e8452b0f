"""Point-to-point link model."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class Link:
    """A directed link with fixed nominal bandwidth and propagation delay.

    Parameters
    ----------
    bandwidth_bps:
        Nominal capacity in **bytes** per second (see :mod:`repro.units`
    for Mbit/s helpers).
    rtt_s:
        Round-trip propagation delay; one data transfer pays half of it
        (``rtt_s / 2``) plus the serialization time.
    name:
        Optional identifier for reporting.
    """

    bandwidth_bps: float
    rtt_s: float = 10e-3
    name: str = ""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.bandwidth_bps) and self.bandwidth_bps > 0):
            raise ConfigError(
                f"link {self.name!r}: bandwidth must be finite and positive, "
                f"got {self.bandwidth_bps}"
            )
        if not (math.isfinite(self.rtt_s) and self.rtt_s >= 0):
            raise ConfigError(
                f"link {self.name!r}: rtt must be finite and >= 0, got {self.rtt_s}"
            )

    def scaled(self, factor: float) -> "Link":
        """A copy with bandwidth multiplied by ``factor`` (fading, sharing)."""
        if not (math.isfinite(factor) and factor > 0):
            raise ConfigError(
                f"link scale factor must be finite and positive, got {factor}"
            )
        return Link(self.bandwidth_bps * factor, self.rtt_s, self.name)

    def with_bandwidth(self, bandwidth_bps: float) -> "Link":
        """A copy with bandwidth replaced (time-varying traces)."""
        return Link(bandwidth_bps, self.rtt_s, self.name)
