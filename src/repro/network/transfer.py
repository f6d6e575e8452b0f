"""Transfer-time arithmetic.

One logical data transfer of ``nbytes`` over a link with bandwidth share
``share`` costs

    one-way propagation (rtt/2)  +  nbytes / (bandwidth * share)

Zero-byte transfers cost zero (no message is sent at all) — this matters for
plans that execute entirely on one side of the network.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.network.link import Link


def transfer_time(nbytes: float, link: Link, share: float = 1.0) -> float:
    """Seconds to move ``nbytes`` across ``link`` at the given bandwidth share."""
    if nbytes < 0:
        raise ConfigError(f"negative transfer size: {nbytes}")
    if not (0.0 < share <= 1.0 + 1e-12):
        raise ConfigError(f"bandwidth share must be in (0,1], got {share}")
    if nbytes == 0:
        return 0.0
    return link.rtt_s / 2.0 + nbytes / (link.bandwidth_bps * share)


def transfer_time_vec(nbytes: np.ndarray, link: Link, share: float = 1.0) -> np.ndarray:
    """Vectorized :func:`transfer_time` over an array of sizes."""
    if not (0.0 < share <= 1.0 + 1e-12):
        raise ConfigError(f"bandwidth share must be in (0,1], got {share}")
    nbytes = np.asarray(nbytes, dtype=float)
    if np.any(nbytes < 0):
        raise ConfigError("negative transfer size in vector")
    t = link.rtt_s / 2.0 + nbytes / (link.bandwidth_bps * share)
    return np.where(nbytes == 0.0, 0.0, t)
