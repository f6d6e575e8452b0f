"""Unit conventions and conversion helpers.

The library uses a single canonical unit per physical quantity so that numbers
can be combined without conversion at call sites:

============  =====================  ==========================================
Quantity      Canonical unit         Notes
============  =====================  ==========================================
time          seconds (s)            latencies, deadlines, service times
compute       FLOPs (multiply-add    layer costs; device speeds in FLOP/s
              counted as 2 FLOPs)
data size     bytes (B)              activation/weight sizes; float32 = 4 B
bandwidth     bytes per second       links store B/s; helpers accept Mbps
energy        joules (J)
power         watts (W)
============  =====================  ==========================================

Helpers below convert between the canonical units and the ones quoted in
configuration and reports (Mbit/s, MiB).  They are trivial on purpose:
keeping every conversion in one module makes unit bugs grep-able.
"""

from __future__ import annotations

#: Bytes occupied by one float32 activation element.
FLOAT32_BYTES = 4

# --- data size ----------------------------------------------------------


def to_mib(nbytes: float) -> float:
    """Bytes -> MiB (for reporting)."""
    return nbytes / (1024.0 * 1024.0)


# --- bandwidth ----------------------------------------------------------


def mbps(value: float) -> float:
    """Megabits per second -> bytes per second.

    Network bandwidths are quoted in Mbit/s throughout the experiments (as in
    the paper family's evaluations); links store bytes/s.
    """
    return value * 1e6 / 8.0


def to_mbps(bytes_per_s: float) -> float:
    """Bytes/s -> Mbit/s (for reporting)."""
    return bytes_per_s * 8.0 / 1e6
