"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError` so callers can
catch library failures with a single ``except`` clause while letting genuine
programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations

import math
import numbers


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ModelError(ReproError):
    """Malformed model graph: cycles, dangling edges, shape mismatches."""


class ShapeError(ModelError):
    """A layer received an input shape it cannot process."""


class ProfileError(ReproError):
    """Missing or inconsistent profiling data for a (model, device) pair."""


class PlanError(ReproError):
    """An invalid surgery or allocation plan (e.g. cut point not in model,
    exit threshold out of range, compute share outside (0, 1])."""


class InfeasibleError(ReproError):
    """The optimization instance admits no feasible solution (e.g. the
    accuracy floor exceeds the model's best attainable accuracy)."""


class SimulationError(ReproError):
    """Internal inconsistency detected by the discrete-event simulator
    (events scheduled in the past, negative service times, ...)."""


class FaultError(SimulationError):
    """Invalid fault schedule or fault windows (overlapping outages on one
    target, an unknown target, an empty window, ...)."""


class ResourceUnavailableError(FaultError):
    """Work was submitted to a resource that is currently down.

    The failure-aware request path checks availability before submitting and
    turns unavailability into timeouts/retries/failover; this exception firing
    therefore indicates a policy-layer bug, not a simulated outcome."""


class ConfigError(ReproError):
    """Invalid configuration value."""


def require_finite(owner: object, *names: str) -> None:
    """Raise :class:`ConfigError` unless each ``owner.<name>`` is a finite
    real number (``bool`` excluded): NaN slips through every range check."""
    for name in names:
        value = getattr(owner, name)
        if (
            isinstance(value, bool)
            or not isinstance(value, numbers.Real)
            or not math.isfinite(value)
        ):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")


def require_int(owner: object, *names: str) -> None:
    """Raise :class:`ConfigError` unless each ``owner.<name>`` is an integer
    (``bool`` excluded)."""
    for name in names:
        value = getattr(owner, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
