"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError` so callers can
catch library failures with a single ``except`` clause while letting genuine
programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


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
    """Invalid fault schedule or fault-injection state transition (overlapping
    outages on one target, recovering a resource that is not down, ...)."""


class ResourceUnavailableError(FaultError):
    """Work was submitted to a resource that is currently down.

    The failure-aware request path checks availability before submitting and
    turns unavailability into timeouts/retries/failover; this exception firing
    therefore indicates a policy-layer bug, not a simulated outcome."""


class ConfigError(ReproError):
    """Invalid configuration value."""
