"""Analytic queueing approximations used inside the optimizer.

Shared servers see a superposition of task request streams.  The optimizer
cannot afford a simulation per candidate solution, so congestion enters the
objective through classical single-queue formulas; experiment E14 validates
them against the discrete-event simulator.

All functions return *waiting* time (time in queue, excluding service) unless
named ``*_response``.  Inputs use rates in req/s and times in seconds.  An
offered load at or above capacity returns ``inf`` — the optimizer treats such
solutions as infeasible rather than raising, because they legitimately arise
mid-search.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError


def utilization(arrival_rate: float, service_time: float) -> float:
    """Offered load rho = lambda * E[S]."""
    if arrival_rate < 0 or service_time < 0:
        raise ConfigError("arrival rate and service time must be non-negative")
    return arrival_rate * service_time


def mm1_wait(arrival_rate: float, service_rate: float) -> float:
    """M/M/1 mean waiting time ``rho / (mu - lambda)``; inf if overloaded."""
    if arrival_rate < 0 or service_rate <= 0:
        raise ConfigError("need arrival_rate >= 0 and service_rate > 0")
    rho = arrival_rate / service_rate
    if rho >= 1.0:
        return float("inf")
    return rho / (service_rate - arrival_rate)


def mm1_response(arrival_rate: float, service_rate: float) -> float:
    """M/M/1 mean response (sojourn) time ``1 / (mu - lambda)``."""
    if arrival_rate < 0 or service_rate <= 0:
        raise ConfigError("need arrival_rate >= 0 and service_rate > 0")
    if arrival_rate >= service_rate:
        return float("inf")
    return 1.0 / (service_rate - arrival_rate)


def mg1_wait(arrival_rate: float, mean_service: float, second_moment: float) -> float:
    """Pollaczek-Khinchine mean wait: ``lambda * E[S^2] / (2 (1 - rho))``.

    ``second_moment`` is E[S^2], not the variance.  Multi-exit service times
    are strongly bimodal (early exit vs. full depth), which is exactly the
    case where M/G/1 beats M/M/1 — and why the library carries E[S^2] around.
    """
    if arrival_rate < 0 or mean_service < 0 or second_moment < 0:
        raise ConfigError("queueing inputs must be non-negative")
    if second_moment < mean_service**2 * (1.0 - 1e-9):
        raise ConfigError(
            f"E[S^2]={second_moment} < E[S]^2={mean_service ** 2}: impossible moments"
        )
    second_moment = max(second_moment, mean_service**2)
    rho = arrival_rate * mean_service
    if rho >= 1.0:
        return float("inf")
    if arrival_rate == 0:
        return 0.0
    return arrival_rate * second_moment / (2.0 * (1.0 - rho))


def mg1_wait_vec(
    arrival_rate: np.ndarray, mean_service: np.ndarray, second_moment: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`mg1_wait` (overload -> inf, no exceptions)."""
    lam = np.asarray(arrival_rate, dtype=float)
    es = np.asarray(mean_service, dtype=float)
    es2 = np.asarray(second_moment, dtype=float)
    rho = lam * es
    with np.errstate(divide="ignore", invalid="ignore"):
        w = lam * es2 / (2.0 * (1.0 - rho))
    w = np.where(rho >= 1.0, np.inf, w)
    idle = lam == 0.0
    return np.where(idle, 0.0, w) if idle.any() else w
