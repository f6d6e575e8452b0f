"""Analytic queueing formulas."""

import numpy as np
import pytest

from repro.core.queueing import (
    mg1_wait,
    mg1_wait_vec,
    mm1_response,
    mm1_wait,
    utilization,
)
from repro.errors import ConfigError


class TestMM1:
    def test_known_value(self):
        # lambda=1, mu=2: W = rho/(mu-lambda) = 0.5
        assert mm1_wait(1.0, 2.0) == pytest.approx(0.5)

    def test_response_is_wait_plus_service(self):
        lam, mu = 1.0, 2.0
        assert mm1_response(lam, mu) == pytest.approx(mm1_wait(lam, mu) + 1.0 / mu)

    def test_overload_is_inf(self):
        assert mm1_wait(2.0, 2.0) == float("inf")
        assert mm1_response(3.0, 2.0) == float("inf")

    def test_zero_arrivals(self):
        assert mm1_wait(0.0, 2.0) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            mm1_wait(-1.0, 2.0)
        with pytest.raises(ConfigError):
            mm1_wait(1.0, 0.0)


class TestMG1:
    def test_md1_is_half_mm1(self):
        # deterministic service: E[S^2] = E[S]^2 -> W = rho*s/(2(1-rho)),
        # exactly half the M/M/1 wait at equal mean service
        lam, s = 1.0, 0.4
        md1 = mg1_wait(lam, s, s * s)
        mm1 = mg1_wait(lam, s, 2 * s * s)  # exponential: E[S^2] = 2 E[S]^2
        assert md1 == pytest.approx(mm1 / 2)

    def test_mm1_consistency(self):
        lam, mu = 1.0, 2.0
        s = 1.0 / mu
        assert mg1_wait(lam, s, 2 * s * s) == pytest.approx(mm1_wait(lam, mu))

    def test_overload_inf(self):
        assert mg1_wait(3.0, 0.5, 0.25) == float("inf")

    def test_zero_arrivals(self):
        assert mg1_wait(0.0, 0.5, 0.25) == 0.0

    def test_impossible_moments_raise(self):
        with pytest.raises(ConfigError):
            mg1_wait(1.0, 0.5, 0.1)

    def test_float_noise_tolerated(self):
        s = 0.029231
        mg1_wait(1.0, s, s * s * (1 - 1e-12))  # must not raise

    def test_variance_increases_wait(self):
        lam, s = 1.0, 0.4
        assert mg1_wait(lam, s, 4 * s * s) > mg1_wait(lam, s, s * s)

    def test_vectorized_matches_scalar(self):
        lam = np.array([0.0, 1.0, 3.0])
        s = np.array([0.4, 0.4, 0.4])
        s2 = s * s
        vec = mg1_wait_vec(lam, s, s2)
        assert vec[0] == 0.0
        assert vec[1] == pytest.approx(mg1_wait(1.0, 0.4, 0.16))
        assert vec[2] == float("inf")


class TestAggregates:
    def test_utilization(self):
        assert utilization(2.0, 0.25) == pytest.approx(0.5)
