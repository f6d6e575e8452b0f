"""Base utilities: units, RNG streams, error hierarchy."""

import numpy as np
import pytest

from repro import errors, units
from repro.rng import DEFAULT_SEED, as_generator, derive, spawn


class TestUnits:
    def test_sizes(self):
        assert units.to_mib(1024**2) == 1.0
        assert units.to_mib(3.5 * 1024**2) == pytest.approx(3.5)

    def test_bandwidth_bits_vs_bytes(self):
        assert units.mbps(8) == pytest.approx(1e6)  # 8 Mbit/s = 1 MB/s
        assert units.to_mbps(units.mbps(40)) == pytest.approx(40)

    def test_float32_bytes(self):
        assert units.FLOAT32_BYTES == 4


class TestRng:
    def test_none_maps_to_default_seed(self):
        a = as_generator(None)
        b = as_generator(DEFAULT_SEED)
        assert a.integers(2**31) == b.integers(2**31)

    def test_generator_passthrough(self):
        g = np.random.default_rng(3)
        assert as_generator(g) is g

    def test_spawn_independent_streams(self):
        parent = as_generator(5)
        children = spawn(parent, 3)
        draws = [c.integers(2**31) for c in children]
        assert len(set(draws)) == 3

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn(as_generator(1), -1)

    def test_derive_stable_across_calls(self):
        a = derive(7, "arrivals", "t0")
        b = derive(7, "arrivals", "t0")
        assert a.integers(2**31) == b.integers(2**31)

    def test_derive_distinguishes_tokens(self):
        a = derive(7, "arrivals", "t0")
        b = derive(7, "arrivals", "t1")
        c = derive(7, "difficulty", "t0")
        draws = {g.integers(2**31) for g in (a, b, c)}
        assert len(draws) == 3

    def test_derive_order_independent(self):
        """Unlike spawn, derive does not depend on call order."""
        first = derive(9, "x").integers(2**31)
        derive(9, "noise")  # interleave an unrelated stream
        second = derive(9, "x").integers(2**31)
        assert first == second


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.ModelError,
            errors.ShapeError,
            errors.ProfileError,
            errors.PlanError,
            errors.InfeasibleError,
            errors.SimulationError,
            errors.ConfigError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_shape_error_is_model_error(self):
        assert issubclass(errors.ShapeError, errors.ModelError)

    def test_one_except_catches_library_failures(self):
        try:
            raise errors.InfeasibleError("nothing fits")
        except errors.ReproError as e:
            assert "nothing fits" in str(e)
