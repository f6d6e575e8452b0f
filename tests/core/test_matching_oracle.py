"""The in-house min-cost matching against SciPy's ``linear_sum_assignment``.

``_min_cost_matching`` ports SciPy's shortest-augmenting-path kernel with its
tie-breaking, so on every wide matrix it must return the *same* matching, not
just one of equal cost: replicated server slots make exact ties common, and
the chosen slot decides the plan.  SciPy is the oracle here only; the library
never imports ``scipy.optimize``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from repro.core import allocation as alloc_mod
from repro.core.allocation import _min_cost_matching
from repro.errors import ConfigError, InfeasibleError


def assert_matches_scipy(cost):
    rows, cols = _min_cost_matching(cost)
    ref_rows, ref_cols = linear_sum_assignment(cost)
    assert np.array_equal(rows, ref_rows)
    assert np.array_equal(cols, ref_cols)


@st.composite
def wide_shapes(draw, max_rows=10, max_extra=10):
    nr = draw(st.integers(1, max_rows))
    return nr, nr + draw(st.integers(0, max_extra))


@st.composite
def uniform_matrices(draw):
    shape = draw(wide_shapes())
    return draw(arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))


@st.composite
def tied_matrices(draw):
    shape = draw(wide_shapes())
    return draw(arrays(np.float64, shape, elements=st.integers(0, 3).map(float)))


@st.composite
def slot_matrices(draw):
    """The layout ``assign_servers`` builds, ``big`` substitution included:
    ``m`` servers replicated into ``slots`` equal columns, then one private
    local column per row (``inf``, i.e. ``big``, off the diagonal and where
    the task has no local plan)."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, 5))
    slots = draw(st.integers(1, 4))
    level = st.integers(0, 4).map(lambda k: k / 7.0)
    server_cost = draw(arrays(np.float64, (n, m), elements=level))
    local = draw(arrays(np.float64, (n,), elements=level | st.just(np.inf)))
    cost = np.full((n, m * slots + n), np.inf)
    cost[:, : m * slots] = np.repeat(server_cost, slots, axis=1)
    cost[np.arange(n), m * slots + np.arange(n)] = local
    finite_max = np.nanmax(np.where(np.isinf(cost), np.nan, cost))
    big = finite_max * 1e6 + 1e3
    return np.where(np.isinf(cost), big, cost)


@settings(max_examples=300, deadline=None)
@given(uniform_matrices())
def test_uniform_floats(cost):
    assert_matches_scipy(cost)


@settings(max_examples=300, deadline=None)
@given(tied_matrices())
def test_small_integer_ties(cost):
    assert_matches_scipy(cost)


@settings(max_examples=50, deadline=None)
@given(wide_shapes(), st.sampled_from([0.0, 1.0, 2.5]))
def test_constant_matrices(shape, value):
    assert_matches_scipy(np.full(shape, value))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 20).flatmap(
    lambda nc: arrays(np.float64, (1, nc), elements=st.integers(0, 3).map(float))
))
def test_single_row(cost):
    assert_matches_scipy(cost)


@settings(max_examples=300, deadline=None)
@given(slot_matrices())
def test_assign_servers_layout(cost):
    assert_matches_scipy(cost)


@pytest.mark.parametrize("n, m", [(64, 8), (256, 16)])
def test_large_tied_slot_layout(n, m):
    """Fleet-sized slot layouts: long augmenting paths through many ties."""
    rng = np.random.default_rng(n)
    slots = -(-n // m)
    levels = rng.random(6)
    cost = np.full((n, m * slots + n), 1e9)
    cost[:, : m * slots] = np.repeat(rng.choice(levels, size=(n, m)), slots, axis=1)
    cost[np.arange(n), m * slots + np.arange(n)] = rng.choice(levels, size=n) + 0.5
    assert_matches_scipy(cost)


def test_matrices_of_a_solve(monkeypatch):
    """Every matrix a joint solve hands the matching matches SciPy."""
    from repro import JointOptimizer, build_candidates, build_scenario

    seen = []

    def recording(cost):
        seen.append(np.array(cost))
        return _min_cost_matching(cost)

    monkeypatch.setattr(alloc_mod, "_min_cost_matching", recording)
    cluster, tasks = build_scenario("smart_city", num_tasks=12, num_servers=4, seed=2)
    candidates = [build_candidates(t) for t in tasks]
    JointOptimizer(cluster).solve(tasks, candidates=candidates, seed=2)
    assert seen and all(c.shape[1] > c.shape[0] for c in seen)
    for cost in seen:
        assert_matches_scipy(cost)


def test_empty_rows():
    rows, cols = _min_cost_matching(np.zeros((0, 3)))
    assert rows.size == 0 and cols.size == 0


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_rejects_nan_and_negative_inf(bad):
    cost = np.ones((2, 3))
    cost[1, 2] = bad
    with pytest.raises(ConfigError):
        _min_cost_matching(cost)


@pytest.mark.parametrize("shape", [(3, 2), (4,)])
def test_rejects_tall_or_non_2d(shape):
    with pytest.raises(ConfigError):
        _min_cost_matching(np.ones(shape))


def test_infeasible_raises():
    cost = np.array([[1.0, np.inf], [np.inf, np.inf]])
    with pytest.raises(InfeasibleError):
        _min_cost_matching(cost)
