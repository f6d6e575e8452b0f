"""The library's scipy.special kernels against the scipy.stats calls they replace.

The library evaluates the Beta pdf straight from ``scipy.special`` so that
it never imports ``scipy.stats``, and reads the difficulty presets' Beta pdf
grids from a shipped table so that no preset workload imports SciPy at all.
These tests pin the results bit for bit to the ``scipy.stats`` formulas and
the table to the kernel's outputs.
"""

import base64
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special._ufuncs import _beta_pdf

from repro.models import exits
from repro.models._beta_grids import BETA_PDF_GRIDS
from repro.models.exits import DIFFICULTY_GRID_POINTS, DifficultyDistribution
from repro.workloads.difficulty import DIFFICULTY_PRESETS

_PARAM = st.floats(min_value=0.05, max_value=50.0)


def assert_grid_matches_stats(dist):
    for n in (DIFFICULTY_GRID_POINTS, 64):
        mid, w = dist.grid(n)
        edges = np.linspace(0.0, 1.0, n + 1)
        ref_mid = 0.5 * (edges[:-1] + edges[1:])
        ref = stats.beta.pdf(ref_mid, dist.alpha, dist.beta)
        assert np.array_equal(mid, ref_mid)
        assert np.array_equal(w, ref / ref.sum())


@pytest.mark.parametrize("preset", sorted(DIFFICULTY_PRESETS))
def test_presets_match_stats(preset):
    dist = DIFFICULTY_PRESETS[preset]
    assert_grid_matches_stats(dist)


def _midpoints(n):
    edges = np.linspace(0.0, 1.0, n + 1)
    return 0.5 * (edges[:-1] + edges[1:])


def test_table_covers_exactly_the_presets():
    """A new preset or grid size cannot silently fall back to SciPy."""
    presets = {(d.alpha, d.beta, DIFFICULTY_GRID_POINTS) for d in DIFFICULTY_PRESETS.values()}
    assert set(BETA_PDF_GRIDS) == presets


@pytest.mark.parametrize("key", sorted(BETA_PDF_GRIDS))
def test_table_holds_the_kernel_outputs(key):
    alpha, beta, n = key
    with np.errstate(over="ignore"):
        ref = _beta_pdf(_midpoints(n), alpha, beta)
    assert base64.b64decode(BETA_PDF_GRIDS[key]) == ref.astype("<f8").tobytes()


@pytest.mark.parametrize("preset", sorted(DIFFICULTY_PRESETS))
def test_preset_grid_reads_the_table_without_scipy(preset, monkeypatch):
    dist = DIFFICULTY_PRESETS[preset]
    mid = _midpoints(DIFFICULTY_GRID_POINTS)
    ref = stats.beta.pdf(mid, dist.alpha, dist.beta)
    # An empty memo and an unimportable kernel: only the table can answer.
    monkeypatch.setattr(exits, "_GRID_CACHE", {})
    monkeypatch.setitem(sys.modules, "scipy.special._ufuncs", None)
    got_mid, w = dist.grid()
    assert np.array_equal(got_mid, mid)
    assert np.array_equal(w, ref / ref.sum())
    assert not w.flags.writeable and not got_mid.flags.writeable
    with pytest.raises(ImportError):
        DifficultyDistribution(dist.alpha, dist.beta).grid(64)


@settings(max_examples=80, deadline=None)
@given(_PARAM, _PARAM)
def test_drawn_parameters_match_stats(alpha, beta):
    dist = DifficultyDistribution(alpha, beta)
    assert_grid_matches_stats(dist)
