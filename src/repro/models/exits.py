"""Exit-policy semantics: thresholds → exit rates and conditional accuracy.

A multi-exit model is operated by an exit policy: the ordered set of *kept*
exits and a confidence threshold per kept exit in [0, 1) (the final exit
always has threshold 0 — every remaining sample leaves there).  At inference
time a sample leaves at the first kept exit whose confidence clears its
threshold.

We model confidence at an exit with competence ``c`` on an input of difficulty
``d`` as ``conf = sigmoid(g * (c - d))`` with gate sharpness ``g``.  Because
``conf`` is strictly decreasing in ``d``, "confidence >= t" is equivalent to
"difficulty <= d*(t)" where

    d*(t) = c - logit(t) / g

so a policy induces per-exit difficulty cutoffs, and exit rates / conditional
accuracies are one-dimensional integrals over the difficulty distribution.
These are evaluated by fixed-grid quadrature (vectorized, ~µs per policy),
which is what makes enumerating thousands of candidate policies in the
surgery optimizer affordable.
"""

from __future__ import annotations

import base64
import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigError, PlanError
from repro.models._beta_grids import BETA_PDF_GRIDS
from repro.models.accuracy import AccuracyModel

#: Quadrature resolution over the difficulty axis [0, 1].
DIFFICULTY_GRID_POINTS = 512

#: Gate sharpness g of the confidence sigmoid (how crisply confidence
#: separates easy from hard inputs).  Held fixed library-wide.
GATE_SHARPNESS = 8.0

#: Quadrature grids per (alpha, beta, points); see DifficultyDistribution.grid.
_GRID_CACHE: dict = {}


@dataclass(frozen=True)
class DifficultyDistribution:
    """Beta-distributed input difficulty on [0, 1].

    ``alpha < beta`` skews the workload easy (most inputs exit early, as with
    mostly-empty surveillance frames); ``alpha > beta`` skews it hard.
    """

    alpha: float = 2.0
    beta: float = 5.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or not (
                math.isfinite(value) and value > 0
            ):
                raise ConfigError(
                    f"Beta parameter {name} must be finite and positive: {self}"
                )

    def grid(self, n: int = DIFFICULTY_GRID_POINTS) -> Tuple[np.ndarray, np.ndarray]:
        """Midpoint-rule quadrature nodes and normalized weights.

        Memoized per (alpha, beta, n): the Beta pdf evaluation dominates the
        cost of every exit-rate integral, and the same distribution is queried
        thousands of times during candidate enumeration and threshold
        refinement.  The returned arrays are shared and marked read-only.
        """
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ConfigError(f"grid points must be a positive integer, got {n!r}")
        key = (self.alpha, self.beta, n)
        cached = _GRID_CACHE.get(key)
        if cached is not None:
            return cached
        mid = _midpoints(n)
        w = _beta_pdf_on(mid, self.alpha, self.beta)
        total = w.sum()
        if not 0 < total < np.inf:
            raise ConfigError(f"degenerate difficulty distribution {self}")
        w = w / total
        mid.setflags(write=False)
        w.setflags(write=False)
        _GRID_CACHE[key] = (mid, w)
        return mid, w

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw difficulties for ``size`` simulated inference requests."""
        return rng.beta(self.alpha, self.beta, size=size)


def _midpoints(n: int) -> np.ndarray:
    """Midpoints of ``n`` equal cells of [0, 1], the quadrature nodes."""
    edges = np.linspace(0.0, 1.0, n + 1)
    return 0.5 * (edges[:-1] + edges[1:])


def _beta_pdf_on(mid: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Beta(alpha, beta) pdf at the midpoint grid ``mid``, bit for bit as
    ``scipy.stats.beta.pdf`` evaluates it.

    The difficulty presets at their grid sizes read the kernel's own outputs
    from a shipped table (``_beta_grids``, written by
    ``scripts/gen_beta_grids.py``), so no preset workload imports SciPy.
    Any other grid calls the kernel ``scipy.stats`` wraps; it is imported
    here so that importing the library loads no scipy.
    tests/test_scipy_oracle.py pins both paths bit for bit.
    """
    packed = BETA_PDF_GRIDS.get((alpha, beta, mid.size))
    if packed is not None:
        return np.frombuffer(base64.b64decode(packed), dtype="<f8")
    from scipy.special._ufuncs import _beta_pdf

    with np.errstate(over="ignore"):
        return _beta_pdf(mid, alpha, beta)


def _logit(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 1e-12, 1 - 1e-12)
    return np.log(t / (1.0 - t))


def difficulty_cutoffs(
    competences: np.ndarray, thresholds: np.ndarray, gate_sharpness: float = GATE_SHARPNESS
) -> np.ndarray:
    """Per-exit difficulty cutoffs d* (exit fires iff difficulty <= d*).

    A threshold of exactly 0 yields ``+inf`` (the exit accepts everything).
    """
    thresholds = np.asarray(thresholds, dtype=float)
    competences = np.asarray(competences, dtype=float)
    cut = competences - _logit(thresholds) / gate_sharpness
    return np.where(thresholds <= 0.0, np.inf, cut)


def exit_probabilities(
    competences: Sequence[float],
    thresholds: Sequence[float],
    difficulty: DifficultyDistribution,
    accuracy_model: AccuracyModel,
    gate_sharpness: float = GATE_SHARPNESS,
    grid_points: int = DIFFICULTY_GRID_POINTS,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exit rates and conditional accuracies of a policy.

    Parameters
    ----------
    competences:
        Calibrated competence of each kept exit, depth order (see
        :meth:`AccuracyModel.calibrate_competence`).
    thresholds:
        Confidence threshold per kept exit; last must be 0.
    difficulty:
        Deployment input-difficulty distribution.
    accuracy_model:
        Provides P(correct | difficulty, competence).

    Returns
    -------
    (p, acc):
        ``p[k]``  — probability a sample exits at kept exit k (sums to 1);
        ``acc[k]`` — P(correct | exited at k).  For ``p[k] = 0`` the
        conditional accuracy is reported as the exit's marginal accuracy.
    """
    comp = np.asarray(competences, dtype=float)
    thr = np.asarray(thresholds, dtype=float)
    if comp.shape != thr.shape:
        raise PlanError(f"competences {comp.shape} vs thresholds {thr.shape} mismatch")
    if thr[-1] != 0.0:
        raise PlanError("final kept exit must have threshold 0")

    grid, weights = difficulty.grid(grid_points)
    cutoffs = difficulty_cutoffs(comp, thr, gate_sharpness)  # (K,)
    # fires[k, d] — exit k would accept difficulty d
    fires = grid[None, :] <= cutoffs[:, None]
    # first-fire indicator: k fires and no earlier exit fired
    earlier = np.zeros(grid.shape, dtype=bool)
    p = np.empty(comp.shape, dtype=float)
    acc = np.empty(comp.shape, dtype=float)
    correct = accuracy_model.correctness(comp, grid)  # (K, D)
    for k in range(comp.size):
        takes = fires[k] & ~earlier
        mass = float(weights[takes].sum())
        p[k] = mass
        if mass > 0:
            acc[k] = float((correct[k][takes] * weights[takes]).sum() / mass)
        else:
            acc[k] = float(correct[k] @ weights)
        earlier |= fires[k]
    # final exit has cutoff +inf, so total mass is exactly 1 up to quadrature
    total = p.sum()
    if not np.isclose(total, 1.0, atol=1e-9):  # pragma: no cover - invariant
        raise PlanError(f"exit probabilities sum to {total}, expected 1")
    p /= total
    return p, acc


def expected_accuracy(p: np.ndarray, acc: np.ndarray) -> float:
    """Workload accuracy of a policy: exit-rate-weighted conditional accuracy."""
    return float(np.dot(p, acc))
