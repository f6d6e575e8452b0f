"""Exit-policy semantics: thresholds → exit rates and conditional accuracy.

A multi-exit model is operated by an :class:`ExitPolicy`: the ordered set of
*kept* exits and a confidence threshold per kept exit (the final exit always
has threshold 0 — every remaining sample leaves there).  At inference time a
sample leaves at the first kept exit whose confidence clears its threshold.

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

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigError, PlanError
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
        if self.alpha <= 0 or self.beta <= 0:
            raise ConfigError(f"Beta parameters must be positive: {self}")

    def grid(self, n: int = DIFFICULTY_GRID_POINTS) -> Tuple[np.ndarray, np.ndarray]:
        """Midpoint-rule quadrature nodes and normalized weights.

        Memoized per (alpha, beta, n): the Beta pdf evaluation dominates the
        cost of every exit-rate integral, and the same distribution is queried
        thousands of times during candidate enumeration and threshold
        refinement.  The returned arrays are shared and marked read-only.
        """
        key = (self.alpha, self.beta, n)
        cached = _GRID_CACHE.get(key)
        if cached is not None:
            return cached
        # The Beta-pdf kernel ``scipy.stats.beta.pdf`` evaluates on (0, 1);
        # calling it directly keeps the bits and skips importing
        # ``scipy.stats``.  tests/test_scipy_oracle.py pins the two bit for
        # bit.  Imported here so that importing the library loads no scipy.
        from scipy.special._ufuncs import _beta_pdf

        edges = np.linspace(0.0, 1.0, n + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        with np.errstate(over="ignore"):
            w = _beta_pdf(mid, self.alpha, self.beta)
        total = w.sum()
        if total <= 0:  # pragma: no cover - defensive
            raise ConfigError(f"degenerate difficulty distribution {self}")
        w = w / total
        mid.setflags(write=False)
        w.setflags(write=False)
        _GRID_CACHE[key] = (mid, w)
        return mid, w

    def cdf(self, x: np.ndarray | float) -> np.ndarray:
        from scipy.special import betainc

        # Outside (0, 1) the cdf is 0 or 1, which betainc gives at the clip.
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        return betainc(self.alpha, self.beta, x)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw difficulties for ``size`` simulated inference requests."""
        return rng.beta(self.alpha, self.beta, size=size)


def _logit(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 1e-12, 1 - 1e-12)
    return np.log(t / (1.0 - t))


@dataclass(frozen=True)
class ExitPolicy:
    """Thresholds for an ordered set of kept exits.

    ``thresholds[k]`` is the confidence threshold of the k-th *kept* exit in
    depth order; the last entry must be 0 (the mandatory final exit of the
    kept set).  A threshold of 1 effectively disables an exit; thresholds are
    in [0, 1).
    """

    thresholds: Tuple[float, ...]

    def __post_init__(self) -> None:
        t = np.asarray(self.thresholds, dtype=float)
        if t.size == 0:
            raise PlanError("ExitPolicy needs at least one exit")
        if np.any(t < 0.0) or np.any(t >= 1.0):
            raise PlanError(f"thresholds must lie in [0,1): {self.thresholds}")
        if t[-1] != 0.0:
            raise PlanError(
                f"last kept exit must be unconditional (threshold 0): {self.thresholds}"
            )

    @property
    def num_exits(self) -> int:
        return len(self.thresholds)


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


def expected_exit_depth(p: np.ndarray, depth_fractions: np.ndarray) -> float:
    """Average backbone depth fraction at which samples leave."""
    return float(np.dot(p, np.asarray(depth_fractions, dtype=float)))
