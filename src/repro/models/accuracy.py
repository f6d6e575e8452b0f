"""Parametric accuracy semantics for (multi-exit) DNNs.

The optimizer never runs a trained network; it consumes *accuracy profiles*.
We model the accuracy of an exit attached at depth fraction ``f`` (fraction of
backbone FLOPs executed) with a saturating exponential

    acc(f) = final - (final - base) * exp(-sharpness * f)

which matches the published exit-accuracy curves of BranchyNet / MSDNet-class
models: steep gains early, saturation near the full-depth accuracy.  ``base``
is the accuracy of a hypothetical depth-0 classifier (roughly, logistic
regression on raw pixels) and ``final`` the full model's top-1 accuracy.

The same object also provides the *per-difficulty correctness probability*

    P(correct | difficulty d, exit at depth f) = sigmoid(s * (c(f) - d))

with slope ``s`` = :data:`DIFFICULTY_SENSITIVITY`, where the competence ``c(f)`` is calibrated (by bisection) so that the
difficulty-averaged correctness equals ``acc(f)``.  This is what couples exit
*thresholds* to *conditional* accuracy: raising a threshold keeps only easy
samples at an exit, and easy samples are more often correct.  See
:mod:`repro.models.exits` for the integration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

#: slope ``s`` of the per-difficulty correctness sigmoid: larger makes
#: correctness depend more strongly on input difficulty
DIFFICULTY_SENSITIVITY = 6.0


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass(frozen=True)
class AccuracyModel:
    """Accuracy profile of one backbone architecture.

    Parameters
    ----------
    final_accuracy:
        Top-1 accuracy of the unmodified full-depth model, in (0, 1].
    base_accuracy:
        Accuracy of a depth-0 classifier; must be < ``final_accuracy``.
    sharpness:
        Rate of the saturating exponential; larger = accuracy saturates at
        shallower depth (typical published curves: 2–5).
    """

    final_accuracy: float = 0.76
    base_accuracy: float = 0.25
    sharpness: float = 3.0

    def __post_init__(self) -> None:
        if not (0.0 < self.final_accuracy <= 1.0):
            raise ConfigError(f"final_accuracy must be in (0,1], got {self.final_accuracy}")
        if not (0.0 <= self.base_accuracy < self.final_accuracy):
            raise ConfigError(
                "base_accuracy must be in [0, final_accuracy); got "
                f"{self.base_accuracy} vs {self.final_accuracy}"
            )
        if self.sharpness <= 0:
            raise ConfigError("sharpness must be positive")

    def accuracy_at(self, depth_fraction: np.ndarray | float) -> np.ndarray:
        """Average accuracy of an exit at the given backbone depth fraction(s)."""
        f = np.asarray(depth_fraction, dtype=float)
        if np.any(f < -1e-9) or np.any(f > 1.0 + 1e-9):
            raise ConfigError(f"depth_fraction outside [0,1]: {f}")
        acc = self.final_accuracy - (self.final_accuracy - self.base_accuracy) * np.exp(
            -self.sharpness * np.clip(f, 0.0, 1.0)
        )
        return acc

    def correctness(
        self, competence: np.ndarray, difficulty: np.ndarray
    ) -> np.ndarray:
        """P(correct | difficulty, competence); broadcasts its arguments."""
        gap = np.asarray(competence)[..., None] - np.asarray(difficulty)
        return sigmoid(DIFFICULTY_SENSITIVITY * gap)

    def calibrate_competence(
        self,
        target_accuracy: np.ndarray,
        difficulty_grid: np.ndarray,
        difficulty_weights: np.ndarray,
    ) -> np.ndarray:
        """Find competences ``c`` with ``E_d[sigmoid(s(c-d))] = target_accuracy``.

        ``difficulty_grid``/``difficulty_weights`` are quadrature nodes and
        normalized weights of the deployment difficulty distribution.  The
        expectation is monotone increasing in ``c``, so vectorized bisection
        converges geometrically; 60 iterations ≈ 1e-18 bracket width.
        """
        target = np.asarray(target_accuracy, dtype=float)
        if np.any(target <= 0) or np.any(target >= 1):
            raise ConfigError(f"target accuracies must lie strictly in (0,1): {target}")
        lo = np.full(target.shape, -20.0)
        hi = np.full(target.shape, 21.0)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            got = self.correctness(mid, difficulty_grid) @ difficulty_weights
            too_low = got < target
            lo = np.where(too_low, mid, lo)
            hi = np.where(too_low, hi, mid)
        return 0.5 * (lo + hi)


#: Published-ballpark accuracy profiles per zoo model (ImageNet top-1).
PROFILES = {
    "alexnet": AccuracyModel(final_accuracy=0.565, base_accuracy=0.10, sharpness=3.2),
    "vgg11": AccuracyModel(final_accuracy=0.690, base_accuracy=0.12, sharpness=2.8),
    "vgg16": AccuracyModel(final_accuracy=0.715, base_accuracy=0.12, sharpness=2.6),
    "vgg19": AccuracyModel(final_accuracy=0.724, base_accuracy=0.12, sharpness=2.5),
    "resnet18": AccuracyModel(final_accuracy=0.698, base_accuracy=0.15, sharpness=3.0),
    "resnet34": AccuracyModel(final_accuracy=0.733, base_accuracy=0.15, sharpness=2.8),
    "resnet50": AccuracyModel(final_accuracy=0.761, base_accuracy=0.15, sharpness=2.7),
    "mobilenet_v1": AccuracyModel(final_accuracy=0.706, base_accuracy=0.14, sharpness=3.1),
    "mobilenet_v2": AccuracyModel(final_accuracy=0.718, base_accuracy=0.14, sharpness=3.0),
    "inception_v1": AccuracyModel(final_accuracy=0.698, base_accuracy=0.13, sharpness=2.9),
    "squeezenet": AccuracyModel(final_accuracy=0.583, base_accuracy=0.11, sharpness=3.3),
    "densenet121": AccuracyModel(final_accuracy=0.745, base_accuracy=0.15, sharpness=2.8),
}


def profile_for(model_name: str) -> AccuracyModel:
    """Accuracy profile for a zoo model, with a generic fallback."""
    return PROFILES.get(model_name, AccuracyModel())
