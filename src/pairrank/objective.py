"""Composite pairwise training objective: cross-entropy on the two arm
scores plus a margin hinge, minimized as

    L = -lambda1 * (log yp + log(1 - yn)) + lambda2 * max(0, margin - yp + yn)

where yp / yn are the positive / negative arm scores in (0, 1). Scores are
clamped to [epsilon, 1 - epsilon] before the logs so the loss is total.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LossConfig:
    lambda1: float = 0.5
    lambda2: float = 0.5
    margin: float = 0.2
    epsilon: float = 1e-7

    def __post_init__(self):
        # NaN fails, as does an int too large for a float (it compares below inf)
        if not all(type(v) is not bool and abs(v) <= sys.float_info.max
                   for v in (self.lambda1, self.lambda2, self.margin, self.epsilon)):
            raise ValueError("loss weights, margin and epsilon must be finite numbers")
        if self.lambda1 < 0 or self.lambda2 < 0 or self.lambda1 + self.lambda2 <= 0:
            raise ValueError("lambda weights must be nonnegative and not both zero")
        if not 0 < self.margin < 1:
            raise ValueError("margin must be in (0, 1)")
        if not 0 < self.epsilon < 1e-3:
            raise ValueError("epsilon must be in (0, 1e-3)")


def _loss_terms(yp, yn, config: LossConfig):
    """Elementwise (loss, dL/dyp, dL/dyn) for floats or arrays of scores.

    The hinge contributes subgradient 0 exactly at the kink.
    """
    eps = config.epsilon
    yp = np.minimum(np.maximum(yp, eps), 1.0 - eps)
    yn = np.minimum(np.maximum(yn, eps), 1.0 - eps)
    ce = -(np.log(yp) + np.log(1.0 - yn))
    slack = config.margin - yp + yn
    loss = config.lambda1 * ce + config.lambda2 * np.maximum(0.0, slack)
    active = slack > 0.0
    d_yp = -config.lambda1 / yp - config.lambda2 * active
    d_yn = config.lambda1 / (1.0 - yn) + config.lambda2 * active
    return loss, d_yp, d_yn


def pairwise_loss(yp: float, yn: float, config: LossConfig) -> float:
    return float(_loss_terms(yp, yn, config)[0])


def batch_loss(yps: np.ndarray, yns: np.ndarray,
               config: LossConfig) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean loss over pairs plus per-pair gradients scaled by 1/N.

    Returns (mean_loss, d_yps, d_yns) with gradient arrays matching the
    input shapes.
    """
    yps = np.asarray(yps, dtype=np.float64)
    yns = np.asarray(yns, dtype=np.float64)
    if yps.shape != yns.shape or yps.size == 0:
        raise ValueError("score arrays must be non-empty and the same length")
    losses, d_yp, d_yn = _loss_terms(yps, yns, config)
    n = yps.size
    return float(losses.mean()), d_yp / n, d_yn / n
