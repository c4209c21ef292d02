"""Truncated linear model: the per-round linearization clamped below at zero.

The model built at anchor w with subgradient g and value v is
max(v + <g, w' - w>, 0). Its subgradients at any point are h*g with
h in [0, 1], which is what the betting learners exploit.
"""

import numpy as np
from dataclasses import dataclass


@dataclass(frozen=True)
class TruncatedModel:
    anchor: np.ndarray
    grad: np.ndarray
    loss_at_anchor: float

    def __post_init__(self):
        object.__setattr__(self, "anchor", np.asarray(self.anchor, dtype=np.float64))
        object.__setattr__(self, "grad", np.asarray(self.grad, dtype=np.float64))
        object.__setattr__(self, "loss_at_anchor", float(self.loss_at_anchor))
        if self.loss_at_anchor < 0.0:
            raise ValueError(f"loss at anchor must be >= 0, got {self.loss_at_anchor}")
        if self.anchor.shape != self.grad.shape:
            raise ValueError("anchor and grad must share a shape")


@dataclass(frozen=True)
class SubgradientPair:
    """A subgradient g of the loss and the scaled g_plus = h*g of the model."""

    g: np.ndarray
    g_plus: np.ndarray
    h: float


def linear_residual(m: TruncatedModel, w) -> float:
    """Value of the un-clamped linear part at w.

    Positive means w sits on the linear part, zero is the corner, negative
    the flat part.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.shape != m.anchor.shape:
        raise ValueError(f"dimension mismatch: point {w.shape}, model {m.anchor.shape}")
    return m.loss_at_anchor + float(m.grad @ (w - m.anchor))


def model_eval(m: TruncatedModel, w) -> float:
    """Model value at w: max(linear part, 0)."""
    return max(linear_residual(m, w), 0.0)


def make_pair(g, h: float) -> SubgradientPair:
    g = np.asarray(g, dtype=np.float64)
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"h must lie in [0,1], got {h}")
    return SubgradientPair(g=g, g_plus=h * g, h=float(h))
