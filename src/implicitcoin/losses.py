"""Convex losses over linear predictors with subgradients and zero infimum.

Per-round inner products use ndarray.dot: the same dot kernel as `@`, so the
same bits, without the matmul ufunc's overhead on short vectors.
"""

import numpy as np
from dataclasses import dataclass


@dataclass(frozen=True)
class LabeledExample:
    """One row: feature vector and target.

    Classification targets are +-1; regression targets are arbitrary reals.
    After preprocessing the feature norm is at most 1, which keeps every
    subgradient inside the unit ball.
    """

    x: np.ndarray
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.float64))
        object.__setattr__(self, "y", float(self.y))


def hinge_eval_grad(w, ex: LabeledExample):
    """Hinge loss max(0, 1 - y<w,x>) and a subgradient at w.

    At the exact margin (y<w,x> = 1) the zero vector is returned; it is a
    valid subgradient and avoids spurious updates.
    """
    w = np.asarray(w, dtype=np.float64)
    x, y = ex.x, ex.y
    if w.shape != x.shape:
        raise ValueError(f"dimension mismatch: w has shape {w.shape}, features {x.shape}")
    if y not in (-1.0, 1.0):
        raise ValueError(f"hinge loss needs targets in {{-1,+1}}, got {y}")
    margin = 1.0 - y * float(w.dot(x))
    if margin > 0.0:
        return margin, -y * x
    return 0.0, np.zeros_like(x)


def absolute_eval_grad(w, ex: LabeledExample):
    """Absolute loss |<w,x> - y| and a subgradient at w (sign(0) := 0)."""
    w = np.asarray(w, dtype=np.float64)
    x = ex.x
    if w.shape != x.shape:
        raise ValueError(f"dimension mismatch: w has shape {w.shape}, features {x.shape}")
    r = float(w.dot(x)) - ex.y
    if r > 0.0:
        return r, x.copy()
    if r < 0.0:
        return -r, -x
    return 0.0, np.zeros_like(x)


def eval_grad_fn(kind: str):
    """Look up a (loss, grad) pair function by name ("hinge" or "absolute")."""
    try:
        return {"hinge": hinge_eval_grad, "absolute": absolute_eval_grad}[kind]
    except KeyError:
        raise ValueError(f"unknown loss kind {kind!r}") from None


def mean_loss(kind: str, w, X, y):
    """Average loss of predictor w over a batch (no gradients). The sum is
    the pairwise one of np.mean, without its Python wrapper."""
    n = len(y)
    if n == 0:
        raise ValueError("mean loss of an empty batch")
    p = X @ w
    if kind == "hinge":
        return float(np.add.reduce(np.maximum(0.0, 1.0 - y * p))) / n
    if kind == "absolute":
        return float(np.add.reduce(np.abs(p - y))) / n
    raise ValueError(f"unknown loss kind {kind!r}")
