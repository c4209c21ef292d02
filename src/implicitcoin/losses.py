"""Convex losses over linear predictors with subgradients and zero infimum.

Per-round inner products use ndarray.dot: the same dot kernel as `@`, so the
same bits, without the matmul ufunc's overhead on short vectors.

Every subgradient an oracle returns is one of three read-only arrays that
the example owns: x, -x and zeros. An oracle call allocates no vector, so an
example is meant to be built once and evaluated many times; a caller that
wants to modify a gradient copies it first.
"""

import numpy as np
from dataclasses import dataclass, field


def _read_only(a):
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LabeledExample:
    """One row: feature vector and target.

    Classification targets are +-1; regression targets are arbitrary reals.
    After preprocessing the feature norm is at most 1, which keeps every
    subgradient inside the unit ball.

    x is the example's own read-only copy of the features; neg_x (-x, the
    same bits as -1.0 * x) and zero are built with it and are read-only too.
    """

    x: np.ndarray
    y: float
    neg_x: np.ndarray = field(init=False, repr=False, compare=False)
    zero: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = _read_only(np.array(self.x, dtype=np.float64))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "neg_x", _read_only(-x))
        object.__setattr__(self, "zero", _read_only(np.zeros(x.shape)))


def hinge_eval_grad(w, ex: LabeledExample):
    """Hinge loss max(0, 1 - y<w,x>) and a subgradient at w.

    At the exact margin (y<w,x> = 1) the zero vector is returned; it is a
    valid subgradient and avoids spurious updates. The subgradient -y x is
    ex.neg_x for y = +1 and ex.x for y = -1: no vector is built.
    """
    w = np.asarray(w, dtype=np.float64)
    x, y = ex.x, ex.y
    if w.shape != x.shape:
        raise ValueError(f"dimension mismatch: w has shape {w.shape}, features {x.shape}")
    if y not in (-1.0, 1.0):
        raise ValueError(f"hinge loss needs targets in {{-1,+1}}, got {y}")
    margin = 1.0 - y * float(w.dot(x))
    if margin > 0.0:
        return margin, ex.neg_x if y > 0.0 else x
    return 0.0, ex.zero


def absolute_eval_grad(w, ex: LabeledExample):
    """Absolute loss |<w,x> - y| and a subgradient at w (sign(0) := 0):
    ex.x, ex.neg_x or ex.zero, never a new vector."""
    w = np.asarray(w, dtype=np.float64)
    x = ex.x
    if w.shape != x.shape:
        raise ValueError(f"dimension mismatch: w has shape {w.shape}, features {x.shape}")
    r = float(w.dot(x)) - ex.y
    if r > 0.0:
        return r, x
    if r < 0.0:
        return -r, ex.neg_x
    return 0.0, ex.zero


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
