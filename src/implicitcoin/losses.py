"""Convex losses over linear predictors with subgradients and zero infimum.

Per-round inner products use ndarray.dot: the same dot kernel as `@`, so the
same bits, without the matmul ufunc's overhead on short vectors.

Every subgradient an oracle returns is one of three read-only arrays that
the example owns: x, -x and zeros. An oracle call allocates no vector, so an
example is meant to be built once and evaluated many times; a caller that
wants to modify a gradient copies it first. `labeled_examples` builds a
whole training matrix's examples at once: one read-only copy of X, -X
computed once and one zero row shared by every example.

An example also carries the statistics its gradients' input checks read:
sq_norm, x.x (the bits of (-x).(-x) as well), and for the per-coordinate
learner abs_x, the read-only |x| (the same for -x), abs_max, its largest
entry (nan if an entry is nan), sq_x, the read-only x * x (the bits of
(-x) * (-x)), and twice_sq_x, the read-only sq_x + sq_x (2 g^2, that
learner's full-round 1/eta increment). `round_input`, the one input check
of every algorithm's step, reads sq_norm only when g is the example's own x
or neg_x, and takes g = ex.zero as g.g = 0; any other gradient is measured
afresh.

An oracle converts w, and `round_input` g, with np.asarray only when it is
not already a float64 ndarray.
"""

import math

import numpy as np
from dataclasses import dataclass, field

_F64 = np.dtype(np.float64)


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
    same bits as -1.0 * x) and zero are built with it and are read-only too,
    as are the statistics sq_norm (x.x), abs_x (|x|), abs_max (its largest
    entry), sq_x (x * x) and twice_sq_x (sq_x + sq_x).
    """

    x: np.ndarray
    y: float
    neg_x: np.ndarray = field(init=False, repr=False, compare=False)
    zero: np.ndarray = field(init=False, repr=False, compare=False)
    sq_norm: float = field(init=False, repr=False, compare=False)
    abs_x: np.ndarray = field(init=False, repr=False, compare=False)
    abs_max: float = field(init=False, repr=False, compare=False)
    sq_x: np.ndarray = field(init=False, repr=False, compare=False)
    twice_sq_x: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError(f"features must be a 1-d vector, got shape {x.shape}")
        self.__dict__.update(labeled_examples(x[None], (self.y,))[0].__dict__)


# bound here, so a wrapper installed as `losses.LabeledExample` (a tracer, a
# counting test) leaves the batch builder alone
_LabeledExample = LabeledExample


def labeled_examples(X, y):
    """One LabeledExample per row of X with target y[i], in row order, each
    bit for bit LabeledExample(X[i], y[i]). X is copied once into a
    read-only float64 matrix and negated once: an example's x and neg_x are
    rows of those two matrices, and every example shares one read-only zero
    row. The statistics are taken for all rows at once: x.x as stacked
    matmul row dots, which run the per-row x.dot(x) kernel (np.einsum sums in
    another order and differs in the last bit), |X| with its row maxima, and
    X * X and its double."""
    X = _read_only(np.array(X, dtype=np.float64))
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError(f"need a 2-d feature matrix with one target per row, "
                         f"got X of shape {X.shape} and {len(y)} targets")
    neg = _read_only(-X)
    zero = _read_only(np.zeros(X.shape[1]))
    sq_norms = np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0].tolist()
    abs_X = _read_only(np.abs(X))
    abs_maxes = abs_X.max(axis=1, initial=0.0).tolist()
    sq_X = _read_only(X * X)
    twice_sq_X = _read_only(sq_X + sq_X)
    new = object.__new__
    examples = []
    for x, neg_x, target, sq_norm, abs_x, abs_max, sq_x, twice_sq_x in zip(
            X, neg, y, sq_norms, abs_X, abs_maxes, sq_X, twice_sq_X):
        ex = new(_LabeledExample)
        ex.__dict__.update(x=x, y=float(target), neg_x=neg_x, zero=zero, sq_norm=sq_norm,
                           abs_x=abs_x, abs_max=abs_max, sq_x=sq_x, twice_sq_x=twice_sq_x)
        examples.append(ex)
    return examples


def round_input(loss_value, g, ex, shape):
    """One round's input as (float loss, float64 g, g.g), checked before the
    step changes any state: a loss that is negative or not finite, or a
    gradient of another shape than `shape`, raises ValueError. ex, when not
    None, is the example whose oracle produced g: g.g is its cached sq_norm
    when g is its x or neg_x, and 0.0 when g is its zero row (all three
    float64 already); any other g is converted to float64 when it is not one
    already and measured by g.dot(g), which is g @ g without the matmul
    ufunc's overhead. The caller bounds g.g, which is nan or inf for nan or
    inf entries."""
    loss_value = float(loss_value)
    if not 0.0 <= loss_value < math.inf:  # also rejects nan
        raise ValueError(f"loss value must be finite and >= 0, got {loss_value}")
    if ex is not None and (g is ex.x or g is ex.neg_x):
        gg = ex.sq_norm
    elif ex is not None and g is ex.zero:
        gg = 0.0
    else:  # measured once its shape is known
        if type(g) is not np.ndarray or g.dtype is not _F64:
            g = np.asarray(g, dtype=np.float64)
        gg = None
    if g.shape != shape:
        raise ValueError(f"gradient shape {g.shape} != {shape}")
    if gg is None:
        gg = float(g.dot(g))
    return loss_value, g, gg


def hinge_eval_grad(w, ex: LabeledExample):
    """Hinge loss max(0, 1 - y<w,x>) and a subgradient at w.

    At the exact margin (y<w,x> = 1) the zero vector is returned; it is a
    valid subgradient and avoids spurious updates. The subgradient -y x is
    ex.neg_x for y = +1 and ex.x for y = -1: no vector is built. A nan
    prediction raises ValueError.
    """
    if type(w) is not np.ndarray or w.dtype is not _F64:
        w = np.asarray(w, dtype=np.float64)
    x, y = ex.x, ex.y
    if w.shape != x.shape:
        raise ValueError(f"dimension mismatch: w has shape {w.shape}, features {x.shape}")
    if y not in (-1.0, 1.0):
        raise ValueError(f"hinge loss needs targets in {{-1,+1}}, got {y}")
    margin = 1.0 - y * float(w.dot(x))
    if margin > 0.0:
        return margin, ex.neg_x if y > 0.0 else x
    if math.isnan(margin):
        raise ValueError("hinge loss of a nan prediction <w,x>")
    return 0.0, ex.zero


def absolute_eval_grad(w, ex: LabeledExample):
    """Absolute loss |<w,x> - y| and a subgradient at w (sign(0) := 0):
    ex.x, ex.neg_x or ex.zero, never a new vector. A nan residual raises
    ValueError."""
    if type(w) is not np.ndarray or w.dtype is not _F64:
        w = np.asarray(w, dtype=np.float64)
    x = ex.x
    if w.shape != x.shape:
        raise ValueError(f"dimension mismatch: w has shape {w.shape}, features {x.shape}")
    r = float(w.dot(x)) - ex.y
    if r > 0.0:
        return r, x
    if r < 0.0:
        return -r, ex.neg_x
    if math.isnan(r):
        raise ValueError("absolute loss of a nan residual <w,x> - y")
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
