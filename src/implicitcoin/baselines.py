"""Comparison algorithms: tuned gradient-descent family and parameter-free coins.

Every algorithm exposes predict() and step(loss_value, g, ex=None) -> w_next
and consumes exactly one subgradient per round, so the benchmark harness can
drive them all through one loop. String names are registered at the bottom.

step rejects a nan, infinite or negative loss and a nan or infinite gradient
entry with ValueError before any state changes. A round checks its input
from one g.g: the example's cached sq_norm when g is the example's own x or
neg_x, none at all when g is its zero row (a zero round), else g.dot(g),
which is g @ g without the matmul ufunc's overhead on short vectors. Like
the betting learners, an algorithm never writes into an iterate it has
returned: every update rebinds `w`, so step hands back `self.w` itself, and
Sgd and AProx convert g with np.asarray only when it is not already a
float64 ndarray.
"""

import math

import numpy as np

from .learners import CoordinateImplicitCoin, ImplicitCoin

_F64 = np.dtype(np.float64)

COCOB_ALPHA = 100.0
COCOB_EPS = 1e-8


def _checked(loss_value, g, ex):
    """The round's gradient as a float array, after rejecting a
    nan/inf/negative loss and nan/inf gradient entries. Sgd and AProx, the
    tuned kinds' hot path, inline the same checks."""
    if not 0.0 <= loss_value < math.inf:  # also rejects nan
        raise ValueError(f"loss value must be finite and >= 0, got {loss_value}")
    g = np.asarray(g, dtype=np.float64)
    if ex is not None and (g is ex.x or g is ex.neg_x):
        gg = ex.sq_norm
    elif ex is not None and g is ex.zero:
        return g
    else:
        gg = float(g.dot(g))
    if not gg < math.inf:  # nan or inf entries (or a norm past float range)
        raise ValueError(f"gradient must be finite, got g.g = {gg}")
    return g


class Sgd:
    """Subgradient descent with the decaying schedule eta0 / sqrt(k)."""

    def __init__(self, dim, eta0):
        if eta0 <= 0:
            raise ValueError(f"eta0 must be positive, got {eta0}")
        self.w = np.zeros(int(dim))
        self.eta0 = float(eta0)
        self.k = 0

    def predict(self):
        return self.w.copy()

    def step(self, loss_value, g, ex=None):
        if not 0.0 <= loss_value < math.inf:  # also rejects nan
            raise ValueError(f"loss value must be finite and >= 0, got {loss_value}")
        if ex is not None and (g is ex.x or g is ex.neg_x):
            gg = ex.sq_norm
        elif ex is not None and g is ex.zero:  # w - eta 0 has the bits of w
            self.k += 1
            return self.w
        else:
            if type(g) is not np.ndarray or g.dtype is not _F64:
                g = np.asarray(g, dtype=np.float64)
            gg = float(g.dot(g))
        if not gg < math.inf:  # nan or inf entries (or a norm past float range)
            raise ValueError(f"gradient must be finite, got g.g = {gg}")
        self.k += 1
        self.w = self.w - self.eta0 / math.sqrt(self.k) * g
        return self.w


class AProx(Sgd):
    """Proximal step on the truncated model: the step length is capped at
    loss / ||g||^2, the exact distance to the model corner, so the iterate
    never crosses it."""

    def step(self, loss_value, g, ex=None):
        if not 0.0 <= loss_value < math.inf:  # also rejects nan
            raise ValueError(f"loss value must be finite and >= 0, got {loss_value}")
        if ex is not None and (g is ex.x or g is ex.neg_x):
            gg = ex.sq_norm
        elif ex is not None and g is ex.zero:
            gg = 0.0
        else:
            if type(g) is not np.ndarray or g.dtype is not _F64:
                g = np.asarray(g, dtype=np.float64)
            gg = float(g.dot(g))
        if not gg < math.inf:  # nan or inf entries (or a norm past float range)
            raise ValueError(f"gradient must be finite, got g.g = {gg}")
        self.k += 1
        if gg > 0.0:
            eta = self.eta0 / math.sqrt(self.k)
            cap = float(loss_value) / gg
            self.w = self.w - (cap if cap < eta else eta) * g
        return self.w


class ImportanceAwareSgd(AProx):
    """Importance-aware update (Karampatziakis & Langford 2011) at unit
    importance weight, for the hinge and absolute losses.

    Sliding the predictor along -g, both losses stay linear until the point
    where they vanish, so the integrated update stops exactly there: the
    AProx step capped at loss / ||g||^2 (Asi & Duchi 2019). The class keeps
    its own step so that per-class wrappers see iwa rounds apart from aprox
    rounds.
    """

    step = AProx.step


class KtCoin:
    """Coin betting with the classic sequential-probability betting fraction:
    bet (sum of past coins) / (rounds + 1) times the current wealth.

    Zero coins carry no information and would still shrink the fraction
    through the round count, so only betting rounds feed the divisor; that
    keeps g = 0 a true no-op.
    """

    def __init__(self, dim):
        self.dim = int(dim)
        self.w = np.zeros(self.dim)
        self.coin_sum = np.zeros(self.dim)
        self.wealth = 1.0
        self.k = 0
        self.rounds_bet = 0

    def predict(self):
        return self.w.copy()

    def step(self, loss_value, g, ex=None):
        g = _checked(loss_value, g, ex)
        self.k += 1
        if not np.any(g):
            return self.w
        self.wealth += float(-g @ self.w)
        self.coin_sum -= g
        self.rounds_bet += 1
        self.w = self.coin_sum / (self.rounds_bet + 1) * self.wealth
        return self.w


class Cocob:
    """Per-coordinate betting with tracked gradient scale, absolute-gradient
    sum and clipped reward (the backprop-style accumulator recipe)."""

    def __init__(self, dim):
        self.dim = int(dim)
        self.w0 = np.zeros(self.dim)
        self.w = np.zeros(self.dim)
        self.scale = np.full(self.dim, COCOB_EPS)
        self.grad_abs_sum = np.zeros(self.dim)
        self.coin_sum = np.zeros(self.dim)
        self.reward = np.zeros(self.dim)
        self.k = 0

    def predict(self):
        return self.w.copy()

    def step(self, loss_value, g, ex=None):
        g = _checked(loss_value, g, ex)
        self.k += 1
        ag = np.abs(g)
        self.scale = np.maximum(self.scale, ag)
        self.grad_abs_sum += ag
        self.coin_sum -= g
        self.reward = np.maximum(self.reward + (self.w - self.w0) * (-g), 0.0)
        fraction = self.coin_sum / (
            self.scale * np.maximum(self.grad_abs_sum + self.scale,
                                    COCOB_ALPHA * self.scale))
        self.w = self.w0 + fraction * (self.scale + self.reward)
        return self.w


PARAMETER_FREE = frozenset({"coin", "cocob", "implicit-coin", "cw-implicit-coin"})
ALGORITHMS = ("sgd", "aprox", "iwa", "coin", "cocob", "implicit-coin",
              "cw-implicit-coin")


def is_parameter_free(name):
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}")
    return name in PARAMETER_FREE


def make_algorithm(name, dim, eta0=None, trace_cb=None):
    """Instantiate a registered algorithm.

    Tuned kinds require eta0; parameter-free kinds reject one. trace_cb is
    honored by the truncated-model learners only.
    """
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}")
    if name in PARAMETER_FREE:
        if eta0 is not None:
            raise ValueError(f"{name} is parameter-free and rejects eta0")
    elif eta0 is None:
        raise ValueError(f"{name} needs eta0")

    if name == "sgd":
        return Sgd(dim, eta0)
    if name == "aprox":
        return AProx(dim, eta0)
    if name == "iwa":
        return ImportanceAwareSgd(dim, eta0)
    if name == "coin":
        return KtCoin(dim)
    if name == "cocob":
        return Cocob(dim)
    if name == "implicit-coin":
        return ImplicitCoin(dim, trace_cb=trace_cb)
    return CoordinateImplicitCoin(dim, trace_cb=trace_cb)
