"""Comparison algorithms: tuned gradient-descent family and parameter-free coins.

Every algorithm exposes predict() and step(loss_value, g, ex=None) -> w_next
and consumes exactly one subgradient per round, so the benchmark harness can
drive them all through one loop. String names are registered at the bottom.

step rejects a nan, infinite or negative loss, a gradient of another shape
than the iterate's, and a nan or infinite gradient entry with ValueError
before any state changes. The input check is `losses.round_input`, the one
that the betting learners run: it returns the round's g.g, from the
example's cached sq_norm when g is the example's own x or neg_x, and every
algorithm here bounds it. The coins also raise ValueError, naming the
round, before any state changes when their next state would leave float
range. Like the betting learners, an algorithm never writes into an
iterate it has returned: every update rebinds `w`, so step hands back
`self.w` itself.
"""

import math

import numpy as np

from .learners import CoordinateImplicitCoin, ImplicitCoin
from .losses import round_input

COCOB_ALPHA = 100.0
COCOB_EPS = 1e-8


class Sgd:
    """Subgradient descent with the decaying schedule eta0 / sqrt(k)."""

    def __init__(self, dim, eta0):
        if not 0.0 < eta0 < math.inf:  # also rejects nan
            raise ValueError(f"eta0 must be positive and finite, got {eta0}")
        self.w = np.zeros(int(dim))
        self._shape = self.w.shape
        self.eta0 = float(eta0)
        self.k = 0

    def predict(self):
        return self.w.copy()

    def step(self, loss_value, g, ex=None):
        loss_value, g, gg = round_input(loss_value, g, ex, self._shape)
        if not gg < math.inf:  # nan or inf entries (or a norm past float range)
            raise ValueError(f"gradient must be finite, got g.g = {gg}")
        self.k += 1
        # w - eta 0 has the bits of w; g.g underflows for tiny entries, so a
        # zero g.g alone does not make a zero gradient
        if gg == 0.0 and not np.count_nonzero(g):
            return self.w
        self.w = self.w - self.eta0 / math.sqrt(self.k) * g
        return self.w


class AProx(Sgd):
    """Proximal step on the truncated model: the step length is capped at
    loss / ||g||^2, the exact distance to the model corner, so the iterate
    never crosses it."""

    def step(self, loss_value, g, ex=None):
        loss_value, g, gg = round_input(loss_value, g, ex, self._shape)
        if not gg < math.inf:  # nan or inf entries (or a norm past float range)
            raise ValueError(f"gradient must be finite, got g.g = {gg}")
        self.k += 1
        if gg > 0.0:
            eta = self.eta0 / math.sqrt(self.k)
            cap = loss_value / gg
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
        self._shape = self.w.shape
        self.coin_sum = np.zeros(self.dim)
        self.wealth = 1.0
        self.k = 0
        self.rounds_bet = 0

    def predict(self):
        return self.w.copy()

    def step(self, loss_value, g, ex=None):
        loss_value, g, gg = round_input(loss_value, g, ex, self._shape)
        if not gg < math.inf:  # nan or inf entries (or a norm past float range)
            raise ValueError(f"gradient must be finite, got g.g = {gg}")
        if np.any(g):
            with np.errstate(over="ignore", invalid="ignore"):
                wealth = self.wealth + float(-g @ self.w)
                coin_sum = self.coin_sum - g
                w = coin_sum / (self.rounds_bet + 2) * wealth
            if not np.isfinite(w).all():  # also when the wealth is not finite
                raise ValueError(f"state overflows at round {self.k + 1}")
            self.wealth, self.coin_sum, self.w = wealth, coin_sum, w
            self.rounds_bet += 1
        self.k += 1
        return self.w


class Cocob:
    """Per-coordinate betting with tracked gradient scale, absolute-gradient
    sum and clipped reward (the backprop-style accumulator recipe)."""

    def __init__(self, dim):
        self.dim = int(dim)
        self.w0 = np.zeros(self.dim)
        self.w = np.zeros(self.dim)
        self._shape = self.w.shape
        self.scale = np.full(self.dim, COCOB_EPS)
        self.grad_abs_sum = np.zeros(self.dim)
        self.coin_sum = np.zeros(self.dim)
        self.reward = np.zeros(self.dim)
        self.k = 0

    def predict(self):
        return self.w.copy()

    def step(self, loss_value, g, ex=None):
        loss_value, g, gg = round_input(loss_value, g, ex, self._shape)
        if not gg < math.inf:  # nan or inf entries (or a norm past float range)
            raise ValueError(f"gradient must be finite, got g.g = {gg}")
        ag = np.abs(g)
        scale = np.maximum(self.scale, ag)
        grad_abs_sum = self.grad_abs_sum + ag
        coin_sum = self.coin_sum - g
        with np.errstate(over="ignore", invalid="ignore"):
            reward = np.maximum(self.reward + (self.w - self.w0) * (-g), 0.0)
            fraction = coin_sum / (
                scale * np.maximum(grad_abs_sum + scale, COCOB_ALPHA * scale))
            w = self.w0 + fraction * (scale + reward)
        if not np.isfinite(w).all():  # also where a reward entry is not finite
            raise ValueError(f"state overflows at round {self.k + 1}")
        self.k += 1
        self.scale, self.grad_abs_sum, self.coin_sum, self.reward, self.w = (
            scale, grad_abs_sum, coin_sum, reward, w)
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
