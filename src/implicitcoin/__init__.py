"""Parameter-free online convex optimization with truncated linear models."""

__version__ = "0.1.0"  # first, so that submodules can import it

from .baselines import ALGORITHMS, is_parameter_free, make_algorithm
from .learners import (CoordinateImplicitCoin, ImplicitCoin,
                       ProjectedImplicitCoin, StepTrace)
from .losses import LabeledExample, absolute_eval_grad, hinge_eval_grad
from .truncated import SubgradientPair, TruncatedModel, linear_residual, make_pair, model_eval

__all__ = [
    "ALGORITHMS",
    "CoordinateImplicitCoin",
    "ImplicitCoin",
    "LabeledExample",
    "ProjectedImplicitCoin",
    "StepTrace",
    "SubgradientPair",
    "TruncatedModel",
    "absolute_eval_grad",
    "hinge_eval_grad",
    "is_parameter_free",
    "linear_residual",
    "make_algorithm",
    "make_pair",
    "model_eval",
]
