"""Certified reduced-basis toolkit for affine parametric linear systems.

The package builds reduced models by greedy snapshot selection over a
training set, certifies them with residual-based error bounds, and offers
two surrogate-domain strategies that cut the offline sweep cost: one picks
training points whose current error estimates straddle a ladder of levels,
the other ranks points by a pivoted Cholesky factorization of a Gramian of
estimator approximation errors.
"""

__version__ = "0.1.0"

from .affine import AffineProblem, ParameterBox, sample_training_set
from .bounds import ConstantBound, MinThetaBound
from .errors import (
    BasisRejectionError,
    BoundStrategyError,
    ConfigurationError,
    InvalidParameterError,
    NumericalFailureError,
    RbxError,
    ResourceError,
)
from .greedy import GreedyConfig, run_greedy
from .harness import PROBLEMS, ExperimentConfig, run_experiment, run_methods
from .reduced import (
    error_estimate,
    estimate_batch,
    reconstruct,
    reduced_output,
    reduced_solve,
)
from .truth import (
    TruthDiscretization,
    TruthSolution,
    build_diffusion2d,
    build_thermal_block,
    truth_solve,
    x_norm,
)

__all__ = [
    "__version__",
    "AffineProblem",
    "ParameterBox",
    "sample_training_set",
    "ConstantBound",
    "MinThetaBound",
    "RbxError",
    "InvalidParameterError",
    "ConfigurationError",
    "ResourceError",
    "NumericalFailureError",
    "BasisRejectionError",
    "BoundStrategyError",
    "GreedyConfig",
    "run_greedy",
    "ExperimentConfig",
    "PROBLEMS",
    "run_experiment",
    "run_methods",
    "error_estimate",
    "estimate_batch",
    "reconstruct",
    "reduced_output",
    "reduced_solve",
    "TruthDiscretization",
    "TruthSolution",
    "build_diffusion2d",
    "build_thermal_block",
    "truth_solve",
    "x_norm",
]
