"""Certified reduced-basis toolkit for affine parametric linear systems.

The package builds reduced models by greedy snapshot selection over a
training set, certifies them with residual-based error bounds, and offers
two surrogate-domain strategies that cut the offline sweep cost: one picks
training points whose current error estimates straddle a ladder of levels,
the other ranks points by a pivoted Cholesky factorization of a Gramian of
estimator approximation errors.
"""

__version__ = "0.1.0"

from .affine import (
    AffineProblem,
    ParameterBox,
    TrainingSet,
    assemble_operator,
    sample_training_set,
)
from .bounds import ConstantBound, MinThetaBound
from .counters import Counters
from .errors import (
    BasisRejectionError,
    BoundStrategyError,
    ConfigurationError,
    InvalidParameterError,
    NumericalFailureError,
    RbxError,
    ResourceError,
)
from .greedy import (
    GreedyConfig,
    GreedyTrace,
    IterationRecord,
    OuterLoopRecord,
    argmax_sweep,
    run_greedy,
)
from .harness import (
    ExperimentConfig,
    MethodResult,
    PROBLEMS,
    run_experiment,
    run_methods,
)
from .reduced import (
    ReducedModel,
    ReducedSolution,
    coercivity_lower_bound,
    error_estimate,
    estimate_batch,
    extend_basis,
    reconstruct,
    reduced_output,
    reduced_solve,
    residual_dual_norm_sq,
)
from .surrogate import (
    CdmOfflineData,
    cdm_build_offline,
    cdm_construct,
    pivoted_cholesky,
    smm_construct,
)
from .truth import (
    TruthDiscretization,
    TruthSolution,
    build_diffusion2d,
    build_thermal_block,
    riesz_solve,
    truth_solve,
    x_norm,
)

__all__ = [
    "__version__",
    "AffineProblem",
    "ParameterBox",
    "TrainingSet",
    "assemble_operator",
    "sample_training_set",
    "ConstantBound",
    "MinThetaBound",
    "Counters",
    "RbxError",
    "InvalidParameterError",
    "ConfigurationError",
    "ResourceError",
    "NumericalFailureError",
    "BasisRejectionError",
    "BoundStrategyError",
    "GreedyConfig",
    "GreedyTrace",
    "IterationRecord",
    "OuterLoopRecord",
    "argmax_sweep",
    "run_greedy",
    "ExperimentConfig",
    "PROBLEMS",
    "run_experiment",
    "run_methods",
    "MethodResult",
    "ReducedModel",
    "ReducedSolution",
    "coercivity_lower_bound",
    "error_estimate",
    "estimate_batch",
    "extend_basis",
    "reconstruct",
    "reduced_output",
    "reduced_solve",
    "residual_dual_norm_sq",
    "CdmOfflineData",
    "cdm_build_offline",
    "cdm_construct",
    "pivoted_cholesky",
    "smm_construct",
    "TruthDiscretization",
    "TruthSolution",
    "build_diffusion2d",
    "build_thermal_block",
    "riesz_solve",
    "truth_solve",
    "x_norm",
]
