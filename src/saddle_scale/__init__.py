"""Scaled extragradient methods for stochastic saddle-point problems.

Diagonally preconditioned first-order methods for min-max optimization:
extragradient, a single-call variant with negative momentum, and plain
descent-ascent, each running under Adam/RMSProp/Hutchinson/OASIS-style
diagonal scalings with entrywise clipping.  Ships synthetic problem
families with known solutions, convergence metrics, a desk-scale
verification suite, and a benchmark CLI (``saddle-scale``).
"""

from .errors import (
    CapabilityError,
    ConfigError,
    DimensionMismatchError,
    DivergenceError,
    InvalidParameterError,
    NonFiniteError,
    NoUniqueSolutionError,
    PreconditionError,
    SaddleScaleError,
)
from .metrics import (
    ContractionReport,
    RunRecord,
    check_scalar_inequality,
    contraction_check,
    fit_rate,
    gap_restricted,
    noise_floor,
    weighted_dist_sq,
)
from .optim import (
    AVERAGING,
    METHODS,
    OptimizerConfig,
    RunStreams,
    Trajectory,
    resolve_gamma,
    run,
    step_extragrad,
    step_sgda,
    step_single_call,
    warm_start_single_call,
)
from .precond import (
    CLIP_VARIANTS,
    PRESET_NAMES,
    RULES,
    SCHEDULES,
    SOURCES,
    ScalingState,
    advance,
    beta_t,
    curvature_grad_square,
    curvature_hutchinson,
    gamma_bound,
    growth_constant,
    growth_factor,
    hutchinson_probe,
    scaling_preset,
    update,
)
from .problems import (
    KINDS,
    PointPair,
    SaddleProblem,
    field,
    gradient,
    make_bilinear,
    make_minty,
    make_quadratic,
    quadratic_from_matrices,
    solve_exact,
    verify_minty,
)
from .verify import CheckResult, run_all, run_check

__version__ = "0.1.0"

__all__ = [
    "AVERAGING", "CLIP_VARIANTS", "CapabilityError", "CheckResult",
    "ConfigError", "ContractionReport", "DimensionMismatchError",
    "DivergenceError", "InvalidParameterError", "KINDS", "METHODS",
    "NoUniqueSolutionError", "NonFiniteError", "OptimizerConfig",
    "PRESET_NAMES", "PointPair", "PreconditionError", "RULES", "RunRecord",
    "RunStreams", "SCHEDULES", "SOURCES", "SaddleProblem", "SaddleScaleError",
    "ScalingState", "Trajectory", "advance", "beta_t",
    "check_scalar_inequality", "contraction_check", "curvature_grad_square",
    "curvature_hutchinson", "field", "fit_rate", "gamma_bound",
    "gap_restricted", "gradient", "growth_constant", "growth_factor",
    "hutchinson_probe", "make_bilinear", "make_minty", "make_quadratic",
    "noise_floor", "quadratic_from_matrices", "resolve_gamma", "run",
    "run_all", "run_check", "scaling_preset", "solve_exact", "step_extragrad",
    "step_sgda", "step_single_call", "update", "verify_minty",
    "warm_start_single_call", "weighted_dist_sq",
]
