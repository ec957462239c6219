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
    contraction_check,
    fit_rate,
    gap_restricted,
    noise_floor,
)
from .optim import (
    METHODS,
    OptimizerConfig,
    Trajectory,
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
    beta_t,
    curvature_hutchinson,
    gamma_bound,
    growth_constant,
    scaling_preset,
)
from .problems import (
    KINDS,
    PointPair,
    SaddleProblem,
    make_bilinear,
    make_minty,
    make_quadratic,
    quadratic_from_matrices,
)
from .verify import CheckResult, run_all, run_check

__version__ = "0.1.0"


__all__ = [
    "CLIP_VARIANTS", "CapabilityError", "CheckResult", "ConfigError",
    "ContractionReport", "DimensionMismatchError", "DivergenceError",
    "InvalidParameterError", "KINDS", "METHODS", "NoUniqueSolutionError",
    "NonFiniteError", "OptimizerConfig", "PRESET_NAMES", "PointPair",
    "PreconditionError", "RULES", "RunRecord", "SCHEDULES", "SOURCES",
    "SaddleProblem", "SaddleScaleError", "ScalingState", "Trajectory",
    "beta_t", "contraction_check", "curvature_hutchinson", "fit_rate",
    "gamma_bound", "gap_restricted", "growth_constant", "make_bilinear",
    "make_minty", "make_quadratic", "noise_floor", "quadratic_from_matrices",
    "run", "run_all", "run_check", "scaling_preset", "step_extragrad",
    "step_sgda", "step_single_call", "warm_start_single_call",
]
