"""Convergence measures and bound audits for saddle-point runs.

Includes the scaled squared distance R^2 = ||z - z*||^2 weighted by the
clipped diagonal, a restricted duality gap over origin-centered balls (with
a certified trust-region inner solver for quadratics), a per-step
contraction audit for deterministic strongly-monotone runs, log-slope rate
fitting, and the scalar inequality (1 - 1/T)^sqrt(T) <= 1 - 1/(2 sqrt(T)).
"""

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import problems as P
from .errors import (
    CapabilityError,
    DimensionMismatchError,
    InvalidParameterError,
    PreconditionError,
)
from .precond import beta_series, gamma_bound, growth_constant

FIT_FLOOR = 1e-300


@dataclass
class RunRecord:
    """Per-iteration metrics for the pre-step iterate z_t, measured with the
    scaling that the step from z_t used.  grad_calls is cumulative through
    the end of iteration t."""

    t: int
    r2_weighted: float
    dist2: float
    grad_norm2: float
    dhat_min: float
    dhat_max: float
    grad_calls: int


RECORD_FIELDS = tuple(f.name for f in fields(RunRecord))


def _row(v):
    return RunRecord(int(v[0]), v[1], v[2], v[3], v[4], v[5], int(v[6]))


def _column(k):
    return property(lambda self: self.block[:, k],
                    doc=f"the {RECORD_FIELDS[k]} column as a read-only array")


class Records:
    """Read-only view of a run's records: an (n, 7) float64 block whose
    columns are RECORD_FIELDS.

    It lengths, indexes and iterates as ``RunRecord`` rows (``t`` and
    ``grad_calls`` as int, the rest as float); a slice is again a
    ``Records``; each field name gives its column as an array.
    """

    __slots__ = ("block",)

    t = _column(0)
    r2_weighted = _column(1)
    dist2 = _column(2)
    grad_norm2 = _column(3)
    dhat_min = _column(4)
    dhat_max = _column(5)
    grad_calls = _column(6)

    def __init__(self, block):
        self.block = P._freeze(block.view())

    def __len__(self):
        return self.block.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Records(self.block[i])
        return _row(self.block[i].tolist())

    def __iter__(self):
        return map(_row, self.block.tolist())

    def __repr__(self):
        return f"Records(n={len(self)})"


def weighted_dist_sq(z, z_star, scaling):
    """sum_i clipped_i * (z_i - z*_i)^2 over the concatenated coordinates
    of the vectors ``z`` and ``z_star``."""
    if z_star is None:
        raise InvalidParameterError("weighted distance needs a known z_star")
    if z.shape != z_star.shape:
        raise DimensionMismatchError("z and z_star lengths differ")
    dz = z - z_star
    return float(np.dot(scaling.clipped * dz, dz))


def noise_floor(records):
    """Plateau estimate: median r2_weighted over the trailing fifth of
    ``records`` (a ``Records`` view), at least one record."""
    if not len(records):
        raise InvalidParameterError("noise_floor needs a non-empty record list")
    k = max(1, math.ceil(0.2 * len(records)))
    return float(np.median(records.r2_weighted[-k:]))


# ---------------------------------------------------------------------------
# restricted gap


def _ball_extremum(M, r, omega):
    """max of r'u - u'Mu/2 over ||u|| <= omega for symmetric M > 0.

    Interior optimum u = M^{-1} r when it fits; otherwise the boundary
    solution u(lam) = (M + lam I)^{-1} r with ||u(lam)|| = omega (M > 0
    rules out the degenerate case).  ||u(lam)|| falls strictly in lam, so
    lam is bisected until no double lies strictly inside its bracket, and
    u is taken at the upper end, where ||u|| <= omega up to rounding.
    Returns the optimizer u.
    """
    w, Q = np.linalg.eigh(M)
    c = Q.T @ r

    def norm_at(lam):
        return float(np.sqrt(np.sum((c / (w + lam)) ** 2)))

    if norm_at(0.0) <= omega:
        return Q @ (c / w)
    lo, hi = 0.0, float(np.linalg.norm(r)) / omega  # ||u(hi)|| <= ||r||/hi
    mid = 0.5 * hi
    while lo < mid < hi:
        if norm_at(mid) > omega:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return Q @ (c / (w + hi))


def _quad_value(p, x, y):
    return float(0.5 * x @ (p.A @ x) + x @ (p.B @ y) - 0.5 * y @ (p.C @ y)
                 + p.a @ x - p.c @ y)


def gap_restricted(problem, z_avg, omega):
    """max_{||y'|| <= omega} f(x_avg, y') - min_{||x'|| <= omega} f(x', y_avg).

    Balls are centered at the origin and must contain the solution for the
    measure to certify convergence.  Bilinear couplings have the closed form
    omega * (||B' x_avg|| + ||B y_avg||); quadratics use the trust-region
    solver above.  Other kinds have no certified inner solver.
    """
    if not omega > 0:
        raise InvalidParameterError("omega must be positive")
    if problem.kind == "minty-example":
        raise CapabilityError("no certified inner solver for this kind")
    if problem.z_star is None:
        raise PreconditionError("restricted gap needs a known z_star")
    zs = problem.z_star
    if (np.linalg.norm(zs.x) > omega + 1e-12
            or np.linalg.norm(zs.y) > omega + 1e-12):
        raise PreconditionError(
            "solution lies outside the restriction balls; increase omega")
    if problem.kind == "bilinear":
        return float(omega * (np.linalg.norm(problem.BT @ z_avg.x)
                              + np.linalg.norm(problem.B @ z_avg.y)))
    # quadratic: inner problems are strictly concave/convex on the ball
    y_best = _ball_extremum(problem.C, problem.BT @ z_avg.x - problem.c, omega)
    x_best = -_ball_extremum(problem.A, problem.B @ z_avg.y + problem.a, omega)
    return _quad_value(problem, z_avg.x, y_best) - _quad_value(
        problem, x_best, z_avg.y)


# ---------------------------------------------------------------------------
# per-step contraction audit


@dataclass
class ContractionReport:
    passed: bool
    checked: int
    first_violation: tuple | None  # (t, lhs, rhs)
    factor_min: float
    factor_max: float


def contraction_check(traj, problem, config):
    """Audit R^2_{t+1} <= (1 - gamma*mu/Gamma + (1 - beta_{t+1}) C) R^2_t
    per recorded step of a deterministic strongly-monotone extragradient run
    (tolerance 1e-10 * R^2_0) under ``config.scaling`` (the identity scaling
    when the config names none).

    Gamma is gamma_bound's sqrt(d) L for Hutchinson scalings; for
    gradient-square scalings the run-observed maximum of the clipped
    diagonal (at least floor_e) is itself a valid weighting bound.
    """
    scaling = config.scaling
    if config.method != "extragrad":
        raise PreconditionError("contraction audit covers extragrad runs only")
    if not problem.mu > 0:
        raise PreconditionError("contraction audit needs a strongly "
                                "monotone problem (mu > 0)")
    if problem.sigma != 0:
        raise PreconditionError("contraction audit needs a noise-free run")
    if scaling.update_prob != 1.0:
        raise PreconditionError("contraction audit needs update_prob = 1")
    if config.gamma is None:
        raise InvalidParameterError("contraction audit needs an explicit gamma")
    records = traj.records
    if scaling.source == "hutchinson":
        cap = gamma_bound("hutchinson", problem)
    elif len(records):
        cap = max(scaling.floor_e, float(records.dhat_max.max()))
    else:
        cap = scaling.floor_e
    gamma = config.gamma
    if gamma > scaling.floor_e / (4.0 * problem.L) * (1 + 1e-12):
        raise PreconditionError("step size exceeds floor_e / (4 L)")

    growth_c = growth_constant(scaling, cap)
    n = len(records)
    if n < 2:
        return ContractionReport(True, 0, None, math.nan, math.nan)
    r2 = records.r2_weighted
    tol = 1e-10 * r2[0]
    b_next = beta_series(scaling.schedule, scaling.beta, 1, n)
    factors = (1.0 - gamma * problem.mu / cap) + (1.0 - b_next) * growth_c
    lhs = r2[1:]
    rhs = factors * r2[:-1] + tol
    bad = np.flatnonzero(lhs > rhs)
    first = None
    if bad.size:
        k = int(bad[0])
        first = (k, float(lhs[k]), float(rhs[k]))
    return ContractionReport(
        passed=first is None, checked=n - 1, first_violation=first,
        factor_min=float(factors.min()), factor_max=float(factors.max()),
    )


# ---------------------------------------------------------------------------
# rate fitting and the scalar inequality


def fit_rate(series, ts=None, mode="linear", burn_in=0.1):
    """Least-squares slope of log(series) against t (``linear``) or against
    log(t) (``loglog``), discarding a leading burn-in fraction.

    Non-positive or sub-1e-300 entries are floored there and flagged with a
    warning so geometric fits on noisy tails stay finite.
    """
    if mode not in ("linear", "loglog"):
        raise InvalidParameterError(f"unknown fit mode {mode!r}")
    vals = np.asarray(series, dtype=np.float64)
    if vals.ndim != 1 or vals.shape[0] < 2:
        raise InvalidParameterError("need at least two values to fit")
    if ts is None:
        xs = np.arange(vals.shape[0], dtype=np.float64)
    else:
        xs = np.asarray(ts, dtype=np.float64)
        if xs.shape != vals.shape:
            raise InvalidParameterError("ts and series lengths differ")
    if mode == "loglog":
        if np.any(xs <= 0):
            raise InvalidParameterError("loglog mode needs positive ts")
        xs = np.log(xs)
    if np.any(vals < FIT_FLOOR):
        warnings.warn("flooring non-positive/tiny values before log fit",
                      RuntimeWarning, stacklevel=2)
        vals = np.maximum(vals, FIT_FLOOR)
    skip = int(burn_in * vals.shape[0])
    xs, vals = xs[skip:], vals[skip:]
    if vals.shape[0] < 2:
        raise InvalidParameterError("burn-in leaves fewer than two points")
    slope = np.polyfit(xs, np.log(vals), 1)[0]
    return float(slope)


def check_scalar_inequality(T):
    """(1 - 1/T)^sqrt(T) <= 1 - 1/(2 sqrt(T)), in double precision."""
    if T < 1:
        raise InvalidParameterError("T must be at least 1")
    root = math.sqrt(T)
    lhs = (1.0 - 1.0 / T) ** root
    rhs = 1.0 - 1.0 / (2.0 * root)
    return lhs <= rhs + 1e-15
