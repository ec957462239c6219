"""Optimizer loops for stochastic saddle-point problems.

Three methods over a shared scaled-step core:

* extragrad — per iteration: draw a batch, take the gradient, refresh the
  diagonal scaling from that same batch, extrapolate, take a second gradient
  at the extrapolated point, and step from the original iterate with the
  same scaling.  Two oracle calls per iteration.
* single-call-momentum — reuses the previous iteration's gradient for the
  extrapolation (one fresh call per iteration) and adds a negative-momentum
  pull eta * Dhat^{-1} (w - z) toward an anchor w refreshed to the previous
  iterate with probability anchor_prob.
* sgda — plain scaled descent-ascent, one call; diverges on bilinear games
  and serves as the cautionary baseline.

All randomness flows through named streams (noise, rademacher, anchor,
precond-skip, init) spawned from the run seed, so toggling one feature
never shifts another's draws.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DivergenceError,
    InvalidParameterError,
    NonFiniteError,
)
from .metrics import RunRecord, weighted_dist_sq
from .precond import ScalingState, advance, curvature_for, scaling_preset
from .problems import FieldValue, OracleSample, PointPair, field_into, gradient

METHODS = ("extragrad", "single-call-momentum", "sgda")
AVERAGING = ("none", "uniform", "ema")

DIVERGENCE_RADIUS = 1e12
STREAM_CHUNK = 1000


@dataclass(frozen=True)
class RunStreams:
    """Named RNG streams; see module docstring for isolation rationale."""

    noise: np.random.Generator
    rademacher: np.random.Generator
    anchor: np.random.Generator
    precond_skip: np.random.Generator
    init: np.random.Generator

    @staticmethod
    def from_seed(seed):
        kids = np.random.SeedSequence(seed).spawn(5)
        gens = [np.random.default_rng(k) for k in kids]
        return RunStreams(*gens)


@dataclass(frozen=True)
class SingleCallCache:
    """Previous half-iterate, its gradient, and the batch that produced it
    (the batch also feeds the next preconditioner refresh)."""

    z_half_prev: PointPair
    g_prev: FieldValue
    sample_prev: OracleSample


@dataclass
class ScalingTraceEntry:
    fired: bool
    clipped_x: np.ndarray
    clipped_y: np.ndarray


@dataclass(frozen=True)
class OptimizerConfig:
    method: str
    T: int
    seed: int
    scaling: ScalingState | None = None
    gamma: float | None = None
    eta: float = 0.0
    anchor_prob: float = 0.25
    batch: int = 1
    averaging: str = "uniform"
    ema_lambda: float = 0.999
    theory_safe: bool = False
    z0: PointPair | None = None
    trace_scaling: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidParameterError(f"unknown method {self.method!r}")
        if self.T < 0:
            raise InvalidParameterError("T must be non-negative")
        if self.gamma is not None and not self.gamma > 0:
            raise InvalidParameterError("gamma must be positive")
        if self.eta < 0:
            raise InvalidParameterError("eta must be non-negative")
        if not 0.0 < self.anchor_prob <= 1.0:
            raise InvalidParameterError("anchor_prob must lie in (0, 1]")
        if self.batch < 1:
            raise InvalidParameterError("batch must be a positive integer")
        if self.averaging not in AVERAGING:
            raise InvalidParameterError(f"unknown averaging {self.averaging!r}")
        if not 0.0 <= self.ema_lambda < 1.0:
            raise InvalidParameterError("ema_lambda must lie in [0, 1)")


@dataclass
class Trajectory:
    """Run output: per-iteration records for the pre-step iterates, the
    half-step iterates (rows of half_z), and exact oracle counters."""

    records: list
    half_z: np.ndarray
    final_z: PointPair
    final_avg_uniform: PointPair
    final_avg_ema: PointPair
    grad_calls: int
    hvp_calls: int
    d_x: int
    config: OptimizerConfig | None = None
    scaling_trace: list | None = None


# ---------------------------------------------------------------------------
# parameter resolution and theory gates


def _template(config):
    return config.scaling if config.scaling is not None else scaling_preset(
        "identity", 1, 1)


def resolve_gamma(problem, config):
    """Explicit step size, or the most conservative theoretical default
    floor_e / (10 L) when the config leaves gamma unset."""
    if config.gamma is not None:
        return float(config.gamma)
    return _template(config).floor_e / (10.0 * problem.L)


def _check_theory_gates(problem, config, gamma):
    e = _template(config).floor_e
    L = problem.L
    if config.method == "single-call-momentum":
        cap = e / (10.0 * L)
        if gamma > cap:
            raise InvalidParameterError(
                f"theory-safe single-call needs gamma <= floor_e/(10 L) = {cap:g}")
        if config.anchor_prob > 0.25:
            raise InvalidParameterError(
                "theory-safe single-call needs anchor_prob <= 1/4")
        if config.eta > e * config.anchor_prob:
            raise InvalidParameterError(
                "theory-safe single-call needs eta <= floor_e * anchor_prob")
        return
    if config.method == "extragrad":
        if problem.mu > 0:
            cap, case = e / (4.0 * L), "strongly monotone"
        elif problem.kind == "minty-example":
            cap, case = e / (3.0 * L), "non-monotone"
        else:
            cap, case = e / (2.0 * L), "monotone"
        if gamma > cap:
            raise InvalidParameterError(
                f"theory-safe {case} extragrad needs gamma <= {cap:g}")


# ---------------------------------------------------------------------------
# single steps


def _sample(streams, batch):
    return OracleSample(seed=int(streams.noise.integers(2**63)), batch=batch)


def _clipped_cat(scaling):
    return np.concatenate([scaling.clipped_x, scaling.clipped_y])


def _pair(problem, vec):
    return PointPair._owned(vec, problem.d_x)


def step_extragrad(problem, z, scaling, gamma, streams, batch=1):
    """One extragradient iteration; returns (z_next, z_half, scaling_next).

    One scaling refresh per iteration from the extrapolation batch; the same
    clipped diagonal divides both half-steps.  Exactly two gradient calls.
    """
    s_t = _sample(streams, batch)
    g_t = gradient(problem, z, s_t)
    scaling = advance(
        scaling, streams.precond_skip,
        lambda: curvature_for(scaling, problem, z, g_t, s_t, streams.rademacher))
    clipped = _clipped_cat(scaling)
    z_vec = z.as_vector()
    z_half = _pair(problem, z_vec - gamma * (g_t.as_vector() / clipped))
    g_half = gradient(problem, z_half, _sample(streams, batch))
    z_next = _pair(problem, z_vec - gamma * (g_half.as_vector() / clipped))
    return z_next, z_half, scaling


def warm_start_single_call(problem, z0, streams, batch=1):
    """Initial cache: gradient at z0 stands in for the half-step history."""
    s0 = _sample(streams, batch)
    return SingleCallCache(z_half_prev=z0, g_prev=gradient(problem, z0, s0),
                           sample_prev=s0)


def step_single_call(problem, z, w, cache, scaling, gamma, eta, anchor_prob,
                     streams, batch=1):
    """One single-call iteration with negative momentum toward anchor w.

    Returns (z_next, z_half, w_next, cache_next, scaling_next); exactly one
    fresh gradient call.  The scaling refresh reuses the cached batch, so a
    skipped refresh costs nothing.
    """
    scaling = advance(
        scaling, streams.precond_skip,
        lambda: curvature_for(scaling, problem, cache.z_half_prev,
                              cache.g_prev, cache.sample_prev,
                              streams.rademacher))
    clipped = _clipped_cat(scaling)
    z_vec = z.as_vector()
    z_half = _pair(problem,
                   z_vec - gamma * (cache.g_prev.as_vector() / clipped))
    s_half = _sample(streams, batch)
    g_half = gradient(problem, z_half, s_half)
    g_vec = g_half.as_vector()
    if eta != 0.0:
        pull = (w.as_vector() - z_vec) / clipped
        z_next = _pair(problem, z_vec + eta * pull - gamma * (g_vec / clipped))
    else:
        z_next = _pair(problem, z_vec - gamma * (g_vec / clipped))
    if anchor_prob >= 1.0 or streams.anchor.random() < anchor_prob:
        w_next = z
    else:
        w_next = w
    return (z_next, z_half, w_next,
            SingleCallCache(z_half, g_half, s_half), scaling)


def step_sgda(problem, z, scaling, gamma, streams, batch=1):
    """One scaled descent-ascent step; returns (z_next, scaling_next)."""
    s_t = _sample(streams, batch)
    g_t = gradient(problem, z, s_t)
    scaling = advance(
        scaling, streams.precond_skip,
        lambda: curvature_for(scaling, problem, z, g_t, s_t, streams.rademacher))
    z_next = _pair(problem, z.as_vector()
                   - gamma * (g_t.as_vector() / _clipped_cat(scaling)))
    return z_next, scaling


# ---------------------------------------------------------------------------
# full runs


def run(problem, config, on_records=None):
    """Execute config.T iterations; returns a Trajectory.

    records[t] describes the pre-step iterate z_t under the scaling used by
    the step out of z_t; final_z is z_T.  With T = 0 nothing moves and both
    averages fall back to z_0.  ``on_records`` receives completed records in
    chunks of 1000 (then the remainder), so aborted runs keep their prefix.

    Raises DivergenceError (with the partial trajectory attached) once the
    iterate norm passes DIVERGENCE_RADIUS or turns non-finite.
    """
    gamma = resolve_gamma(problem, config)
    if config.theory_safe:
        _check_theory_gates(problem, config, gamma)
    if problem.z_star is None:
        raise InvalidParameterError("run needs a problem with a known z_star")
    dx, dy = problem.d_x, problem.d_y
    streams = RunStreams.from_seed(config.seed)
    if config.z0 is not None:
        if config.z0.d_x != dx or config.z0.d_y != dy:
            raise DimensionMismatchError("z0 does not match problem dims")
        z = config.z0
    else:
        z = PointPair(streams.init.standard_normal(dx),
                      streams.init.standard_normal(dy))
    z0 = z
    scaling = (config.scaling if config.scaling is not None
               else scaling_preset("identity", dx, dy)).spawn(dx, dy)
    z_star_vec = problem.z_star.as_vector()
    T = config.T

    records = []
    pending = []
    half_z = np.empty((T, dx + dy))
    trace = [] if config.trace_scaling else None
    sum_half = np.zeros(dx + dy)
    ema_acc = None
    lam = config.ema_lambda
    grad_calls = 0
    hvp_calls = 0
    gbuf = np.empty(dx + dy)

    w = z
    cache = None
    if config.method == "single-call-momentum":
        cache = warm_start_single_call(problem, z, streams, config.batch)
        grad_calls += 1

    def emit(chunk):
        if on_records is not None and chunk:
            on_records(chunk)

    def snapshot(final_z):
        n = len(records)
        if n > 0:
            avg_u = _pair(problem, sum_half / n)
            avg_e = _pair(problem, ema_acc)
        else:
            avg_u = avg_e = z0
        return Trajectory(
            records=records, half_z=half_z[:n], final_z=final_z,
            final_avg_uniform=avg_u, final_avg_ema=avg_e,
            grad_calls=grad_calls, hvp_calls=hvp_calls, d_x=dx,
            config=config, scaling_trace=trace)

    for t in range(T):
        z_prev = z
        try:
            if config.method == "extragrad":
                z, z_half, scaling = step_extragrad(
                    problem, z_prev, scaling, gamma, streams, config.batch)
                grad_calls += 2
            elif config.method == "single-call-momentum":
                z, z_half, w, cache, scaling = step_single_call(
                    problem, z_prev, w, cache, scaling, gamma, config.eta,
                    config.anchor_prob, streams, config.batch)
                grad_calls += 1
            else:
                z, scaling = step_sgda(
                    problem, z_prev, scaling, gamma, streams, config.batch)
                z_half = z
                grad_calls += 1
        except (NonFiniteError, FloatingPointError) as exc:
            emit(pending)
            raise DivergenceError(
                f"iterate turned non-finite at iteration {t}",
                trajectory=snapshot(z_prev), t=len(records)) from exc
        if scaling.last_fired and scaling.source == "hutchinson":
            hvp_calls += 1
        if trace is not None:
            # clipped arrays are freshly allocated per update and never
            # mutated afterwards, so the trace can hold references
            trace.append(ScalingTraceEntry(
                scaling.last_fired, scaling.clipped_x, scaling.clipped_y))

        zv = z_prev.as_vector()
        diff = zv - z_star_vec
        field_into(problem, zv, gbuf)
        rec = RunRecord(
            t=t,
            r2_weighted=weighted_dist_sq(z_prev, problem.z_star, scaling),
            dist2=float(np.dot(diff, diff)),
            grad_norm2=float(np.dot(gbuf, gbuf)),
            dhat_min=float(min(scaling.clipped_x.min(), scaling.clipped_y.min())),
            dhat_max=float(max(scaling.clipped_x.max(), scaling.clipped_y.max())),
            grad_calls=grad_calls,
        )
        records.append(rec)
        pending.append(rec)
        if len(pending) >= STREAM_CHUNK:
            emit(pending)
            pending = []

        hv = z_half.as_vector()
        half_z[t] = hv
        sum_half += hv
        ema_acc = hv.copy() if ema_acc is None else lam * ema_acc + (1 - lam) * hv

        zn = z.as_vector()
        norm2 = float(np.dot(zn, zn))
        if not np.isfinite(norm2) or norm2 > DIVERGENCE_RADIUS**2:
            emit(pending)
            raise DivergenceError(
                f"iterate norm passed {DIVERGENCE_RADIUS:g} at iteration {t}",
                trajectory=snapshot(z), t=len(records))

    emit(pending)
    return snapshot(z)


# ---------------------------------------------------------------------------
# averaging


def average_uniform(traj):
    """Arithmetic mean of the stored half-step iterates."""
    if traj.half_z.shape[0] == 0:
        raise InvalidParameterError("cannot average an empty trajectory")
    m = traj.half_z.mean(axis=0)
    return PointPair(m[: traj.d_x], m[traj.d_x :])


def average_ema(traj, lam):
    """Exponential moving average a_{t+1} = lam*a_t + (1-lam)*z_{t+1/2},
    seeded with the first half-iterate."""
    n = traj.half_z.shape[0]
    if n == 0:
        raise InvalidParameterError("cannot average an empty trajectory")
    if not 0.0 <= lam < 1.0:
        raise InvalidParameterError("lam must lie in [0, 1)")
    k = np.arange(n)
    wts = (1.0 - lam) * lam ** (n - 1 - k)
    wts[0] = lam ** (n - 1)
    m = wts @ traj.half_z
    return PointPair(m[: traj.d_x], m[traj.d_x :])
