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

import math
from dataclasses import dataclass, field

import numpy as np

from . import problems
from .errors import (
    DimensionMismatchError,
    DivergenceError,
    InvalidParameterError,
    NonFiniteError,
)
# weighted_dist_sq is no longer called here, but stays importable from this
# module: perfbench/runner.py wraps it (and the step functions) by name here
from .metrics import RunRecord, weighted_dist_sq  # noqa: F401
from .precond import (
    ScalingState,
    advance,
    curvature_for,
    ema_clip_into,
    fires,
    scaling_preset,
)
from .problems import PointPair, add_noise, field_into, gradient

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
    # noise keys drawn ahead, the next one last
    keys: list = field(default_factory=list, repr=False)

    @staticmethod
    def from_seed(seed):
        kids = np.random.SeedSequence(seed).spawn(5)
        gens = [np.random.default_rng(k) for k in kids]
        return RunStreams(*gens)


@dataclass
class ScalingTraceEntry:
    """One step of a traced run: whether the scaling update fired, and the
    clipped diagonal (a skipped step shares the previous step's array)."""

    fired: bool
    clipped: np.ndarray
    d_x: int

    @property
    def clipped_x(self):
        return self.clipped[: self.d_x]

    @property
    def clipped_y(self):
        return self.clipped[self.d_x :]


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


def theory_gate_failure(problem, config, gamma):
    """(parameter, message) for the first theory-safe gate that ``config``
    breaks at step size ``gamma`` on ``problem``, or None."""
    e = _template(config).floor_e
    L = problem.L
    if config.method == "single-call-momentum":
        cap = e / (10.0 * L)
        if gamma > cap:
            return "gamma", (f"theory-safe single-call needs gamma <= "
                             f"floor_e/(10 L) = {cap:g}")
        if config.anchor_prob > 0.25:
            return "anchor_prob", ("theory-safe single-call needs "
                                   "anchor_prob <= 1/4")
        if config.eta > e * config.anchor_prob:
            return "eta", ("theory-safe single-call needs "
                           "eta <= floor_e * anchor_prob")
        return None
    if config.method == "extragrad":
        if problem.mu > 0:
            cap, case = e / (4.0 * L), "strongly monotone"
        elif problem.kind == "minty-example":
            cap, case = e / (3.0 * L), "non-monotone"
        else:
            cap, case = e / (2.0 * L), "monotone"
        if gamma > cap:
            return "gamma", f"theory-safe {case} extragrad needs gamma <= {cap:g}"
    return None


# ---------------------------------------------------------------------------
# single steps: the readable reference that run's engine reproduces


def _seed(streams):
    """Key of the next stochastic batch.

    Keys are drawn STREAM_CHUNK at a time, which yields the same sequence
    as one draw per key: numpy's 64-bit bounded draw keeps no state between
    calls.
    """
    keys = streams.keys
    if not keys:
        block = streams.noise.integers(2**63, size=STREAM_CHUNK).tolist()
        block.reverse()
        keys.extend(block)
    return keys.pop()


def _pair(problem, vec):
    return PointPair(vec[: problem.d_x], vec[problem.d_x :])


def _finite(z):
    if not np.isfinite(z).all():
        raise NonFiniteError("iterate entries must be finite")
    return z


def _all_finite(v):
    """Whether every entry of ``v`` is finite; a finite dot(v, v) proves it
    without the entrywise test."""
    return math.isfinite(np.dot(v, v)) or bool(np.isfinite(v).all())


def step_extragrad(problem, z, f_z, scaling, gamma, streams, batch=1):
    """One extragradient iteration from the vector ``z``, whose exact field
    F(z) the caller has evaluated into ``f_z`` (left as is); returns
    (z_next, z_half, scaling_next).

    One scaling refresh per iteration from the extrapolation batch; the same
    clipped diagonal divides both half-steps.  Exactly two gradient calls.
    """
    g_t = add_noise(problem, f_z, _seed(streams), batch)
    scaling = advance(
        scaling, streams.precond_skip,
        lambda: curvature_for(scaling, problem, z, g_t, streams.rademacher))
    clipped = scaling.clipped
    z_half = _finite(z - gamma * (g_t / clipped))
    g_half = gradient(problem, z_half, _seed(streams), batch)
    z_next = _finite(z - gamma * (g_half / clipped))
    return z_next, z_half, scaling


def warm_start_single_call(problem, z0, streams, batch=1):
    """Gradient at z0; the first single-call iteration reuses it, with z0
    standing in for the previous half-step."""
    return gradient(problem, z0, _seed(streams), batch)


def step_single_call(problem, z, w, z_half_prev, g_prev, scaling, gamma, eta,
                     anchor_prob, streams, batch=1):
    """One single-call iteration with negative momentum toward anchor w,
    reusing the previous half-step ``z_half_prev`` and its gradient
    ``g_prev``.

    Returns (z_next, z_half, w_next, g_half, scaling_next); exactly one
    fresh gradient call.  The scaling refresh reuses ``g_prev``, so a
    skipped refresh costs nothing.
    """
    scaling = advance(
        scaling, streams.precond_skip,
        lambda: curvature_for(scaling, problem, z_half_prev, g_prev,
                              streams.rademacher))
    clipped = scaling.clipped
    z_half = _finite(z - gamma * (g_prev / clipped))
    g_half = gradient(problem, z_half, _seed(streams), batch)
    if eta != 0.0:
        pull = (w - z) / clipped
        z_next = _finite(z + eta * pull - gamma * (g_half / clipped))
    else:
        z_next = _finite(z - gamma * (g_half / clipped))
    if anchor_prob >= 1.0 or streams.anchor.random() < anchor_prob:
        w_next = z
    else:
        w_next = w
    return z_next, z_half, w_next, g_half, scaling


def step_sgda(problem, z, f_z, scaling, gamma, streams, batch=1):
    """One scaled descent-ascent step from ``z`` with exact field ``f_z``
    (left as is); returns (z_next, scaling_next)."""
    g_t = add_noise(problem, f_z, _seed(streams), batch)
    scaling = advance(
        scaling, streams.precond_skip,
        lambda: curvature_for(scaling, problem, z, g_t, streams.rademacher))
    return _finite(z - gamma * (g_t / scaling.clipped)), scaling


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

    The loop is an in-place engine: the iterate, the half-step, the
    gradients, the running averages and the scaling's raw and clipped
    diagonals live in run-owned buffers updated with ``out=`` ufuncs.  It
    performs the arithmetic of ``step_extragrad``, ``step_single_call`` and
    ``step_sgda`` in their order, so it reproduces them bit for bit.
    """
    gamma = resolve_gamma(problem, config)
    if config.theory_safe:
        failure = theory_gate_failure(problem, config, gamma)
        if failure is not None:
            raise InvalidParameterError(failure[1])
    if problem.z_star is None:
        raise InvalidParameterError("run needs a problem with a known z_star")
    dx, dy = problem.d_x, problem.d_y
    streams = RunStreams.from_seed(config.seed)
    if config.z0 is not None:
        if config.z0.d_x != dx or config.z0.d_y != dy:
            raise DimensionMismatchError("z0 does not match problem dims")
        z0 = config.z0
    else:
        z0 = PointPair(streams.init.standard_normal(dx),
                       streams.init.standard_normal(dy))
    scaling = (config.scaling if config.scaling is not None
               else scaling_preset("identity", dx, dy)).spawn(dx, dy)
    z_star = problem.z_star.as_vector()
    T = config.T
    method, batch, eta = config.method, config.batch, config.eta
    anchor_prob = config.anchor_prob
    noisy = problem.sigma > 0.0
    hutchinson = scaling.source == "hutchinson"
    skip_rng, rademacher = streams.precond_skip, streams.rademacher
    lam = config.ema_lambda
    d = dx + dy

    # run-owned buffers
    z = z0.as_vector().copy()
    z_next = np.empty(d)
    z_half = z.copy()         # single-call's previous half-step starts at z0
    w = z.copy()              # single-call's anchor
    f = np.empty(d)           # exact field F(z_t)
    g = np.empty(d)           # stochastic gradient at z_t
    # stochastic gradient at the half-step; single-call carries it into the
    # next iteration, which reads it before overwriting it
    g_half = np.empty(d)
    noise = np.empty(d)
    step = np.empty(d)
    pull = np.empty(d)
    diff = np.empty(d)
    raw = scaling.raw.copy()
    clipped = scaling.clipped.copy()
    sum_half = np.zeros(d)
    ema = np.empty(d)
    half_z = np.empty((T, d))

    records = []
    emitted = 0
    trace = [] if config.trace_scaling else None
    last_clipped = None
    if trace is not None:
        last_clipped = problems._freeze(clipped.copy())
    dhat_min, dhat_max = float(clipped.min()), float(clipped.max())
    grad_calls = 0
    hvp_calls = 0

    def add_noise_into(f_x, out):
        """Stochastic gradient from the exact field ``f_x``: ``f_x`` itself
        on a noise-free problem, else ``noise + f_x`` written into ``out``
        (the operand order of ``add_noise``).

        Unlike ``add_noise`` this does not check finiteness: a non-finite
        gradient makes ``curvature_for`` raise or the step taken with it
        non-finite (gamma > 0 and clipped >= e > 0), and both the half-step
        and the next iterate are checked."""
        if not noisy:
            return f_x
        problems.noise_into(problem, _seed(streams), batch, noise)
        return np.add(noise, f_x, out=out)

    def step_into(x, grad, out):
        """out <- x - gamma * (grad / clipped)"""
        np.divide(grad, clipped, out=step)
        np.multiply(step, gamma, out=step)
        return np.subtract(x, step, out=out)

    def emit():
        nonlocal emitted
        if on_records is not None and emitted < len(records):
            on_records(records[emitted:])
        emitted = len(records)

    def snapshot(final_z):
        n = len(records)
        if n > 0:
            avg_u = _pair(problem, sum_half / n)
            avg_e = _pair(problem, ema)
        else:
            avg_u = avg_e = z0
        return Trajectory(
            records=records, half_z=half_z[:n],
            final_z=_pair(problem, final_z),
            final_avg_uniform=avg_u, final_avg_ema=avg_e,
            grad_calls=grad_calls, hvp_calls=hvp_calls, config=config,
            scaling_trace=trace)

    if method == "single-call-momentum":
        # the warm start sits outside the loop, so its failure is not a
        # divergence
        field_into(problem, z, g_half)
        add_noise_into(g_half, g_half)
        if not np.isfinite(g_half).all():
            raise NonFiniteError("gradient entries must be finite")
        grad_calls += 1

    for t in range(T):
        try:
            # F(z_t) serves the record's grad_norm2 and, for extragrad and
            # sgda, the first gradient of the step
            field_into(problem, z, f)
            if method == "single-call-momentum":
                at, g_t = z_half, g_half
            else:
                at, g_t = z, add_noise_into(f, g)
            fired = fires(scaling, t, skip_rng)
            if fired:
                h = curvature_for(scaling, problem, at, g_t, rademacher)
                ema_clip_into(scaling, t, h, raw, clipped)
                dhat_min, dhat_max = float(clipped.min()), float(clipped.max())
            if method == "sgda":
                half = step_into(z, g_t, z_next)
            else:
                half = step_into(z, g_t, z_half)
                if not _all_finite(z_half):
                    raise NonFiniteError("iterate entries must be finite")
                field_into(problem, z_half, g_half)
                g_h = add_noise_into(g_half, g_half)
                if eta != 0.0 and method == "single-call-momentum":
                    np.subtract(w, z, out=pull)
                    np.divide(pull, clipped, out=pull)
                    np.multiply(pull, eta, out=pull)
                    np.add(z, pull, out=z_next)
                    np.divide(g_h, clipped, out=step)
                    np.multiply(step, gamma, out=step)
                    np.subtract(z_next, step, out=z_next)
                else:
                    step_into(z, g_h, z_next)
            # one dot serves the finite check here and the radius check below
            norm2 = float(np.dot(z_next, z_next))
            if not math.isfinite(norm2) and not np.isfinite(z_next).all():
                raise NonFiniteError("iterate entries must be finite")
        except (NonFiniteError, FloatingPointError) as exc:
            emit()
            raise DivergenceError(
                f"iterate turned non-finite at iteration {t}",
                trajectory=snapshot(z), t=len(records)) from exc
        if method == "single-call-momentum":
            if anchor_prob >= 1.0 or streams.anchor.random() < anchor_prob:
                np.copyto(w, z)
            grad_calls += 1
        elif method == "extragrad":
            grad_calls += 2
        else:
            grad_calls += 1
        if fired and hutchinson:
            hvp_calls += 1
        if trace is not None:
            # a fired step gets its own copy; a skipped one shares the last
            if fired:
                last_clipped = problems._freeze(clipped.copy())
            trace.append(ScalingTraceEntry(fired, last_clipped, dx))

        np.subtract(z, z_star, out=diff)
        np.multiply(clipped, diff, out=step)
        records.append(RunRecord(
            t=t,
            r2_weighted=float(np.dot(step, diff)),
            dist2=float(np.dot(diff, diff)),
            grad_norm2=float(np.dot(f, f)),
            dhat_min=dhat_min,
            dhat_max=dhat_max,
            grad_calls=grad_calls,
        ))
        if len(records) - emitted >= STREAM_CHUNK:
            emit()

        half_z[t] = half
        sum_half += half
        if t == 0:
            np.copyto(ema, half)
        else:
            np.multiply(ema, lam, out=ema)
            np.multiply(half, 1 - lam, out=step)
            ema += step

        z, z_next = z_next, z
        if not math.isfinite(norm2) or norm2 > DIVERGENCE_RADIUS**2:
            emit()
            raise DivergenceError(
                f"iterate norm passed {DIVERGENCE_RADIUS:g} at iteration {t}",
                trajectory=snapshot(z), t=len(records))

    emit()
    return snapshot(z)
