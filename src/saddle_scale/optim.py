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
from dataclasses import dataclass

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
from .metrics import RECORD_FIELDS, Records, weighted_dist_sq  # noqa: F401
from .precond import (
    ScalingState,
    advance,
    curvature_for,
    ema_clip_into,
    fires,
    scaling_preset,
)
from .problems import PointPair, _all_finite, add_noise, field_into, gradient

METHODS = ("extragrad", "single-call-momentum", "sgda")

DIVERGENCE_RADIUS = 1e12
STREAM_CHUNK = 1000
# entries per (rows, d) block of ``run``
_BLOCK_ENTRIES = 2**16

# the scaling of a config that names none; ``run`` spawns it at the
# problem's dimensions, and sharing one instance keeps such configs equal
_IDENTITY = scaling_preset("identity", 1, 1)


@dataclass(frozen=True)
class RunStreams:
    """Named RNG streams; see module docstring for isolation rationale.
    The noise stream yields the keys of the stochastic batches (``_keys``)."""

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


@dataclass
class ScalingTraceEntry:
    """One step of a traced run: whether the scaling update fired, and the
    clipped diagonal that step used (a read-only row of the trace)."""

    fired: bool
    clipped: np.ndarray
    d_x: int

    @property
    def clipped_x(self):
        return self.clipped[: self.d_x]

    @property
    def clipped_y(self):
        return self.clipped[self.d_x :]


class ScalingTrace:
    """Read-only view of a traced run's scaling: ``clipped``, an (n, d)
    float64 block with one row per step, and ``fired``, an (n,) bool column.

    It lengths, indexes and iterates as ``ScalingTraceEntry`` rows; a slice
    is again a ``ScalingTrace``.
    """

    __slots__ = ("clipped", "fired", "d_x")

    def __init__(self, clipped, fired, d_x):
        self.clipped = problems._freeze(clipped.view())
        self.fired = problems._freeze(fired.view())
        self.d_x = d_x

    def __len__(self):
        return self.fired.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ScalingTrace(self.clipped[i], self.fired[i], self.d_x)
        return ScalingTraceEntry(bool(self.fired[i]), self.clipped[i],
                                 self.d_x)

    def __iter__(self):
        for fired, clipped in zip(self.fired.tolist(), self.clipped):
            yield ScalingTraceEntry(fired, clipped, self.d_x)

    def __repr__(self):
        return f"ScalingTrace(n={len(self)}, d_x={self.d_x})"


@dataclass(frozen=True)
class OptimizerConfig:
    """One run's settings; ``scaling=None`` becomes the identity scaling."""

    method: str
    T: int
    seed: int
    scaling: ScalingState | None = None
    gamma: float | None = None
    eta: float = 0.0
    anchor_prob: float = 0.25
    batch: int = 1
    ema_lambda: float = 0.999
    theory_safe: bool = False
    z0: PointPair | None = None
    trace_scaling: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidParameterError(f"unknown method {self.method!r}")
        if self.scaling is None:
            object.__setattr__(self, "scaling", _IDENTITY)
        if problems._as_count(self.T, "T") < 0:
            raise InvalidParameterError("T must be non-negative")
        if problems._as_count(self.seed, "seed") < 0:
            raise InvalidParameterError("seed must be non-negative")
        if self.gamma is not None and not self.gamma > 0:
            raise InvalidParameterError("gamma must be positive")
        if not self.eta >= 0:
            raise InvalidParameterError("eta must be non-negative")
        if not 0.0 < self.anchor_prob <= 1.0:
            raise InvalidParameterError("anchor_prob must lie in (0, 1]")
        if problems._as_count(self.batch, "batch") < 1:
            raise InvalidParameterError("batch must be a positive integer")
        if not 0.0 <= self.ema_lambda < 1.0:
            raise InvalidParameterError("ema_lambda must lie in [0, 1)")


@dataclass
class Trajectory:
    """Run output: per-iteration records for the pre-step iterates, the
    half-step iterates (rows of half_z), and exact oracle counters.
    ``records`` and ``scaling_trace`` are read-only views over blocks the
    run wrote one row per iteration."""

    records: Records
    half_z: np.ndarray
    final_z: PointPair
    final_avg_uniform: PointPair
    final_avg_ema: PointPair
    grad_calls: int
    hvp_calls: int
    config: OptimizerConfig | None = None
    scaling_trace: ScalingTrace | None = None


# ---------------------------------------------------------------------------
# parameter resolution and theory gates


def resolve_gamma(problem, config):
    """Explicit step size, or the most conservative theoretical default
    floor_e / (10 L) when the config leaves gamma unset."""
    if config.gamma is not None:
        return float(config.gamma)
    return config.scaling.floor_e / (10.0 * problem.L)


def theory_gate_failure(problem, config, gamma):
    """(parameter, message) for the first theory-safe gate that ``config``
    breaks at step size ``gamma`` on ``problem``, or None."""
    e = config.scaling.floor_e
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


def _keys(streams, size=None):
    """Key of the next stochastic batch, or a list of the next ``size``.

    A block of keys equals as many single draws: numpy's 64-bit bounded
    draw keeps no state between calls.
    """
    return streams.noise.integers(2**63, size=size).tolist()


def _pair(problem, vec):
    return PointPair(vec[: problem.d_x], vec[problem.d_x :])


def _finite(z):
    if not np.isfinite(z).all():
        raise NonFiniteError("iterate entries must be finite")
    return z


def step_extragrad(problem, z, f_z, scaling, gamma, streams, batch=1):
    """One extragradient iteration from the vector ``z``, whose exact field
    F(z) the caller has evaluated into ``f_z`` (left as is); returns
    (z_next, z_half, scaling_next).

    One scaling refresh per iteration from the extrapolation batch; the same
    clipped diagonal divides both half-steps.  Exactly two gradient calls.
    """
    g_t = add_noise(problem, f_z, _keys(streams), batch)
    scaling = advance(
        scaling, streams.precond_skip,
        lambda: curvature_for(scaling, problem, z, g_t, streams.rademacher))
    clipped = scaling.clipped
    z_half = _finite(z - gamma * (g_t / clipped))
    g_half = gradient(problem, z_half, _keys(streams), batch)
    z_next = _finite(z - gamma * (g_half / clipped))
    return z_next, z_half, scaling


def warm_start_single_call(problem, z0, streams, batch=1):
    """Gradient at z0; the first single-call iteration reuses it, with z0
    standing in for the previous half-step."""
    return gradient(problem, z0, _keys(streams), batch)


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
    g_half = gradient(problem, z_half, _keys(streams), batch)
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
    g_t = add_noise(problem, f_z, _keys(streams), batch)
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
    chunks of 1000 (then the remainder), so aborted runs keep their prefix;
    each chunk is a ``Records`` view of rows the run never writes again.

    Raises DivergenceError (with the partial trajectory attached) once the
    iterate norm passes DIVERGENCE_RADIUS or turns non-finite.

    The loop is an in-place engine: the iterate, the half-step, the
    gradients, the running averages and the scaling's raw and clipped
    diagonals live in run-owned buffers updated with ``out=`` ufuncs.  It
    performs the arithmetic of ``step_extragrad``, ``step_single_call`` and
    ``step_sgda`` in their order, so it reproduces them bit for bit.

    Each stochastic-gradient call adds one to a count that every completed
    step stores in its record's ``grad_calls``; ``Trajectory.grad_calls`` is
    the count at the last completed step.

    Per step it takes the step itself, the radius and finite checks, one
    row of ``half_z``, the uniform sum and the EMA, and keeps z_t, F(z_t)
    and the clipped diagonal in rows of (rows, d) blocks.  Per block it
    draws the noise of the next steps (``problems.noise_into`` with one
    block of ``_keys``, never more rows than the run can still use) and
    fills the other columns of the (T, 7) record block (RECORD_FIELDS) from
    the three blocks; a block is also flushed before every chunk and every
    returned or attached trajectory.  The row count is min(STREAM_CHUNK, T,
    2**16 // d), so the four blocks hold at most 2 MB at d = 1000.  With
    ``trace_scaling`` each step also writes one row of a (T, d)
    clipped-diagonal block and of a fired column.
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
    scaling = config.scaling.spawn(dx, dy)
    z_star = problem.z_star.as_vector()
    T = config.T
    method, batch, eta = config.method, config.batch, config.eta
    anchor_prob = config.anchor_prob
    noisy = problem.sigma > 0.0
    hutchinson = scaling.source == "hutchinson"
    skip_rng, rademacher = streams.precond_skip, streams.rademacher
    lam = config.ema_lambda
    d = dx + dy
    rows = max(1, min(STREAM_CHUNK, T, _BLOCK_ENTRIES // d))

    # run-owned buffers; z_t is row j of zs and each step writes z_{t+1}
    # into row j + 1, so the iterates of a block need no copy
    zs = np.empty((rows + 1, d))
    fs = np.empty((rows, d))  # exact fields F(z_t)
    cs = np.empty((rows, d))  # clipped diagonals of the steps out of z_t
    z_rows, f_rows, c_rows = list(zs), list(fs), list(cs)
    np.copyto(z_rows[0], z0.as_vector())
    z_half = z0.as_vector().copy()  # single-call's previous half-step
    w = z_half.copy()                # single-call's anchor
    g = np.empty(d)           # stochastic gradient at z_t
    # stochastic gradient at the half-step; single-call carries it into the
    # next iteration, which reads it before overwriting it
    g_half = np.empty(d)
    step = np.empty(d)
    pull = np.empty(d)
    raw = scaling.raw.copy()
    clipped = scaling.clipped.copy()
    sum_half = np.zeros(d)
    ema = np.empty(d)
    half_z = np.empty((T, d))
    record_block = np.empty((T, len(RECORD_FIELDS)))
    call_col = record_block[:, 6]  # grad_calls, written as each step ends
    trace = config.trace_scaling
    if trace:
        trace_clipped = np.empty((T, d))
        trace_fired = np.empty(T, dtype=bool)
    if noisy:
        noise = np.empty((rows, d))
        noise_rows = list(noise)
        # noise rows the run can use: two per extragrad step, one per other
        # step, and single-call's warm start
        noise_left = ((2 * T if method == "extragrad" else T)
                      + (method == "single-call-momentum"))
    drawn = used = 0  # rows of the noise block drawn and used

    n = 0         # steps taken, whose records are filled or pending
    j = 0         # pending steps: rows of the blocks not yet recorded
    emitted = 0
    calls = 0     # stochastic-gradient calls made
    hvp_calls = 0

    def add_noise_into(f_x, out):
        """Stochastic gradient from the exact field ``f_x``: ``f_x`` itself
        on a noise-free problem, else the next noise row + ``f_x`` written
        into ``out`` (the operand order of ``add_noise``).

        Unlike ``add_noise`` this does not check finiteness: a non-finite
        gradient makes ``curvature_for`` raise or the step taken with it
        non-finite (gamma > 0 and clipped >= e > 0), and both the half-step
        and the next iterate are checked."""
        nonlocal calls, drawn, used, noise_left
        calls += 1
        if not noisy:
            return f_x
        if used == drawn:
            drawn = min(rows, noise_left)
            noise_left -= drawn
            problems.noise_into(problem, _keys(streams, drawn), batch,
                                noise[:drawn])
            used = 0
        used += 1
        return np.add(noise_rows[used - 1], f_x, out=out)

    def step_into(x, grad, out):
        """out <- x - gamma * (grad / clipped)"""
        np.divide(grad, clipped, out=step)
        np.multiply(step, gamma, out=step)
        return np.subtract(x, step, out=out)

    def flush():
        """Fill the records of the pending steps from the blocks, then move
        the current iterate to row 0."""
        nonlocal j
        if j == 0:
            return
        diff, c = zs[:j], cs[:j]
        rec = record_block[n - j:n]
        rec[:, 0] = np.arange(n - j, n, dtype=np.float64)
        rec[:, 4] = np.minimum.reduce(c, axis=1)
        rec[:, 5] = np.maximum.reduce(c, axis=1)
        rec[:, 3] = np.vecdot(fs[:j], fs[:j])
        np.subtract(diff, z_star, out=diff)
        rec[:, 2] = np.vecdot(diff, diff)
        np.multiply(c, diff, out=c)
        rec[:, 1] = np.vecdot(c, diff)
        np.copyto(z_rows[0], z_rows[j])
        j = 0

    def emit():
        nonlocal emitted
        flush()
        if on_records is not None and emitted < n:
            on_records(Records(record_block[emitted:n]))
        emitted = n

    def snapshot():
        # every caller emits first, which flushes
        if n > 0:
            avg_u = _pair(problem, sum_half / n)
            avg_e = _pair(problem, ema)
        else:
            avg_u = avg_e = z0
        return Trajectory(
            records=Records(record_block[:n]), half_z=half_z[:n],
            final_z=_pair(problem, z_rows[0]),
            final_avg_uniform=avg_u, final_avg_ema=avg_e,
            grad_calls=grad_calls, hvp_calls=hvp_calls,
            config=config,
            scaling_trace=(ScalingTrace(trace_clipped[:n], trace_fired[:n], dx)
                           if trace else None))

    if method == "single-call-momentum":
        # the warm start sits outside the loop, so its failure is not a
        # divergence
        field_into(problem, z_rows[0], g_half)
        add_noise_into(g_half, g_half)
        if not np.isfinite(g_half).all():
            raise NonFiniteError("gradient entries must be finite")

    grad_calls = calls  # calls through the last completed step
    for t in range(T):
        z, z_next, f = z_rows[j], z_rows[j + 1], f_rows[j]
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
                    step_into(z_next, g_h, z_next)
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
                trajectory=snapshot(), t=n) from exc
        if method == "single-call-momentum" and (
                anchor_prob >= 1.0 or streams.anchor.random() < anchor_prob):
            np.copyto(w, z)
        if fired and hutchinson:
            hvp_calls += 1
        if trace:
            trace_fired[t] = fired
            trace_clipped[t] = clipped
        np.copyto(c_rows[j], clipped)

        half_z[t] = half
        grad_calls = call_col[t] = calls
        sum_half += half
        if t == 0:
            np.copyto(ema, half)
        else:
            np.multiply(ema, lam, out=ema)
            np.multiply(half, 1 - lam, out=step)
            ema += step

        n = t + 1
        j += 1
        if j == rows:
            flush()
        if n - emitted >= STREAM_CHUNK:
            emit()
        if not math.isfinite(norm2) or norm2 > DIVERGENCE_RADIUS**2:
            emit()
            raise DivergenceError(
                f"iterate norm passed {DIVERGENCE_RADIUS:g} at iteration {t}",
                trajectory=snapshot(), t=n)

    emit()
    return snapshot()
