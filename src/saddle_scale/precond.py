"""Diagonal scaling (preconditioner) state machine.

Two running-average rules over per-coordinate curvature estimates:

* squared-ema: D2 <- beta_t * D2 + (1 - beta_t) * H2   (Adam/RMSProp family;
  the state stores the squared diagonal),
* additive-ema: D <- beta_t * D + (1 - beta_t) * H     (signed; OASIS family),

followed by entrywise clipping Dhat = max(e, |D|) (or |D| + e) so the scaled
step stays well defined.  Updates fire with probability p (one shared
Bernoulli draw per call) or deterministically every k-th call.  Curvature
comes either from gradient squares or from a Rademacher diagonal estimate
v * (Hessian @ v).

``advance`` moves an immutable ``ScalingState`` by one call through three
parts: ``fires`` (the one-row case of ``fire_column``), the EMA step
``ema_into`` and the clip ``clip_into``.  The run engine applies the same
parts to its own buffers.  It draws each block of steps' fire column at
once, and where the curvature reads no iterate (Hutchinson probes on a
problem with ``constant_hessian``, or a beta = 1 scaling, which never
fires) it moves the scaling over the whole block with
``advance_block``: one block of probes, one block of Hessian products, one
EMA step per fired row and one clip over the block.
"""

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from . import problems as P
from .errors import (
    InvalidParameterError,
    NonFiniteError,
    PreconditionError,
)

RULES = ("squared-ema", "additive-ema")
SOURCES = ("grad-square", "hutchinson")
SCHEDULES = ("constant-beta", "adam-debias")
CLIP_VARIANTS = ("max", "add")


@dataclass(frozen=True, eq=False)
class ScalingState:
    """Immutable snapshot of the diagonal scaling.

    ``raw`` holds the running average over the concatenated (x, y)
    coordinates (squared diagonals for squared-ema); ``clipped`` holds the
    floored entries actually dividing gradients.  Both are read-only, and
    clipped_x/clipped_y are views of clipped's first ``d_x`` and remaining
    entries.  ``t`` counts update calls, fired or skipped, so beta
    schedules depend only on time.
    """

    rule: str
    source: str
    schedule: str
    beta: float
    floor_e: float
    update_prob: float
    raw: np.ndarray
    clipped: np.ndarray
    d_x: int
    t: int = 0
    clip_variant: str = "max"
    update_every_k: int | None = None
    last_fired: bool = False

    @property
    def clipped_x(self):
        return self.clipped[: self.d_x]

    @property
    def clipped_y(self):
        return self.clipped[self.d_x :]

    @classmethod
    def create(cls, rule, source, schedule, beta, floor_e, update_prob,
               d_x, d_y, clip_variant="max", update_every_k=None):
        if rule not in RULES:
            raise InvalidParameterError(f"unknown rule {rule!r}")
        if source not in SOURCES:
            raise InvalidParameterError(f"unknown source {source!r}")
        if schedule not in SCHEDULES:
            raise InvalidParameterError(f"unknown schedule {schedule!r}")
        if clip_variant not in CLIP_VARIANTS:
            raise InvalidParameterError(f"unknown clip variant {clip_variant!r}")
        if not 0.0 <= beta <= 1.0:
            raise InvalidParameterError("beta must lie in [0, 1]")
        if not floor_e > 0.0:
            raise InvalidParameterError("floor_e must be positive")
        if not 0.0 < update_prob <= 1.0:
            raise InvalidParameterError("update_prob must lie in (0, 1]")
        if update_every_k is not None:
            if P._as_count(update_every_k, "update_every_k") < 1:
                raise InvalidParameterError("update_every_k must be >= 1")
            if update_prob < 1.0:
                raise InvalidParameterError(
                    "update_every_k and update_prob < 1 are mutually exclusive")
        if d_x < 0 or d_y < 0:
            raise InvalidParameterError("dimensions must be non-negative")
        return cls(
            rule=rule, source=source, schedule=schedule, beta=float(beta),
            floor_e=float(floor_e), update_prob=float(update_prob),
            raw=P._freeze(np.zeros(d_x + d_y)),
            clipped=P._freeze(np.full(d_x + d_y, float(floor_e))), d_x=d_x,
            clip_variant=clip_variant, update_every_k=update_every_k,
        )

    def spawn(self, d_x, d_y):
        """Fresh zero-history state with this state's hyperparameters."""
        return ScalingState.create(
            rule=self.rule, source=self.source, schedule=self.schedule,
            beta=self.beta, floor_e=self.floor_e, update_prob=self.update_prob,
            d_x=d_x, d_y=d_y, clip_variant=self.clip_variant,
            update_every_k=self.update_every_k,
        )


_PRESETS = {
    # name: (rule, source, schedule, beta, floor_e)
    "adam": ("squared-ema", "grad-square", "adam-debias", 0.999, 1e-8),
    "rmsprop": ("squared-ema", "grad-square", "constant-beta", 0.999, 1e-8),
    "adahessian": ("squared-ema", "hutchinson", "adam-debias", 0.999, 0.01),
    "oasis": ("additive-ema", "hutchinson", "constant-beta", 0.999, 0.01),
    # frozen scaling with clipped = 1: plain (unpreconditioned) methods
    "identity": ("squared-ema", "grad-square", "constant-beta", 1.0, 1.0),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def scaling_preset(name, d_x, d_y, update_prob=1.0, update_every_k=None):
    try:
        rule, source, schedule, beta, floor_e = _PRESETS[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown preset {name!r}; choose from {PRESET_NAMES}") from None
    return ScalingState.create(
        rule=rule, source=source, schedule=schedule, beta=beta,
        floor_e=floor_e, update_prob=update_prob, d_x=d_x, d_y=d_y,
        update_every_k=update_every_k,
    )


# ---------------------------------------------------------------------------
# beta schedule


def _check_beta(schedule, beta, t):
    if schedule not in SCHEDULES:
        raise InvalidParameterError(f"unknown schedule {schedule!r}")
    if not 0.0 <= beta <= 1.0:
        raise InvalidParameterError("beta must lie in [0, 1]")
    if t < 0:
        raise InvalidParameterError("t must be non-negative")
    if schedule == "adam-debias" and beta == 1.0:
        warnings.warn("adam-debias with beta = 1 is degenerate; using 1",
                      RuntimeWarning, stacklevel=3)


def beta_t(schedule, beta, t):
    """Effective averaging weight for update number t (0-based)."""
    _check_beta(schedule, beta, t)
    return _beta_at(schedule, beta, t)


def beta_series(schedule, beta, start, stop):
    """``beta_t`` for update numbers start, ..., stop - 1 as a float64
    array, validated once rather than once per entry."""
    _check_beta(schedule, beta, start)
    return np.array([_beta_at(schedule, beta, t) for t in range(start, stop)],
                    dtype=np.float64)


def _beta_at(schedule, beta, t):
    """beta_t without validation: beta itself for constant-beta or
    beta = 1, else Adam's debiased (beta - beta^(t+1)) / (1 - beta^(t+1))."""
    if schedule == "constant-beta" or beta == 1.0:
        return beta
    bp = beta ** (t + 1)
    return (beta - bp) / (1.0 - bp)


# ---------------------------------------------------------------------------
# curvature sources


def _signs(rng_stream, shape):
    """Rademacher signs of the given shape.

    They come from thresholding uniforms u (exactly fair on the 53-bit
    grid), which is measurably cheaper per draw than a bounded-integer
    call on this hot path.  v = copysign(1, u - 1/2) equals
    where(u < 1/2, -1, 1): u - 1/2 is exact on that grid, negative exactly
    when u < 1/2, and +0 at u = 1/2.  A (k, d) block equals k draws of d.
    """
    v = rng_stream.random(shape)
    np.subtract(v, 0.5, out=v)
    np.copysign(1.0, v, out=v)
    return v


def _probe_into(p, z, v, out):
    """out <- v * (H v) at ``z``; with ``z`` None, on a problem with
    ``constant_hessian``, one probe per row of a block of signs ``v``."""
    if z is None:
        P._hvp_rows_into(p, v, out)
    else:
        P.hvp_into(p, z, v, out)
    out *= v
    return out


def hutchinson_probe(p, z, v):
    """Diagonal probe v * (H v) at the concatenated iterate ``z`` for a
    given sign vector ``v`` over both blocks."""
    return _probe_into(p, z, v, np.empty(v.shape[0]))


def curvature_hutchinson(p, z, rng_stream):
    """Rademacher diagonal estimate: draw v with i.i.d. +-1 entries from
    rng_stream, return v * (H v) (unbiased for the diagonal)."""
    return hutchinson_probe(p, z, _signs(rng_stream, p.d_x + p.d_y))


def _hutchinson_into(state, p, z, rng_stream, out):
    """Hutchinson curvature in the representation ``state.rule`` expects,
    written into ``out``: one probe at ``z``, or with ``z`` None one probe
    per row of a block (for a problem with ``constant_hessian``)."""
    _probe_into(p, z, _signs(rng_stream, out.shape), out)
    if state.rule == "squared-ema":
        np.multiply(out, out, out=out)
    return out


def curvature_for(state, problem, z, g, rademacher_rng):
    """Curvature in the representation ``state.rule`` expects, from the
    gradient ``g`` or from a Hessian probe at ``z``.

    grad-square natively produces squares; hutchinson produces signed
    entries.  The mismatched pairings convert (sqrt for additive consumers,
    square for squared consumers).  Raises NonFiniteError unless every
    entry is finite.
    """
    # h is a fresh array in both branches, so the conversions work in place
    if state.source == "grad-square":
        h = g * g
        if state.rule != "squared-ema":
            np.sqrt(h, out=h)
    else:
        h = _hutchinson_into(state, problem, z, rademacher_rng,
                             np.empty(problem.d_x + problem.d_y))
    if not P._all_finite(h):
        raise NonFiniteError("curvature entries must be finite")
    return h


# ---------------------------------------------------------------------------
# the update itself


def fire_column(state, t, m, rng_stream):
    """Whether update calls t, ..., t + m - 1 (0-based) of a scaling with
    ``state``'s hyperparameters fire, as an (m,) bool column: every
    ``update_every_k``-th call, or each with probability ``update_prob``
    (one block of m uniforms from ``rng_stream``, which equals m single
    draws; p = 1 draws nothing).  A beta = 1 scaling still makes the draws
    but never fires, as ``advance`` explains."""
    if state.update_every_k is not None:
        col = np.arange(t, t + m) % state.update_every_k == 0
    elif state.update_prob < 1.0:
        col = rng_stream.random(m) < state.update_prob
    else:
        col = np.ones(m, dtype=bool)
    if state.beta == 1.0:
        col[:] = False
    return col


def fires(state, t, rng_stream):
    """Whether update call number ``t`` fires: ``fire_column``'s one row."""
    return bool(fire_column(state, t, 1, rng_stream)[0])


def ema_into(state, t, raw, h, out):
    """EMA step of update call number ``t``: out <- b raw + (1 - b) h with
    b = beta_t(schedule, beta, t).  ``out`` may be ``raw`` or ``h``."""
    # schedule and beta were validated at construction
    b = _beta_at(state.schedule, state.beta, t)
    fresh = (1.0 - b) * h
    np.multiply(raw, b, out=out)
    out += fresh
    return out


def clip_into(state, raw, out):
    """Clip ``raw``, a vector or a block of rows, into ``out``:
    max(e, D) (or D + e) with D = sqrt(raw) for squared-ema and |raw| for
    additive-ema.  ``out`` may be ``raw``."""
    if state.rule == "squared-ema":
        np.sqrt(raw, out=out)
    else:
        np.abs(raw, out=out)
    if state.clip_variant == "add":
        out += state.floor_e
    else:
        np.maximum(out, state.floor_e, out=out)
    return out


def advance_block(state, problem, t, fired, rademacher_rng, raw, out):
    """Update calls t, ..., t + m - 1 of a scaling whose curvature reads no
    iterate: Hutchinson probes on a problem with ``constant_hessian``, or
    any beta = 1 scaling (which never fires).  ``fired`` is the calls' (m,)
    fire column; ``raw`` is moved in place and each call's clipped
    diagonal goes to a row of the (m, d) block ``out``.

    The k fired calls' probes are one (k, d) block of signs, their Hessian
    products one ``problems._hvp_rows_into`` block; each fired row then
    takes its EMA step in turn, and one clip covers the block.  Row for row
    this is what ``advance`` computes call by call.

    Returns the number of calls applied: m, or the index of the first
    fired call whose curvature is not finite (where ``curvature_for``
    raises).  ``out``'s rows from there on are then not written, and
    ``raw`` holds the EMA before that call.
    """
    m = fired.shape[0]
    at = np.flatnonzero(fired).tolist()
    k = len(at)
    # row 0 holds raw, row i the EMA after the i-th fired call
    ema = np.empty((k + 1, raw.shape[0]))
    ema[0] = raw
    if k:
        h = ema[1:]
        # an overflow shows as a non-finite row, reported at its own call
        with np.errstate(over="ignore", invalid="ignore"):
            _hutchinson_into(state, problem, None, rademacher_rng, h)
        finite = np.isfinite(h).all(axis=1)
        if not finite.all():
            k = int(np.argmin(finite))
            m = at[k]
        for i in range(k):
            ema_into(state, t + at[i], ema[i], ema[i + 1], ema[i + 1])
    np.take(ema, np.cumsum(fired[:m]), axis=0, out=out[:m], mode="clip")
    clip_into(state, out[:m], out[:m])
    raw[...] = ema[k]
    return m


def advance(state, rng_stream, curvature_fn):
    """Advance the scaling by one call: fire the EMA with probability
    ``update_prob`` (one shared Bernoulli draw from ``rng_stream``; p = 1
    draws nothing) or on the every-k schedule, then re-clip.  The time
    index advances either way.  The curvature ``curvature_fn()`` is only
    computed when the update fires, which keeps skipped steps free of
    oracle work: the point of probabilistic updates.

    ``curvature_fn`` must return a finite vector over both blocks matching
    the state's length and representation (``curvature_for`` does); nothing
    is re-validated here.

    With beta = 1 the EMA ``1*raw + 0*h`` equals ``raw`` for every finite
    ``h``, so such a state treats each call as a skip: it still makes the
    Bernoulli draw, but never calls ``curvature_fn``, keeps both arrays and
    reports ``last_fired`` False.  Fire counts and Hessian-vector product
    counts therefore cover only curvature that was computed.
    """
    fire = fires(state, state.t, rng_stream)
    # clipping is a function of raw, so a skip keeps both arrays
    raw, clipped = state.raw, state.clipped
    if fire:
        raw = P._freeze(ema_into(state, state.t, raw, curvature_fn(),
                                 np.empty_like(raw)))
        clipped = P._freeze(clip_into(state, raw, np.empty_like(raw)))
    return dataclasses.replace(state, raw=raw, clipped=clipped, t=state.t + 1,
                               last_fired=fire)


# ---------------------------------------------------------------------------
# curvature magnitude bound and growth rates


def gamma_bound(source, p, region_radius=None):
    """Certified upper bound Gamma on curvature magnitudes feeding the EMA.

    hutchinson: sqrt(d_x + d_y) * L (Cauchy-Schwarz on v * (Hv) rows).
    grad-square: the gradient-norm bound over the radius-``region_radius``
    ball around z*: ||F(z*)|| + L * radius + noise_bound.  Needs a finite
    region because stochastic gradients are unbounded over all of space.
    """
    if source == "hutchinson":
        return float(np.sqrt(p.d_x + p.d_y) * p.L)
    if source != "grad-square":
        raise InvalidParameterError(f"unknown curvature source {source!r}")
    if region_radius is None or not np.isfinite(region_radius):
        raise PreconditionError(
            "grad-square bound needs a finite region radius around z*")
    if region_radius < 0:
        raise InvalidParameterError("region_radius must be non-negative")
    if p.z_star is None:
        raise PreconditionError("grad-square bound needs a known z*")
    z_star = p.z_star.as_vector()
    f_star = np.linalg.norm(P.field_into(p, z_star, np.empty_like(z_star)))
    return float(f_star) + p.L * float(region_radius) + p.noise_bound


def _effective_prob(state):
    if state.update_every_k is not None:
        return 1.0 / state.update_every_k
    return state.update_prob


def growth_constant(state, cap):
    """The beta-free growth coefficient C: p*Gamma^2/(2 e^2) for the
    squared rule, 2 p Gamma / e for the additive rule.  An update with
    weight beta_t grows each clipped entry by at most 1 + (1 - beta_t) C."""
    p_eff = _effective_prob(state)
    if state.rule == "squared-ema":
        return p_eff * cap * cap / (2.0 * state.floor_e * state.floor_e)
    return 2.0 * p_eff * cap / state.floor_e
