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
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import problems as P
from .errors import (
    DimensionMismatchError,
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
    raw_x/raw_y/clipped_x/clipped_y are views of their first ``d_x`` and
    remaining entries.  ``t`` counts update calls, fired or skipped, so beta
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
    def raw_x(self):
        return self.raw[: self.d_x]

    @property
    def raw_y(self):
        return self.raw[self.d_x :]

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
            if update_every_k < 1:
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


def beta_t(schedule, beta, t):
    """Effective averaging weight for update number t (0-based)."""
    if schedule not in SCHEDULES:
        raise InvalidParameterError(f"unknown schedule {schedule!r}")
    if not 0.0 <= beta <= 1.0:
        raise InvalidParameterError("beta must lie in [0, 1]")
    if t < 0:
        raise InvalidParameterError("t must be non-negative")
    if schedule == "constant-beta":
        return beta
    if beta == 1.0:
        warnings.warn("adam-debias with beta = 1 is degenerate; using 1",
                      RuntimeWarning, stacklevel=2)
        return 1.0
    bp = beta ** (t + 1)
    return (beta - bp) / (1.0 - bp)


# ---------------------------------------------------------------------------
# curvature sources


def curvature_grad_square(g):
    """Entrywise gradient squares (squared-ema consumers)."""
    return g * g


def hutchinson_probe(p, z, v):
    """Diagonal probe v * (H v) at the concatenated iterate ``z`` for a
    given sign vector ``v`` over both blocks."""
    out = np.empty(v.shape[0])
    P.hvp_into(p, z, v, out)
    out *= v
    return out


def curvature_hutchinson(p, z, rng_stream):
    """Rademacher diagonal estimate: draw v with i.i.d. +-1 entries from
    rng_stream, return v * (H v) (unbiased for the diagonal).

    The signs come from thresholding uniforms (exactly fair on the 53-bit
    grid), which is measurably cheaper per draw than a bounded-integer
    call on this hot path.
    """
    v = np.where(rng_stream.random(p.d_x + p.d_y) < 0.5, -1.0, 1.0)
    return hutchinson_probe(p, z, v)


def curvature_for(state, problem, z, g, rademacher_rng):
    """Curvature in the representation ``state.rule`` expects, from the
    gradient ``g`` or from a Hessian probe at ``z``.

    grad-square natively produces squares; hutchinson produces signed
    entries.  The mismatched pairings convert (sqrt for additive consumers,
    square for squared consumers).  Raises NonFiniteError unless every
    entry is finite.
    """
    if state.source == "grad-square":
        h = curvature_grad_square(g)
        if state.rule != "squared-ema":
            h = np.sqrt(h)
    else:
        h = curvature_hutchinson(problem, z, rademacher_rng)
        if state.rule == "squared-ema":
            h = h * h
    if not np.isfinite(h).all():
        raise NonFiniteError("curvature entries must be finite")
    return h


# ---------------------------------------------------------------------------
# the update itself


def _validate_curvature(state, h):
    h = np.asarray(h, dtype=np.float64)
    if h.shape != state.raw.shape:
        raise DimensionMismatchError(
            f"curvature shape {h.shape} does not match state {state.raw.shape}")
    if not np.isfinite(h).all():
        raise NonFiniteError("curvature entries must be finite")
    if state.rule == "squared-ema" and np.any(h < 0):
        raise InvalidParameterError("squared-ema needs non-negative curvature")
    return h


def fires(state, t, rng_stream):
    """Whether update call number ``t`` (0-based) of a scaling with
    ``state``'s hyperparameters fires: every ``update_every_k``-th call, or
    with probability ``update_prob`` (one Bernoulli draw from
    ``rng_stream``; p = 1 draws nothing).  A beta = 1 scaling still makes
    the draw but never fires, as ``advance`` explains."""
    if state.update_every_k is not None:
        fire = t % state.update_every_k == 0
    elif state.update_prob < 1.0:
        fire = bool(rng_stream.random() < state.update_prob)
    else:
        fire = True
    return fire and state.beta != 1.0


def ema_clip_into(state, t, h, raw, clipped):
    """Fire update call number ``t`` of a scaling with ``state``'s
    hyperparameters, in place: ``raw <- b raw + (1 - b) h`` with
    b = beta_t(schedule, beta, t), then ``clipped <- max(e, D)`` (or
    ``D + e``) with D = sqrt(raw) for squared-ema and |raw| for
    additive-ema.  ``h`` is left as is.
    """
    # inline beta_t: schedule and beta were validated at construction
    if state.schedule == "constant-beta" or state.beta == 1.0:
        b = state.beta
    else:
        bp = state.beta ** (t + 1)
        b = (state.beta - bp) / (1.0 - bp)
    np.multiply(raw, b, out=raw)
    raw += (1.0 - b) * h
    if state.rule == "squared-ema":
        np.sqrt(raw, out=clipped)
    else:
        np.abs(raw, out=clipped)
    if state.clip_variant == "add":
        clipped += state.floor_e
    else:
        np.maximum(clipped, state.floor_e, out=clipped)


def _apply(state, h, fire):
    if fire:
        raw = state.raw.copy()
        clipped = np.empty_like(raw)
        ema_clip_into(state, state.t, h, raw, clipped)
        raw, clipped = P._freeze(raw), P._freeze(clipped)
    else:
        # clipping is a function of raw, so a skip keeps both arrays
        raw, clipped = state.raw, state.clipped
    out = object.__new__(ScalingState)
    d = out.__dict__
    d["rule"] = state.rule
    d["source"] = state.source
    d["schedule"] = state.schedule
    d["beta"] = state.beta
    d["floor_e"] = state.floor_e
    d["update_prob"] = state.update_prob
    d["raw"] = raw
    d["clipped"] = clipped
    d["d_x"] = state.d_x
    d["t"] = state.t + 1
    d["clip_variant"] = state.clip_variant
    d["update_every_k"] = state.update_every_k
    d["last_fired"] = fire
    return out


def update(state, h, rng_stream):
    """Advance the scaling by one call with the curvature vector ``h`` over
    both blocks: fire the EMA with probability ``update_prob`` (one shared
    Bernoulli draw; p = 1 draws nothing) or on the every-k schedule, then
    re-clip.  The time index advances either way.  A state with beta = 1
    (the identity preset) never fires, as ``advance`` explains.
    """
    h = _validate_curvature(state, h)
    return advance(state, rng_stream, lambda: h)


def advance(state, rng_stream, curvature_fn):
    """Like update, but curvature is only computed when the update actually
    fires — this keeps skipped steps free of oracle work, which is the
    point of probabilistic updates.

    ``curvature_fn`` must return a finite vector matching the state's
    length and representation (``curvature_for`` does); unlike ``update``
    nothing is re-validated here.

    With beta = 1 the EMA ``1*raw + 0*h`` equals ``raw`` for every finite
    ``h``, so such a state treats each call as a skip: it still makes the
    Bernoulli draw, but never calls ``curvature_fn``, keeps both arrays and
    reports ``last_fired`` False.  Fire counts and Hessian-vector product
    counts therefore cover only curvature that was computed.
    """
    fire = fires(state, state.t, rng_stream)
    return _apply(state, curvature_fn() if fire else None, fire)


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
    f_star = float(np.linalg.norm(P.field(p, p.z_star)))
    return f_star + p.L * float(region_radius) + p.noise_bound


def _effective_prob(state):
    if state.update_every_k is not None:
        return 1.0 / state.update_every_k
    return state.update_prob


def growth_constant(state, cap):
    """The beta-free growth coefficient C: p*Gamma^2/(2 e^2) for the
    squared rule, 2 p Gamma / e for the additive rule."""
    p_eff = _effective_prob(state)
    if state.rule == "squared-ema":
        return p_eff * cap * cap / (2.0 * state.floor_e * state.floor_e)
    return 2.0 * p_eff * cap / state.floor_e


def growth_factor(state, cap):
    """Upper bound on clipped_{next}/clipped_{now} per entry for the next
    update: 1 + (1 - beta_next) * C with C = growth_constant."""
    b = beta_t(state.schedule, state.beta, state.t)
    return 1.0 + (1.0 - b) * growth_constant(state, cap)
