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


@dataclass(frozen=True)
class CurvatureDiag:
    """Per-coordinate curvature for one update: squared entries for the
    squared-ema rule, signed entries for the additive-ema rule."""

    hx: np.ndarray
    hy: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "hx", np.asarray(self.hx, dtype=np.float64))
        object.__setattr__(self, "hy", np.asarray(self.hy, dtype=np.float64))
        if not (np.isfinite(self.hx).all() and np.isfinite(self.hy).all()):
            raise NonFiniteError("curvature entries must be finite")

    @staticmethod
    def _owned(hx, hy):
        """Internal fast path: wrap freshly computed float64 blocks.  Skips
        the dtype coercion but still rejects overflow to non-finite."""
        if not (np.isfinite(hx).all() and np.isfinite(hy).all()):
            raise NonFiniteError("curvature entries must be finite")
        self = object.__new__(CurvatureDiag)
        object.__setattr__(self, "hx", hx)
        object.__setattr__(self, "hy", hy)
        return self


@dataclass(frozen=True, eq=False)
class ScalingState:
    """Immutable snapshot of the diagonal scaling.

    raw_x/raw_y hold the running average (squared diagonals for squared-ema);
    clipped_x/clipped_y are the floored entries actually dividing gradients.
    ``t`` counts update calls, fired or skipped, so beta schedules depend
    only on time.
    """

    rule: str
    source: str
    schedule: str
    beta: float
    floor_e: float
    update_prob: float
    raw_x: np.ndarray
    raw_y: np.ndarray
    clipped_x: np.ndarray
    clipped_y: np.ndarray
    t: int = 0
    clip_variant: str = "max"
    update_every_k: int | None = None
    last_fired: bool = False

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
            raw_x=np.zeros(d_x), raw_y=np.zeros(d_y),
            clipped_x=np.full(d_x, float(floor_e)),
            clipped_y=np.full(d_y, float(floor_e)),
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
    return CurvatureDiag._owned(g.gx * g.gx, g.gy_neg * g.gy_neg)


def hutchinson_probe(p, z, v_x, v_y, s):
    """Diagonal probe v * (H v) per block for a given sign vector."""
    hx, hy = P.hvp(p, z, v_x, v_y, s)
    return CurvatureDiag._owned(np.asarray(v_x) * hx, np.asarray(v_y) * hy)


def curvature_hutchinson(p, z, s, rng_stream):
    """Rademacher diagonal estimate: draw v with i.i.d. +-1 entries from
    rng_stream, return v * (H v) per block (unbiased for the diagonal).

    The signs come from thresholding uniforms (exactly fair on the 53-bit
    grid), which is measurably cheaper per draw than a bounded-integer
    call on this hot path.
    """
    v = np.where(rng_stream.random(p.d_x + p.d_y) < 0.5, -1.0, 1.0)
    out = np.empty(v.shape[0])
    P.hvp_into(p, z.as_vector(), v, out)
    out *= v
    return CurvatureDiag._owned(out[: p.d_x], out[p.d_x :])


def curvature_for(state, problem, z, g, s, rademacher_rng):
    """Curvature in the representation ``state.rule`` expects.

    grad-square natively produces squares; hutchinson produces signed
    entries.  The mismatched pairings convert (sqrt for additive consumers,
    square for squared consumers).
    """
    if state.source == "grad-square":
        h = curvature_grad_square(g)
        if state.rule == "squared-ema":
            return h
        return CurvatureDiag._owned(np.sqrt(h.hx), np.sqrt(h.hy))
    h = curvature_hutchinson(problem, z, s, rademacher_rng)
    if state.rule == "squared-ema":
        return CurvatureDiag._owned(h.hx * h.hx, h.hy * h.hy)
    return h


# ---------------------------------------------------------------------------
# the update itself


def _clip(rule, raw, floor_e, variant):
    d = np.sqrt(raw) if rule == "squared-ema" else np.abs(raw)
    if variant == "add":
        return d + floor_e
    return np.maximum(floor_e, d)


def _validate_curvature(state, h):
    if h.hx.shape != state.raw_x.shape or h.hy.shape != state.raw_y.shape:
        raise DimensionMismatchError(
            f"curvature shape ({h.hx.shape[0]},{h.hy.shape[0]}) does not match "
            f"state ({state.raw_x.shape[0]},{state.raw_y.shape[0]})")
    if state.rule == "squared-ema" and (np.any(h.hx < 0) or np.any(h.hy < 0)):
        raise InvalidParameterError("squared-ema needs non-negative curvature")


def _decide_fire(state, rng_stream):
    if state.update_every_k is not None:
        return state.t % state.update_every_k == 0
    if state.update_prob < 1.0:
        return bool(rng_stream.random() < state.update_prob)
    return True


def _apply(state, h, fire):
    if fire:
        # inline beta_t: schedule and beta were validated at construction
        if state.schedule == "constant-beta" or state.beta == 1.0:
            b = state.beta
        else:
            bp = state.beta ** (state.t + 1)
            b = (state.beta - bp) / (1.0 - bp)
        raw_x = b * state.raw_x + (1.0 - b) * h.hx
        raw_y = b * state.raw_y + (1.0 - b) * h.hy
    else:
        raw_x, raw_y = state.raw_x, state.raw_y
    out = object.__new__(ScalingState)
    d = out.__dict__
    d["rule"] = state.rule
    d["source"] = state.source
    d["schedule"] = state.schedule
    d["beta"] = state.beta
    d["floor_e"] = state.floor_e
    d["update_prob"] = state.update_prob
    d["raw_x"] = raw_x
    d["raw_y"] = raw_y
    d["clipped_x"] = _clip(state.rule, raw_x, state.floor_e, state.clip_variant)
    d["clipped_y"] = _clip(state.rule, raw_y, state.floor_e, state.clip_variant)
    d["t"] = state.t + 1
    d["clip_variant"] = state.clip_variant
    d["update_every_k"] = state.update_every_k
    d["last_fired"] = fire
    return out


def update(state, h, rng_stream):
    """Advance the scaling by one call: fire the EMA with probability
    ``update_prob`` (one shared Bernoulli draw; p = 1 draws nothing) or on
    the every-k schedule, then re-clip.  The time index advances either way.
    """
    _validate_curvature(state, h)
    return _apply(state, h, _decide_fire(state, rng_stream))


def advance(state, rng_stream, curvature_fn):
    """Like update, but curvature is only computed when the update actually
    fires — this keeps skipped steps free of oracle work, which is the
    point of probabilistic updates.

    ``curvature_fn`` must return a CurvatureDiag matching the state's blocks
    and representation (``curvature_for`` does); unlike ``update`` no
    re-validation happens here beyond the constructor's finite check.
    """
    fire = _decide_fire(state, rng_stream)
    h = None
    if fire:
        h = curvature_fn()
    return _apply(state, h, fire)


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
