"""Stochastic saddle-point problems min_x max_y f(x, y).

Three generator families, each with a known solution z* where the field
F(z) = (grad_x f, -grad_y f) vanishes:

* quadratic:  f(x,y) = 1/2 x'Ax + x'By - 1/2 y'Cy + a'x - c'y with
  A, C symmetric positive definite (strongly convex-strongly concave),
* bilinear:   f(x,y) = x'By (monotone but not strongly so),
* minty-example: a 1+1 dimensional non-monotone coupling xy + phi(x) - phi(y)
  whose field still satisfies <F(z), z - z*> >= 0 everywhere (certified on a
  grid before the problem is exposed).

Stochasticity is an additive clipped-Gaussian perturbation of the exact
gradient: zero mean, per-coordinate variance sigma^2, hard norm bound
``noise_bound``, scaled by 1/sqrt(batch).  That keeps the variance bound
exact on all of R^d and leaves per-sample Hessians equal to the true ones.
"""

import math
import threading
from dataclasses import dataclass, field as _dc_field

import numpy as np

from .errors import (
    CapabilityError,
    DimensionMismatchError,
    InvalidParameterError,
    NoUniqueSolutionError,
    NonFiniteError,
    PreconditionError,
)

KINDS = ("quadratic", "bilinear", "minty-example")


def _as_vector(v, name):
    arr = np.ascontiguousarray(np.asarray(v, dtype=np.float64))
    if arr.ndim != 1:
        raise InvalidParameterError(f"{name} must be a 1-d real vector")
    return arr


def _freeze(arr):
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PointPair:
    """A primal-dual iterate z = (x, y).

    Entries must be finite; block lengths are fixed by the owning problem.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _freeze(_as_vector(self.x, "x").copy()))
        object.__setattr__(self, "y", _freeze(_as_vector(self.y, "y").copy()))
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise NonFiniteError("PointPair entries must be finite")

    @property
    def d_x(self):
        return self.x.shape[0]

    @property
    def d_y(self):
        return self.y.shape[0]

    def as_vector(self):
        """Concatenation [x; y]: read-only, cached after the first call."""
        cat = getattr(self, "_cat", None)
        if cat is None:
            cat = _freeze(np.concatenate([self.x, self.y]))
            object.__setattr__(self, "_cat", cat)
        return cat


@dataclass(frozen=True, eq=False)
class SaddleProblem:
    """Immutable oracle bundle for one saddle-point instance.

    ``mu`` is the strong-convexity modulus (0 for bilinear/minty), ``L`` a
    certified Lipschitz constant of the field, ``sigma`` the per-coordinate
    noise scale and ``noise_bound`` the hard bound on the noise norm.
    """

    kind: str
    d_x: int
    d_y: int
    mu: float
    L: float
    sigma: float = 0.0
    noise_bound: float = 0.0
    seed: int = 0
    A: np.ndarray | None = None
    B: np.ndarray | None = None
    C: np.ndarray | None = None
    a: np.ndarray | None = None
    c: np.ndarray | None = None
    alpha: float = 0.0
    z_star: PointPair | None = None
    BT: np.ndarray | None = _dc_field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParameterError(f"unknown kind {self.kind!r}")
        if self.d_x < 1 or self.d_y < 1:
            raise InvalidParameterError("dimensions must be positive")
        if self.L <= 0:
            raise InvalidParameterError("L must be positive")
        if self.mu < 0:
            raise InvalidParameterError("mu must be non-negative")
        if self.sigma < 0:
            raise InvalidParameterError("sigma must be non-negative")
        if self.B is not None and self.BT is None:
            object.__setattr__(self, "BT", self.B.T.copy())
        for name in ("A", "B", "C", "BT"):
            m = getattr(self, name)
            if m is not None:
                m = np.ascontiguousarray(np.asarray(m, dtype=np.float64))
                object.__setattr__(self, name, _freeze(m))
        for name in ("a", "c"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, _freeze(_as_vector(v, name).copy()))

    # -- convenience constructors -----------------------------------------

    @staticmethod
    def bilinear_from_matrix(B, sigma=0.0, noise_bound=None, seed=0):
        B = np.atleast_2d(np.asarray(B, dtype=np.float64))
        s = np.linalg.svd(B, compute_uv=False)
        L = float(s.max())
        z_star = None
        if B.shape[0] == B.shape[1] and s.min() > 1e-12 * max(1.0, s.max()):
            z_star = PointPair(np.zeros(B.shape[0]), np.zeros(B.shape[1]))
        return SaddleProblem(
            kind="bilinear", d_x=B.shape[0], d_y=B.shape[1], mu=0.0, L=L,
            sigma=sigma, noise_bound=_default_bound(sigma, noise_bound),
            seed=seed, B=B, z_star=z_star,
        )


def _default_bound(sigma, noise_bound):
    if noise_bound is None:
        return 10.0 * sigma
    if noise_bound < 0:
        raise InvalidParameterError("noise_bound must be non-negative")
    return float(noise_bound)


def _check_z(p, z):
    if z.d_x != p.d_x or z.d_y != p.d_y:
        raise DimensionMismatchError(
            f"iterate has dims ({z.d_x},{z.d_y}), problem wants ({p.d_x},{p.d_y})"
        )


# ---------------------------------------------------------------------------
# low-level evaluations on the concatenated representation (hot path)


_TLS = threading.local()


def _sample_rng(seed):
    """Counter-based generator keyed by ``seed``: draws equal those of
    ``np.random.Generator(np.random.Philox(key=seed))`` but the per-call
    setup is a state reset on a thread-local instance, not a construction
    (sample seeding sits on the hot path of every stochastic oracle call).

    The cached state dict of the fresh generator keeps its zero counter,
    empty buffer and no spare 32-bit word, so each reset only rewrites the
    two key words.
    """
    gen = getattr(_TLS, "gen", None)
    if gen is None:
        _TLS.bg = np.random.Philox(key=0)
        _TLS.gen = gen = np.random.Generator(_TLS.bg)
        _TLS.state = _TLS.bg.state
        _TLS.key = _TLS.state["state"]["key"]
    key = _TLS.key
    key[0] = seed & 0xFFFFFFFFFFFFFFFF
    key[1] = seed >> 64
    _TLS.bg.state = _TLS.state
    return gen


def field_into(p, z_cat, out):
    """Deterministic field F(z) written into ``out``; no oracle accounting."""
    if p.kind == "minty-example":
        # f(x, y) = x*y + phi(x) - phi(y) with phi'(u) = u + alpha*sin(u)
        out[0] = z_cat[1] + z_cat[0] + p.alpha * np.sin(z_cat[0])
        out[1] = -z_cat[0] + z_cat[1] + p.alpha * np.sin(z_cat[1])
        return out
    dx = p.d_x
    x = z_cat[:dx]
    y = z_cat[dx:]
    if p.kind == "quadratic":
        out[:dx] = np.dot(p.A, x) + np.dot(p.B, y) + p.a
        out[dx:] = np.dot(p.C, y) - np.dot(p.BT, x) + p.c
    else:
        out[:dx] = np.dot(p.B, y)
        out[dx:] = -np.dot(p.BT, x)
    return out


def hvp_into(p, z_cat, v_cat, out):
    """Per-block curvature-vector product written into ``out``.

    Convention: the x block carries the Hessian of f in x, the y block the
    Hessian of -f in y (so both blocks are positive for SC quadratics:
    (A v_x, C v_y)).
    """
    if p.kind == "quadratic":
        dx = p.d_x
        out[:dx] = np.dot(p.A, v_cat[:dx])
        out[dx:] = np.dot(p.C, v_cat[dx:])
    elif p.kind == "bilinear":
        out[:] = 0.0
    else:
        out[0] = (1.0 + p.alpha * np.cos(z_cat[0])) * v_cat[0]
        out[1] = (1.0 + p.alpha * np.cos(z_cat[1])) * v_cat[1]
    return out


def field(p, z):
    """Deterministic field F(z) as a concatenated vector."""
    _check_z(p, z)
    out = np.empty(p.d_x + p.d_y)
    return field_into(p, z.as_vector(), out)


def noise_into(p, seed, batch, out):
    """Clipped-Gaussian noise keyed by ``seed``, written into ``out``.

    Zero mean by symmetry, per-coordinate std sigma (> 0) before the (rare)
    norm clip at ``noise_bound``, scaled by 1/sqrt(batch).
    """
    rng = _sample_rng(seed)
    rng.standard_normal(out=out)
    out *= p.sigma
    n = math.sqrt(out @ out)
    if n > p.noise_bound:
        out *= p.noise_bound / n
    out /= math.sqrt(batch)
    return out


# ---------------------------------------------------------------------------
# public oracle operations


def add_noise(p, f, seed, batch):
    """Stochastic gradient from the exact field value ``f``: f plus the
    noise keyed by (seed, batch).

    Returns a new vector, or ``f`` itself on a noise-free problem; ``f`` is
    never written.  Raises NonFiniteError unless every entry is finite.
    """
    if batch < 1:
        raise InvalidParameterError("batch must be a positive integer")
    if seed < 0:
        raise InvalidParameterError("seed must be non-negative")
    g = f
    if p.sigma > 0.0:
        # noise + f rounds exactly like f + noise, and spares a copy of f
        g = noise_into(p, seed, batch, np.empty(f.shape[0]))
        g += f
    if not np.isfinite(g).all():
        raise NonFiniteError("gradient entries must be finite")
    return g


def gradient(p, z, seed, batch=1):
    """Stochastic gradient oracle at the concatenated iterate ``z``:
    F(z) + noise(seed)/sqrt(batch), as a new finite vector.

    Pure in (p, z, seed, batch); one call is one oracle call.
    """
    if z.shape != (p.d_x + p.d_y,):
        raise DimensionMismatchError(
            f"iterate has shape {z.shape}, problem wants ({p.d_x + p.d_y},)")
    return add_noise(p, field_into(p, z, np.empty(z.shape[0])), seed, batch)


def solve_exact(p):
    """Solve the stationarity system A x + B y + a = 0, -B'x + C y + c = 0."""
    if p.kind == "quadratic":
        dx, dy = p.d_x, p.d_y
        M = np.zeros((dx + dy, dx + dy))
        M[:dx, :dx] = p.A
        M[:dx, dx:] = p.B
        M[dx:, :dx] = -p.BT
        M[dx:, dx:] = p.C
        rhs = -np.concatenate([p.a, p.c])
        try:
            z = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError as exc:
            raise NoUniqueSolutionError("stationarity system is singular") from exc
        res = M @ z - rhs
        if np.linalg.norm(res) > 1e-10 * max(1.0, np.linalg.norm(rhs)):
            raise NoUniqueSolutionError("stationarity solve did not converge")
        return PointPair(z[:dx], z[dx:])
    if p.kind == "bilinear":
        if p.d_x != p.d_y:
            raise NoUniqueSolutionError("bilinear system must be square")
        s = np.linalg.svd(p.B, compute_uv=False)
        if s.min() <= 1e-12 * max(1.0, s.max()):
            raise NoUniqueSolutionError("bilinear coupling matrix is singular")
        return PointPair(np.zeros(p.d_x), np.zeros(p.d_y))
    raise CapabilityError("solve_exact supports quadratic and bilinear kinds")


def verify_minty(p, radius, grid_n):
    """Check <F(z), z - z*> >= -1e-12 on a uniform grid_n x grid_n grid
    over the radius-box around z*.  Only 1+1 dimensional problems qualify
    for exhaustive grid certification.
    """
    if p.z_star is None:
        raise PreconditionError("verify_minty needs a problem with known z_star")
    if grid_n < 2:
        raise InvalidParameterError("grid_n must be at least 2")
    if p.d_x != 1 or p.d_y != 1:
        raise CapabilityError("grid certification requires d_x = d_y = 1")
    xs = np.linspace(p.z_star.x[0] - radius, p.z_star.x[0] + radius, grid_n)
    ys = np.linspace(p.z_star.y[0] - radius, p.z_star.y[0] + radius, grid_n)
    X, Y = np.meshgrid(xs, ys)
    if p.kind == "quadratic":
        A, B, C = p.A[0, 0], p.B[0, 0], p.C[0, 0]
        a, c = p.a[0], p.c[0]
        FX = A * X + B * Y + a
        FY = C * Y - B * X + c
    elif p.kind == "bilinear":
        B = p.B[0, 0]
        FX = B * Y
        FY = -B * X
    else:
        FX = Y + X + p.alpha * np.sin(X)
        FY = -X + Y + p.alpha * np.sin(Y)
    inner = FX * (X - p.z_star.x[0]) + FY * (Y - p.z_star.y[0])
    return bool(inner.min() >= -1e-12)


# ---------------------------------------------------------------------------
# generators


def quadratic_from_matrices(A, B, C, a, c, sigma=0.0, noise_bound=None,
                            seed=0, require_sc=True):
    """Build a quadratic problem from explicit matrices.

    With ``require_sc`` the blocks must be symmetric with positive spectra
    (checked); ``require_sc=False`` skips the definiteness check and stores
    mu = 0, for deliberately adversarial instances.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    C = np.atleast_2d(np.asarray(C, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    a = _as_vector(a, "a")
    c = _as_vector(c, "c")
    dx, dy = A.shape[0], C.shape[0]
    if B.shape != (dx, dy) or a.shape[0] != dx or c.shape[0] != dy:
        raise DimensionMismatchError("block shapes are inconsistent")
    for name, M in (("A", A), ("C", C)):
        if not np.allclose(M, M.T, atol=1e-10 * max(1.0, np.abs(M).max())):
            raise InvalidParameterError(f"{name} must be symmetric")
    wA = np.linalg.eigvalsh(A)
    wC = np.linalg.eigvalsh(C)
    mu = float(min(wA.min(), wC.min()))
    if require_sc:
        if mu <= 0:
            raise InvalidParameterError("A and C must be positive definite")
    else:
        mu = max(0.0, mu)
    J = np.block([[A, B], [-B.T, C]])
    L = float(np.linalg.svd(J, compute_uv=False).max())
    prob = SaddleProblem(
        kind="quadratic", d_x=dx, d_y=dy, mu=mu, L=L, sigma=sigma,
        noise_bound=_default_bound(sigma, noise_bound), seed=seed,
        A=A, B=B, C=C, a=a, c=c,
    )
    z_star = None
    try:
        z_star = solve_exact(prob)
    except NoUniqueSolutionError:
        pass
    if z_star is None:
        return prob
    return SaddleProblem(
        kind="quadratic", d_x=dx, d_y=dy, mu=prob.mu, L=L, sigma=sigma,
        noise_bound=prob.noise_bound, seed=seed, A=A, B=B, C=C, a=a, c=c,
        z_star=z_star,
    )


def _random_orthogonal(rng, d):
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    return Q * np.sign(np.diag(R))


def _spd_with_spectrum(rng, eigs):
    d = eigs.shape[0]
    Q = _random_orthogonal(rng, d)
    M = (Q * eigs) @ Q.T
    return (M + M.T) / 2.0


def _log_uniform(rng, lo, hi, n):
    if n <= 0:
        return np.empty(0)
    if hi <= lo:
        return np.full(n, lo)
    return np.exp(rng.uniform(np.log(lo), np.log(hi), n))


def make_quadratic(d_x, d_y, mu, L, seed, sigma=0.0, noise_bound=None):
    """Random strongly convex-strongly concave quadratic.

    Spectra of A and C are log-uniform in [mu, L_A] with the endpoints
    pinned (L_A = max(mu, L/2)); B's singular values are uniform in
    [0, min(L/2, L - L_A)] so the field is certified L-Lipschitz and
    exactly mu-strongly monotone.  z_star is attached via solve_exact.
    """
    if d_x < 1 or d_y < 1:
        raise InvalidParameterError("dimensions must be positive")
    if not (0 < mu <= L):
        raise InvalidParameterError("need 0 < mu <= L")
    rng = np.random.default_rng(seed)
    L_A = max(mu, L / 2.0)
    s_B = min(L / 2.0, L - L_A)

    def block_eigs(d):
        if d == 1:
            return np.array([L_A])
        return np.concatenate([[mu, L_A], _log_uniform(rng, mu, L_A, d - 2)])

    A = _spd_with_spectrum(rng, block_eigs(d_x))
    C = _spd_with_spectrum(rng, block_eigs(d_y))
    d_min = min(d_x, d_y)
    U = _random_orthogonal(rng, d_x)[:, :d_min]
    V = _random_orthogonal(rng, d_y)[:, :d_min]
    svals = rng.uniform(0.0, s_B, d_min) if s_B > 0 else np.zeros(d_min)
    B = (U * svals) @ V.T
    a = rng.standard_normal(d_x)
    c = rng.standard_normal(d_y)

    prob = SaddleProblem(
        kind="quadratic", d_x=d_x, d_y=d_y, mu=float(mu), L=float(L),
        sigma=sigma, noise_bound=_default_bound(sigma, noise_bound),
        seed=seed, A=A, B=B, C=C, a=a, c=c,
    )
    z_star = solve_exact(prob)
    return SaddleProblem(
        kind="quadratic", d_x=d_x, d_y=d_y, mu=float(mu), L=float(L),
        sigma=sigma, noise_bound=prob.noise_bound, seed=seed,
        A=A, B=B, C=C, a=a, c=c, z_star=z_star,
    )


def make_bilinear(d, L, seed, sigma=0.0, noise_bound=None):
    """Bilinear coupling f(x,y) = x'By with the top singular value pinned
    to L and the rest uniform in [L/4, L] (nonsingular, so z* = 0)."""
    if d < 1:
        raise InvalidParameterError("d must be positive")
    if L <= 0:
        raise InvalidParameterError("L must be positive")
    rng = np.random.default_rng(seed)
    if d == 1:
        B = np.array([[float(L)]])
    else:
        svals = np.concatenate([[L], rng.uniform(L / 4.0, L, d - 1)])
        U = _random_orthogonal(rng, d)
        V = _random_orthogonal(rng, d)
        B = (U * svals) @ V.T
    return SaddleProblem(
        kind="bilinear", d_x=d, d_y=d, mu=0.0, L=float(L), sigma=sigma,
        noise_bound=_default_bound(sigma, noise_bound), seed=seed, B=B,
        z_star=PointPair(np.zeros(d), np.zeros(d)),
    )


def make_minty(seed, sigma=0.0, noise_bound=None):
    """Non-monotone 1+1 example f(x,y) = xy + phi(x) - phi(y) with
    phi'(u) = u + alpha*sin(u), alpha in [1.5, 2).

    The coupling term cancels in <F(z), z>, leaving
    x^2 + alpha*x*sin(x) + y^2 + alpha*y*sin(y) >= 0, so the minty
    inequality holds globally while the x-block curvature 1 + alpha*cos(x)
    goes negative (non-monotone).  Certified on a grid before returning.
    """
    rng = np.random.default_rng(seed)
    alpha = 1.5 + 0.5 * rng.random()
    prob = SaddleProblem(
        kind="minty-example", d_x=1, d_y=1, mu=0.0, L=float(2.0 + alpha),
        sigma=sigma, noise_bound=_default_bound(sigma, noise_bound),
        seed=seed, alpha=float(alpha),
        z_star=PointPair(np.zeros(1), np.zeros(1)),
    )
    if not verify_minty(prob, radius=10.0, grid_n=1001):
        raise AssertionError("internal error: minty candidate failed certification")
    return prob
