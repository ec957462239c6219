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

import dataclasses
import math
import operator
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
# the arrays each kind's field reads
_NEEDS = {"quadratic": ("A", "B", "C", "a", "c"), "bilinear": ("B",),
          "minty-example": ()}

MINTY_BLOCK_ROWS = 64  # grid rows per block in verify_minty


def _as_vector(v, name):
    arr = np.ascontiguousarray(np.asarray(v, dtype=np.float64))
    if arr.ndim != 1:
        raise InvalidParameterError(f"{name} must be a 1-d real vector")
    return arr


def _as_count(v, name):
    """``v`` as an int; counts must be integral (numpy ints qualify)."""
    try:
        return operator.index(v)
    except TypeError:
        raise InvalidParameterError(f"{name} must be an integer") from None


def _freeze(arr):
    arr.flags.writeable = False
    return arr


def _all_finite(v):
    """Whether every entry of ``v`` is finite; a finite dot(v, v) proves it
    without the entrywise test."""
    return math.isfinite(v.dot(v)) or bool(np.isfinite(v).all())


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
        if not 0 < self.L < math.inf:
            raise InvalidParameterError("L must be positive and finite")
        for name in ("mu", "sigma", "noise_bound"):
            if not 0 <= getattr(self, name) < math.inf:
                raise InvalidParameterError(
                    f"{name} must be non-negative and finite")
        for name in _NEEDS[self.kind]:
            if getattr(self, name) is None:
                raise InvalidParameterError(
                    f"a {self.kind} problem needs {name}")
        dx, dy = self.d_x, self.d_y
        for name, shape in (("A", (dx, dx)), ("B", (dx, dy)),
                            ("C", (dy, dy)), ("BT", (dy, dx)),
                            ("a", (dx,)), ("c", (dy,))):
            m = getattr(self, name)
            if m is None:
                continue
            if name in ("a", "c"):
                m = _as_vector(m, name).copy()
            else:
                m = np.ascontiguousarray(np.asarray(m, dtype=np.float64))
            if m.shape != shape:
                raise DimensionMismatchError(
                    f"{name} has shape {m.shape}, not {shape}")
            object.__setattr__(self, name, _freeze(m))
        if self.B is not None and self.BT is None:
            object.__setattr__(self, "BT", _freeze(self.B.T.copy()))
        z = self.z_star
        if z is not None and (z.d_x, z.d_y) != (dx, dy):
            raise DimensionMismatchError(
                f"z_star has dimensions ({z.d_x}, {z.d_y}), not ({dx}, {dy})")

    @property
    def constant_hessian(self):
        """Whether ``hvp_into``'s curvature is the same at every point: the
        quadratic's (A, C) blocks and the bilinear zero; only minty's varies.
        Such a problem's products can be taken a block of vectors at a time
        (``_hvp_rows_into``)."""
        return self.kind != "minty-example"

    # -- convenience constructors -----------------------------------------

    @staticmethod
    def bilinear_from_matrix(B):
        """Noise-free bilinear problem f(x, y) = x'By with L the top singular
        value of B; z* = 0 when ``solve_exact`` finds B square and
        nonsingular, else None.  Add noise with
        ``dataclasses.replace(p, sigma=s, noise_bound=b)``."""
        B = np.atleast_2d(np.asarray(B, dtype=np.float64))
        prob = SaddleProblem(
            kind="bilinear", d_x=B.shape[0], d_y=B.shape[1], mu=0.0,
            L=float(np.linalg.svd(B, compute_uv=False).max()), B=B,
        )
        try:
            return dataclasses.replace(prob, z_star=solve_exact(prob))
        except NoUniqueSolutionError:
            return prob


def _default_bound(sigma, noise_bound):
    return 10.0 * sigma if noise_bound is None else float(noise_bound)


# ---------------------------------------------------------------------------
# low-level evaluations on the concatenated representation (hot path)


_TLS = threading.local()


def _sample_rng():
    """Thread-local counter-based generator, its bit generator and the
    cached state dict whose two key words ``noise_into`` rewrites.

    After ``key[0], key[1] = seed % 2**64, seed >> 64`` and
    ``bg.state = state`` the generator draws what
    ``np.random.Generator(np.random.Philox(key=seed))`` draws, at the cost
    of a state reset and not of a construction (sample seeding sits on the
    hot path of every stochastic oracle call).  The cached state keeps its
    zero counter, empty buffer and no spare 32-bit word.
    """
    gen = getattr(_TLS, "gen", None)
    if gen is None:
        _TLS.bg = np.random.Philox(key=0)
        _TLS.gen = gen = np.random.Generator(_TLS.bg)
        _TLS.state = _TLS.bg.state
    return gen, _TLS.bg, _TLS.state


def field_into(p, z_cat, out):
    """Deterministic field F(z) written into ``out``; no oracle accounting.

    ``z_cat`` may also be a (d_x + d_y, M) stack of M points, one per
    column, for a 1+1 dimensional problem (``verify_minty`` evaluates its
    grid that way); ``out`` then has the same shape.
    """
    if p.kind == "minty-example":
        # f(x, y) = x*y + phi(x) - phi(y) with phi'(u) = u + alpha*sin(u)
        out[0] = z_cat[1] + z_cat[0] + p.alpha * np.sin(z_cat[0])
        out[1] = -z_cat[0] + z_cat[1] + p.alpha * np.sin(z_cat[1])
        return out
    dx = p.d_x
    x = z_cat[:dx]
    y = z_cat[dx:]
    ox = out[:dx]
    oy = out[dx:]
    # ((A x + B y) + a, (C y - B'x) + c), summed in place in that order;
    # ndarray.dot runs np.dot's routine without its dispatch
    if p.kind == "quadratic":
        p.A.dot(x, out=ox)
        ox += p.B.dot(y)
        ox += p.a
        p.C.dot(y, out=oy)
        oy -= p.BT.dot(x)
        oy += p.c
    else:
        p.B.dot(y, out=ox)
        p.BT.dot(x, out=oy)
        np.negative(oy, out=oy)
    return out


def hvp_into(p, z_cat, v_cat, out):
    """Per-block curvature-vector product written into ``out``.

    Convention: the x block carries the Hessian of f in x, the y block the
    Hessian of -f in y (so both blocks are positive for SC quadratics:
    (A v_x, C v_y)).
    """
    if p.constant_hessian:
        return _hvp_rows_into(p, v_cat, out)
    out[0] = (1.0 + p.alpha * np.cos(z_cat[0])) * v_cat[0]
    out[1] = (1.0 + p.alpha * np.cos(z_cat[1])) * v_cat[1]
    return out


def _hvp_rows_into(p, v_cat, out):
    """``hvp_into`` for a problem with ``constant_hessian``, where no point
    is needed: ``v_cat`` is one vector or an (m, d_x + d_y) block of them,
    one per row, and ``out`` has its shape.  ``np.matvec``'s rows equal the
    single-vector products."""
    if p.kind == "quadratic":
        dx = p.d_x
        np.matvec(p.A, v_cat[..., :dx], out=out[..., :dx])
        np.matvec(p.C, v_cat[..., dx:], out=out[..., dx:])
    else:
        out[...] = 0.0
    return out


def noise_into(p, seeds, batch, out):
    """Clipped-Gaussian noise written into the (m, d) block ``out``, row i
    keyed by ``seeds[i]``.

    Zero mean by symmetry, per-coordinate std sigma (> 0) before the (rare)
    norm clip at ``noise_bound``, scaled by 1/sqrt(batch).  Only the Philox
    reset and the draw run per row; the scaling, the norms (``np.vecdot``
    rows, which equal the per-row ``np.dot``), the clip and the division
    run once over the block, so a row does not depend on the block it is
    drawn in.
    """
    gen, bg, state = _sample_rng()
    key = state["state"]["key"]
    for seed, row in zip(seeds, out):
        key[0] = seed & 0xFFFFFFFFFFFFFFFF
        key[1] = seed >> 64
        bg.state = state
        gen.standard_normal(out=row)
    out *= p.sigma
    norms = np.sqrt(np.vecdot(out, out))
    over = norms > p.noise_bound
    if over.any():
        out[over] *= (p.noise_bound / norms[over])[:, None]
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
    if _as_count(batch, "batch") < 1:
        raise InvalidParameterError("batch must be a positive integer")
    if _as_count(seed, "seed") < 0:
        raise InvalidParameterError("seed must be non-negative")
    g = f
    if p.sigma > 0.0:
        # noise + f rounds exactly like f + noise, and spares a copy of f
        g = noise_into(p, (seed,), batch, np.empty((1, f.shape[0])))[0]
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

    The grid is evaluated MINTY_BLOCK_ROWS rows at a time, so memory stays
    O(grid_n) per block however fine the grid.
    """
    if p.z_star is None:
        raise PreconditionError("verify_minty needs a problem with known z_star")
    if grid_n < 2:
        raise InvalidParameterError("grid_n must be at least 2")
    if p.d_x != 1 or p.d_y != 1:
        raise CapabilityError("grid certification requires d_x = d_y = 1")
    x0, y0 = p.z_star.x[0], p.z_star.y[0]
    xs = np.linspace(x0 - radius, x0 + radius, grid_n)
    ys = np.linspace(y0 - radius, y0 + radius, grid_n)
    for start in range(0, grid_n, MINTY_BLOCK_ROWS):
        X, Y = np.meshgrid(xs, ys[start:start + MINTY_BLOCK_ROWS])
        Z = np.stack([X.ravel(), Y.ravel()])
        F = field_into(p, Z, np.empty_like(Z))
        inner = F[0] * (Z[0] - x0) + F[1] * (Z[1] - y0)
        if not inner.min() >= -1e-12:
            return False
    return True


# ---------------------------------------------------------------------------
# generators


def quadratic_from_matrices(A, B, C, a, c):
    """Build a noise-free strongly convex-strongly concave quadratic from
    explicit matrices: A and C must be symmetric with positive spectra
    (checked), and mu is the smaller of their least eigenvalues.  Add noise
    with ``dataclasses.replace(p, sigma=s, noise_bound=b)``.
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
    if mu <= 0:
        raise InvalidParameterError("A and C must be positive definite")
    J = np.block([[A, B], [-B.T, C]])
    L = float(np.linalg.svd(J, compute_uv=False).max())
    prob = SaddleProblem(
        kind="quadratic", d_x=dx, d_y=dy, mu=mu, L=L, A=A, B=B, C=C, a=a, c=c,
    )
    try:
        return dataclasses.replace(prob, z_star=solve_exact(prob))
    except NoUniqueSolutionError:
        return prob


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
    for name, v in (("mu", mu), ("L", L)):
        if not math.isfinite(v):
            raise InvalidParameterError(f"{name} must be finite")
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
        A=A, B=B, C=C, a=a, c=c,
    )
    return dataclasses.replace(prob, z_star=solve_exact(prob))


def make_bilinear(d, L, seed, sigma=0.0, noise_bound=None):
    """Bilinear coupling f(x,y) = x'By with the top singular value pinned
    to L and the rest uniform in [L/4, L] (nonsingular, so z* = 0)."""
    if d < 1:
        raise InvalidParameterError("d must be positive")
    if not 0 < L < math.inf:
        raise InvalidParameterError("L must be positive and finite")
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
        noise_bound=_default_bound(sigma, noise_bound), B=B,
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
        alpha=float(alpha),
        z_star=PointPair(np.zeros(1), np.zeros(1)),
    )
    if not verify_minty(prob, radius=10.0, grid_n=1001):
        raise AssertionError("internal error: minty candidate failed certification")
    return prob
