"""Tests for the problem generators and oracle interface.

Derived expectations are computed by independent oracles inside this file
(dense stationarity solves, vectorized grid evaluations, Monte-Carlo means)
rather than by the library code under test.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddle_scale.errors import (
    CapabilityError,
    DimensionMismatchError,
    InvalidParameterError,
    NoUniqueSolutionError,
    NonFiniteError,
    PreconditionError,
)
from saddle_scale.problems import (
    PointPair,
    SaddleProblem,
    _hvp_rows_into,
    add_noise,
    field_into,
    gradient,
    hvp_into,
    make_bilinear,
    make_minty,
    make_quadratic,
    noise_into,
    quadratic_from_matrices,
    solve_exact,
    verify_minty,
)


def kkt_solve_oracle(A, B, C, a, c):
    """Independent dense solve of A x + B y + a = 0, -B^T x + C y + c = 0."""
    dx = A.shape[0]
    dy = C.shape[0]
    M = np.zeros((dx + dy, dx + dy))
    M[:dx, :dx] = A
    M[:dx, dx:] = B
    M[dx:, :dx] = -B.T
    M[dx:, dx:] = C
    rhs = -np.concatenate([a, c])
    return np.linalg.solve(M, rhs)


def field_oracle(p, x, y):
    """Reference field evaluation straight from the matrices."""
    gx = p.A @ x + p.B @ y + p.a
    gy_neg = p.C @ y - p.B.T @ x + p.c
    return np.concatenate([gx, gy_neg])


# ---------------------------------------------------------------------------
# PointPair and gradient basics


def test_pointpair_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        PointPair(np.array([1.0, np.nan]), np.array([0.0]))
    with pytest.raises(NonFiniteError):
        PointPair(np.array([1.0]), np.array([np.inf]))


def test_oraclesample_validation():
    p = make_quadratic(2, 2, 0.5, 1.0, seed=0, sigma=0.1)
    with pytest.raises(InvalidParameterError):
        gradient(p, np.zeros(4), seed=1, batch=0)
    with pytest.raises(InvalidParameterError):
        gradient(p, np.zeros(4), seed=-1)
    for kw, name in ((dict(seed=1, batch=2.5), "batch"),
                     (dict(seed=1.5), "seed")):
        with pytest.raises(InvalidParameterError, match=f"^{name} must"):
            gradient(p, np.zeros(4), **kw)


def test_fieldvalue_zero_at_solution():
    p = make_quadratic(3, 2, 1.0, 5.0, seed=12)
    g = gradient(p, p.z_star.as_vector(), seed=0, batch=1)
    assert g.shape == (5,)
    assert np.linalg.norm(g) <= 1e-12


def test_gradient_rejects_non_finite():
    p = make_bilinear(1, 1.0, seed=0)
    with pytest.raises(NonFiniteError):
        gradient(p, np.array([1.0, np.inf]), seed=0)


# ---------------------------------------------------------------------------
# make_quadratic


def test_forced_scalar_quadratic_solution():
    # A=C=1, B=0, a=-1, c=0  =>  z* = (1, 0)
    p = quadratic_from_matrices(
        np.array([[1.0]]), np.array([[0.0]]), np.array([[1.0]]),
        np.array([-1.0]), np.array([0.0]),
    )
    z = solve_exact(p)
    assert z.x[0] == pytest.approx(1.0, abs=1e-14)
    assert z.y[0] == pytest.approx(0.0, abs=1e-14)


def test_quadratic_spectra_in_range():
    p = make_quadratic(2, 2, 0.1, 10.0, seed=7)
    for M in (p.A, p.C):
        w = np.linalg.eigvalsh(M)
        assert w.min() >= 0.1 - 1e-12
        assert w.max() <= 10.0 + 1e-9


def test_quadratic_solution_residual_against_dense_solve():
    p = make_quadratic(3, 2, 1.0, 5.0, seed=1)
    z_ref = kkt_solve_oracle(p.A, p.B, p.C, p.a, p.c)
    z_lib = np.concatenate([p.z_star.x, p.z_star.y])
    assert np.allclose(z_lib, z_ref, atol=1e-10)
    g = field_oracle(p, p.z_star.x, p.z_star.y)
    assert np.linalg.norm(g) <= 1e-10


def test_quadratic_parameter_validation():
    with pytest.raises(InvalidParameterError):
        make_quadratic(2, 2, 2.0, 1.0, seed=0)  # mu > L
    with pytest.raises(InvalidParameterError):
        make_quadratic(0, 2, 0.5, 1.0, seed=0)
    # NaN parameters are rejected up front, naming the parameter
    for build, name in (
            (lambda: make_quadratic(2, 2, 0.5, 1.0, seed=0, sigma=np.nan),
             "sigma"),
            (lambda: make_quadratic(2, 2, 0.5, 1.0, seed=0, sigma=1.0,
                                    noise_bound=np.nan), "noise_bound"),
            (lambda: SaddleProblem(kind="bilinear", d_x=1, d_y=1, mu=np.nan,
                                   L=1.0), "mu"),
            (lambda: make_bilinear(2, L=np.nan, seed=0), "L"),
            # infinite parameters too, before any numpy call overflows
            (lambda: make_quadratic(2, 2, 0.5, np.inf, seed=0), "L"),
            (lambda: make_quadratic(2, 2, np.inf, np.inf, seed=0), "mu"),
            (lambda: make_bilinear(2, L=np.inf, seed=0), "L"),
            (lambda: make_bilinear(1, L=np.inf, seed=0), "L"),
            (lambda: make_quadratic(2, 2, 0.5, 1.0, seed=0, sigma=np.inf),
             "sigma"),
            (lambda: make_quadratic(2, 2, 0.5, 1.0, seed=0, sigma=1.0,
                                    noise_bound=np.inf), "noise_bound"),
            (lambda: make_bilinear(2, L=1.0, seed=0, sigma=np.inf), "sigma"),
            (lambda: make_minty(seed=0, noise_bound=np.inf), "noise_bound"),
            # the dataclass itself, without a generator's own checks
            (lambda: SaddleProblem(kind="bilinear", d_x=1, d_y=1, mu=0.0,
                                   L=np.inf), "L"),
            (lambda: SaddleProblem(kind="bilinear", d_x=1, d_y=1,
                                   mu=np.inf, L=1.0), "mu")):
        with pytest.raises(InvalidParameterError, match=f"^{name} must"):
            build()
    # the arrays the field reads must be there, at the problem's dimensions
    q = make_quadratic(2, 2, 0.5, 1.0, seed=0)
    zero = PointPair(np.zeros(2), np.zeros(2))
    arrays = dict(A=q.A, B=q.B, C=q.C, a=q.a, c=q.c, z_star=zero)

    def quadratic(**changed):
        return SaddleProblem(kind="quadratic", d_x=2, d_y=2, mu=1.0, L=1.0,
                             **{**arrays, **changed})

    def bilinear(**kw):
        return SaddleProblem(kind="bilinear", d_x=2, d_y=2, mu=0.0, L=1.0,
                             **kw)

    for build, error, match in (
            (lambda: SaddleProblem(kind="quadratic", d_x=2, d_y=2, mu=1.0,
                                   L=1.0, z_star=zero),
             InvalidParameterError, "quadratic problem needs A"),
            (lambda: quadratic(c=None), InvalidParameterError,
             "quadratic problem needs c"),
            (lambda: bilinear(z_star=zero), InvalidParameterError,
             "bilinear problem needs B"),
            (lambda: bilinear(B=np.eye(3)), DimensionMismatchError,
             r"^B has shape \(3, 3\)"),
            (lambda: quadratic(B=np.ones((2, 3))), DimensionMismatchError,
             "^B has shape"),
            (lambda: quadratic(C=np.eye(3)), DimensionMismatchError,
             "^C has shape"),
            (lambda: quadratic(a=np.zeros(3)), DimensionMismatchError,
             r"^a has shape \(3,\)"),
            (lambda: bilinear(B=np.eye(2),
                              z_star=PointPair(np.zeros(2), np.zeros(3))),
             DimensionMismatchError, "^z_star has dimensions"),
            (lambda: quadratic(z_star=PointPair(np.zeros(1), np.zeros(2))),
             DimensionMismatchError, "^z_star has dimensions")):
        with pytest.raises(error, match=match):
            build()


def test_quadratic_certificates():
    # Smoothness and strong monotonicity over random pairs, straight from
    # the definitions.
    p = make_quadratic(4, 3, 0.5, 3.0, seed=5)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        z1 = rng.standard_normal(7)
        z2 = rng.standard_normal(7)
        f1 = field_oracle(p, z1[:4], z1[4:])
        f2 = field_oracle(p, z2[:4], z2[4:])
        dz = z1 - z2
        assert np.linalg.norm(f1 - f2) <= p.L * np.linalg.norm(dz) * (1 + 1e-12)
        assert (f1 - f2) @ dz >= p.mu * (dz @ dz) * (1 - 1e-10)


def test_recomputed_constants_bracket_inputs():
    p = make_quadratic(6, 4, 0.3, 2.0, seed=3)
    wA = np.linalg.eigvalsh(p.A)
    wC = np.linalg.eigvalsh(p.C)
    assert min(wA.min(), wC.min()) >= 0.3 - 1e-12
    J = np.block([[p.A, p.B], [-p.B.T, p.C]])
    smax = np.linalg.svd(J, compute_uv=False).max()
    assert smax <= 2.0 * (1 + 1e-9)


# ---------------------------------------------------------------------------
# make_bilinear


def test_bilinear_scalar_field():
    p = make_bilinear(1, 1.0, seed=0)
    g = gradient(p, np.array([2.0, 3.0]), seed=0, batch=1)
    assert g[0] == pytest.approx(3.0, abs=0)
    assert g[1] == pytest.approx(-2.0, abs=0)


def test_bilinear_top_singular_value_pinned():
    p = make_bilinear(2, 3.0, seed=11)
    s = np.linalg.svd(p.B, compute_uv=False)
    assert abs(s.max() - 3.0) <= 1e-12
    assert p.mu == 0.0
    z = solve_exact(p)
    assert np.all(z.x == 0.0) and np.all(z.y == 0.0)


def hvp_of(p, z, v):
    return hvp_into(p, z, v, np.full(v.shape[0], np.nan))


def test_bilinear_hvp_is_zero():
    p = make_bilinear(3, 2.0, seed=4)
    h = hvp_of(p, np.ones(6), np.ones(6))
    assert np.all(h == 0.0)


# ---------------------------------------------------------------------------
# hvp on quadratics


def test_hvp_identity_hessian():
    p = quadratic_from_matrices(np.eye(2), np.zeros((2, 2)), np.eye(2),
                                np.zeros(2), np.zeros(2))
    h = hvp_of(p, np.zeros(4), np.array([1.0, 2.0, 0.0, 0.0]))
    assert np.array_equal(h[:2], np.array([1.0, 2.0]))


def test_hvp_direct_matvec():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    p = quadratic_from_matrices(A, np.zeros((2, 2)), np.eye(2),
                                np.zeros(2), np.zeros(2))
    h = hvp_of(p, np.zeros(4), np.array([1.0, -1.0, 0.0, 0.0]))
    assert np.array_equal(h[:2], np.array([1.0, -2.0]))


def test_hvp_rows_equal_single_vector_products():
    # a block of probes on a problem with a constant Hessian gives, row for
    # row, the products hvp_into takes one vector at a time
    rng = np.random.default_rng(3)
    for p in (make_quadratic(4, 3, mu=0.5, L=2.0, seed=1),
              make_bilinear(3, 2.0, seed=4)):
        assert p.constant_hessian
        d = p.d_x + p.d_y
        V = rng.standard_normal((9, d))
        rows = _hvp_rows_into(p, V, np.full((9, d), np.nan))
        for v, got in zip(V, rows):
            assert np.array_equal(got, hvp_of(p, None, v))
    assert not make_minty(seed=2).constant_hessian


def test_hvp_minty_is_analytic_second_derivative():
    p = make_minty(seed=2)
    z = np.array([0.4, -1.3])
    h = hvp_of(p, z, np.array([1.0, -2.0]))
    np.testing.assert_allclose(h, [1.0 + p.alpha * np.cos(0.4),
                                   -2.0 * (1.0 + p.alpha * np.cos(-1.3))],
                               rtol=1e-15)


# ---------------------------------------------------------------------------
# minty example


def test_minty_certified_on_large_grid():
    p = make_minty(seed=3)
    assert p.kind == "minty-example"
    assert verify_minty(p, radius=10.0, grid_n=1000)
    # independent vectorized oracle for the same inequality
    xs = np.linspace(-10, 10, 1000)
    X, Y = np.meshgrid(xs, xs)
    fx = Y + X + p.alpha * np.sin(X)
    fy = -X + Y + p.alpha * np.sin(Y)
    inner = fx * X + fy * Y
    assert inner.min() >= -1e-12


@pytest.mark.parametrize("alpha, radius, grid_n", [
    (1.7, 10.0, 1001), (5.0, 10.0, 1001), (40.0, 3.0, 130), (1.9, 3.0, 64)])
def test_verify_minty_blocks_match_the_whole_grid(alpha, radius, grid_n):
    # the blocked certification against the whole grid at once, for passing
    # (alpha < 2) and failing alphas and grids that are not whole blocks
    p = SaddleProblem(kind="minty-example", d_x=1, d_y=1, mu=0.0,
                      L=2.0 + alpha, alpha=alpha,
                      z_star=PointPair(np.zeros(1), np.zeros(1)))
    xs = np.linspace(-radius, radius, grid_n)
    X, Y = np.meshgrid(xs, xs)
    inner = ((Y + X + alpha * np.sin(X)) * X
             + (-X + Y + alpha * np.sin(Y)) * Y)
    assert verify_minty(p, radius, grid_n) == (inner.min() >= -1e-12)


def test_minty_is_not_monotone():
    # the x-block curvature 1 + alpha*cos(x) must go negative somewhere,
    # otherwise the example would be monotone and uninteresting
    p = make_minty(seed=3)
    xs = np.linspace(-10, 10, 10001)
    assert (1 + p.alpha * np.cos(xs)).min() < 0


def test_minty_solution_and_field():
    p = make_minty(seed=0)
    g = gradient(p, p.z_star.as_vector(), seed=0)
    assert abs(g[0]) <= 1e-14 and abs(g[1]) <= 1e-14


def test_verify_minty_on_bilinear_and_quadratic():
    assert verify_minty(make_bilinear(1, 1.0, seed=0), radius=10.0, grid_n=100)
    p = quadratic_from_matrices(np.array([[1.0]]), np.array([[0.5]]),
                                np.array([[1.0]]), np.zeros(1), np.zeros(1))
    assert verify_minty(p, radius=5.0, grid_n=50)


def test_verify_minty_rejects_anti_convex_quadratic():
    # f = -x^2/2 + y^2/2 has its (only) stationary point at the origin,
    # where <F(z), z> = -x^2 - y^2 < 0 off the origin
    p = SaddleProblem(kind="quadratic", d_x=1, d_y=1, mu=0.0, L=1.0,
                      A=-np.eye(1), B=np.zeros((1, 1)), C=-np.eye(1),
                      a=np.zeros(1), c=np.zeros(1),
                      z_star=PointPair([0.0], [0.0]))
    assert not verify_minty(p, radius=1.0, grid_n=20)


def test_saddle_problem_converts_nested_lists_before_transposing():
    p = SaddleProblem(kind="quadratic", d_x=1, d_y=2, mu=0.0, L=1.0,
                      A=[[1.0]], B=[[0.0, 2.0]], C=[[1.0, 0.0], [0.0, 1.0]],
                      a=[0.0], c=[0.0, 0.0])
    np.testing.assert_array_equal(p.BT, [[0.0], [2.0]])
    for m in (p.A, p.B, p.C, p.BT):
        assert m.dtype == np.float64 and m.flags.c_contiguous
        assert not m.flags.writeable


def test_explicit_matrix_problems_take_noise_through_replace():
    p = SaddleProblem.bilinear_from_matrix([[2.0]])
    assert p.sigma == 0.0 and p.noise_bound == 0.0
    noisy = dataclasses.replace(p, sigma=0.5, noise_bound=5.0)
    assert (noisy.sigma, noisy.noise_bound, noisy.L) == (0.5, 5.0, 2.0)
    with pytest.raises(InvalidParameterError):
        dataclasses.replace(p, sigma=np.inf)


def test_verify_minty_preconditions():
    p = make_quadratic(2, 2, 0.5, 1.0, seed=0)
    with pytest.raises(CapabilityError):
        verify_minty(p, radius=1.0, grid_n=10)  # needs d = 1+1


# ---------------------------------------------------------------------------
# stochastic gradient oracle


def test_gradient_deterministic_given_seed():
    p = make_quadratic(3, 3, 0.5, 2.0, seed=1, sigma=1.0)
    z = np.concatenate([np.ones(3), -np.ones(3)])
    g1 = gradient(p, z, seed=99, batch=4)
    g2 = gradient(p, z, seed=99, batch=4)
    assert np.array_equal(g1, g2)
    g3 = gradient(p, z, seed=100, batch=4)
    assert not np.array_equal(g1[:3], g3[:3])


def test_gradient_noise_is_norm_bounded():
    sigma = 2.0
    p = make_quadratic(3, 3, 0.5, 2.0, seed=1, sigma=sigma)
    z = PointPair(np.zeros(3), np.zeros(3))
    f = field_into(p, z.as_vector(), np.empty(p.d_x + p.d_y))
    for seed in range(200):
        g = gradient(p, z.as_vector(), seed=seed, batch=4)
        noise = g - f
        assert np.linalg.norm(noise) <= p.noise_bound / np.sqrt(4) + 1e-12


def test_gradient_monte_carlo_mean():
    # empirical mean over N draws within 3*(sigma/sqrt(b))/sqrt(N) of F(z)
    sigma, b, n = 1.0, 4, 100_000
    p = make_quadratic(2, 2, 0.5, 2.0, seed=8, sigma=sigma)
    z = PointPair(np.array([0.3, -1.2]), np.array([0.7, 0.1]))
    f = field_into(p, z.as_vector(), np.empty(p.d_x + p.d_y))
    acc = np.zeros(4)
    for seed in range(n):
        acc += gradient(p, z.as_vector(), seed=seed, batch=b)
    mean = acc / n
    band = 3 * (sigma / np.sqrt(b)) / np.sqrt(n)
    assert np.all(np.abs(mean - f) <= band)


def noise_reference(p, key, batch):
    """One key's noise from a freshly constructed Philox generator, with
    the scalar formula: scale, clip the norm, divide by sqrt(batch)."""
    v = np.random.Generator(np.random.Philox(key=key)).standard_normal(
        p.d_x + p.d_y) * p.sigma
    n = math.sqrt(np.dot(v, v))
    if n > p.noise_bound:
        v *= p.noise_bound / n
    return v / math.sqrt(batch)


def test_noise_block_rows_equal_per_key_draws():
    p = make_quadratic(3, 2, 0.5, 2.0, seed=4, sigma=0.7, noise_bound=1.6)
    keys = [0, 1, 12345, 2**63 - 1, 2**70 + 3, 7, 8, 9]
    block = noise_into(p, keys, 4, np.empty((len(keys), 5)))
    clipped = 0
    for key, row in zip(keys, block):
        ref = noise_reference(p, key, 4)
        assert np.array_equal(row, ref)
        # a clipped row sits on the bound/sqrt(batch) sphere
        clipped += math.isclose(np.linalg.norm(row), 0.8, rel_tol=1e-12)
    assert 0 < clipped < len(keys)
    # a row does not depend on the block it is drawn in
    for k in range(len(keys)):
        one = noise_into(p, keys[k:k + 1], 4, np.empty((1, 5)))
        assert np.array_equal(one[0], block[k])


def test_add_noise_and_gradient_keep_their_vectors():
    # the digest of these vectors as the scalar noise formula produced them
    # before noise_into drew blocks; both problems' rows, clipped and not
    p = make_quadratic(3, 2, 0.5, 2.0, seed=4, sigma=0.7)
    z = np.array([0.3, -1.2, 0.5, 0.7, 0.1])
    h = hashlib.sha256()
    for prob in (p, dataclasses.replace(p, noise_bound=0.5)):
        f = field_into(prob, z, np.empty(5))
        for seed in (0, 1, 12345, 2**63 - 1, 2**70 + 3):
            for batch in (1, 4):
                g = add_noise(prob, f, seed, batch)
                assert np.array_equal(
                    g, f + noise_reference(prob, seed, batch))
                h.update(g.tobytes())
                h.update(gradient(prob, z, seed, batch).tobytes())
    assert h.hexdigest() == ("8b7386d4af0a69ed202c363c4e2f992f"
                             "283bb567d35cabd6bca66712d6a6344b")


# ---------------------------------------------------------------------------
# the numpy build's row-exact products that field_into, noise_into and run's
# records rely on


def test_vecdot_rows_equal_per_row_dot():
    rng = np.random.default_rng(0)
    for d in range(2, 1001):
        X = rng.standard_normal((3, d))
        Y = rng.standard_normal((3, d))
        got = np.vecdot(X, Y)
        assert [float(v) for v in got] == [
            float(np.dot(x, y)) for x, y in zip(X, Y)], d


@pytest.mark.parametrize("m", [1, 7, 65, 1000])
@pytest.mark.parametrize("d", [2, 5, 20, 100, 1000])
def test_matvec_rows_on_column_slices_equal_per_row_dot(d, m):
    # _hvp_rows_into takes one block's Hessian products by np.matvec on the
    # x and y column slices of a (m, d) block of probes
    rng = np.random.default_rng(d * m)
    dx = d // 2
    A = rng.standard_normal((dx, dx))
    C = rng.standard_normal((d - dx, d - dx))
    V = rng.standard_normal((m, d))
    out = np.empty((m, d))
    np.matvec(A, V[:, :dx], out=out[:, :dx])
    np.matvec(C, V[:, dx:], out=out[:, dx:])
    for v, got in zip(V, out):
        assert np.array_equal(got[:dx], np.dot(A, v[:dx]))
        assert np.array_equal(got[dx:], np.dot(C, v[dx:]))
    # a single vector through np.matvec is the one-row case
    assert np.array_equal(np.matvec(A, V[0, :dx]), np.dot(A, V[0, :dx]))


@pytest.mark.parametrize("k, d", [(1, 1), (7, 5), (65, 20), (300, 1000)])
def test_uniform_blocks_equal_single_draws(k, d):
    # run draws a block's skip uniforms with random(m) and its probes with
    # random((k, d)); the reference steps draw one call at a time
    blocks = np.random.default_rng(k + d)
    singles = np.random.default_rng(k + d)
    assert blocks.random(k).tolist() == [singles.random() for _ in range(k)]
    got = blocks.random(k * d).reshape(k, d)
    assert np.array_equal(got, [singles.random(d) for _ in range(k)])
    assert np.array_equal(blocks.random((k, d)),
                          [singles.random(d) for _ in range(k)])


@pytest.mark.parametrize("m, n", [(2, 2), (10, 7), (64, 64), (500, 500),
                                  (1000, 1000)])
def test_ndarray_dot_into_out_equals_np_dot(m, n):
    # field_into calls the method, which skips np.dot's dispatch
    rng = np.random.default_rng(m + n)
    A = rng.standard_normal((m, n))
    x = rng.standard_normal(n)
    want = np.empty(m + 3)
    got = np.empty(m + 3)
    np.dot(A, x, out=want[3:])
    A.dot(x, out=got[3:])
    assert np.array_equal(got[3:], want[3:])
    assert np.array_equal(A.dot(x), np.dot(A, x))


@pytest.mark.parametrize("rows, d", [(1, 3), (2, 20), (1000, 20), (65, 1000)])
def test_accumulate_rows_equal_running_sum(rows, d):
    # run's uniform sum accumulates a block of half-steps in place from the
    # carried sum in row 0; the steps add one half-step at a time
    rng = np.random.default_rng(rows * d)
    block = rng.standard_normal((rows + 1, d))
    running = block[0].copy()
    for row in block[1:]:
        running += row
    assert np.array_equal(np.add.accumulate(block, axis=0)[-1], running)
    np.add.accumulate(block, axis=0, out=block)
    assert np.array_equal(block[-1], running)


@pytest.mark.parametrize("m, n", [(2, 2), (3, 2), (10, 10), (10, 7),
                                  (20, 20), (64, 64), (300, 500),
                                  (500, 500), (1000, 1000)])
def test_dot_into_out_equals_dot(m, n):
    rng = np.random.default_rng(m * n)
    A = rng.standard_normal((m, n))
    x = rng.standard_normal(n)
    # field_into writes into the x and y slices of one vector
    buf = np.empty(m + 3)
    np.dot(A, x, out=buf[3:])
    assert np.array_equal(buf[3:], np.dot(A, x))
    o = np.empty(m)
    np.dot(A, x, out=o)
    assert np.array_equal(o, np.dot(A, x))


@pytest.mark.parametrize("sizes", [[1], [7], [1000], [1000, 1, 536, 1000]])
def test_key_blocks_equal_single_key_draws(sizes):
    # run draws its noise keys a block at a time and the reference steps
    # one per call; both must yield one sequence
    singles = np.random.default_rng(9)
    blocks = np.random.default_rng(9)
    want = [singles.integers(2**63) for _ in range(sum(sizes))]
    got = np.concatenate([blocks.integers(2**63, size=m) for m in sizes])
    assert got.tolist() == want


@pytest.mark.parametrize("d", [10, 500])
def test_field_into_equals_the_field_expression(d):
    # field_into sums its blocks in place; that must round exactly like
    # the expression it replaced
    p = make_quadratic(d // 2, d // 2, 0.5, 2.0, seed=d)
    b = make_bilinear(d // 2, 2.0, seed=d)
    rng = np.random.default_rng(d)
    dx = d // 2
    for _ in range(200):
        z = rng.standard_normal(d)
        x, y = z[:dx], z[dx:]
        want = np.concatenate([np.dot(p.A, x) + np.dot(p.B, y) + p.a,
                               np.dot(p.C, y) - np.dot(p.BT, x) + p.c])
        assert np.array_equal(field_into(p, z, np.empty(d)), want)
        want = np.concatenate([np.dot(b.B, y), -np.dot(b.BT, x)])
        assert np.array_equal(field_into(b, z, np.empty(d)), want)


def test_gradient_validation():
    p = make_quadratic(2, 2, 0.5, 1.0, seed=0)
    with pytest.raises(DimensionMismatchError):
        gradient(p, np.zeros(5), seed=0)


# ---------------------------------------------------------------------------
# solve_exact


def test_solve_exact_random_sc_quadratic():
    p = make_quadratic(4, 4, 0.2, 3.0, seed=11)
    z = solve_exact(p)
    res = field_oracle(p, z.x, z.y)
    assert np.linalg.norm(res) <= 1e-10


def test_solve_exact_singular_bilinear():
    B = np.array([[1.0, 0.0], [0.0, 0.0]])  # singular
    p = SaddleProblem.bilinear_from_matrix(B)
    with pytest.raises(NoUniqueSolutionError):
        solve_exact(p)


@pytest.mark.parametrize("B, solvable", [
    ([[1.0, 0.0], [0.0, 0.0]], False),
    ([[1.0, 2.0, 3.0], [0.5, 0.0, 1.0]], False),
    ([[2.0, 1.0], [0.0, 3.0]], True),
])
def test_bilinear_from_matrix_has_z_star_only_when_solvable(B, solvable):
    p = SaddleProblem.bilinear_from_matrix(np.array(B))
    if not solvable:
        assert p.z_star is None
        return
    np.testing.assert_array_equal(p.z_star.as_vector(), np.zeros(4))
    assert p.L == pytest.approx(np.linalg.norm(B, 2), rel=1e-15)


def test_solve_exact_unsupported_kind():
    with pytest.raises(CapabilityError):
        solve_exact(make_minty(seed=0))


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_generated_problems_have_valid_solutions(dx, dy, seed):
    p = make_quadratic(dx, dy, 0.5, 2.0, seed=seed)
    res = field_oracle(p, p.z_star.x, p.z_star.y)
    assert np.linalg.norm(res) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_minty_family_always_certified(seed):
    p = make_minty(seed=seed)
    assert verify_minty(p, radius=10.0, grid_n=300)
