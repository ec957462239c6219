"""Convergence measures: weighted distances, the restricted gap, per-step
contraction audits, rate fitting, and the scalar inequality helper.

The restricted-gap inner solver is checked against a dense-grid oracle for
1+1 dimensional quadratics (the grid is independent of the trust-region
solver under test) and against hand-derived closed forms for bilinear
couplings.
"""

import dataclasses
import math

import numpy as np
import pytest

from saddle_scale.errors import (
    CapabilityError,
    InvalidParameterError,
    PreconditionError,
)
from saddle_scale.metrics import (
    RECORD_FIELDS,
    Records,
    RunRecord,
    _ball_extremum,
    check_scalar_inequality,
    contraction_check,
    fit_rate,
    gap_restricted,
    noise_floor,
    weighted_dist_sq,
)
from saddle_scale.precond import ScalingState, scaling_preset
from saddle_scale.problems import (
    PointPair,
    SaddleProblem,
    make_bilinear,
    make_minty,
    make_quadratic,
    quadratic_from_matrices,
)


def state_with_clipped(cx, cy, floor_e=0.01):
    s = ScalingState.create(
        rule="additive-ema", source="hutchinson", schedule="constant-beta",
        beta=0.9, floor_e=floor_e, update_prob=1.0,
        d_x=len(cx), d_y=len(cy))
    return dataclasses.replace(s, clipped=np.concatenate(
        [np.asarray(cx, float), np.asarray(cy, float)]))


def grid_gap_oracle(p, z_avg, omega, n=200_001):
    """Dense-grid restricted gap for 1+1 dimensional quadratics."""
    A, B, C = p.A[0, 0], p.B[0, 0], p.C[0, 0]
    a, c = p.a[0], p.c[0]

    def f(x, y):
        return 0.5 * A * x * x + B * x * y - 0.5 * C * y * y + a * x - c * y

    xs = np.linspace(-omega, omega, n)
    ys = np.linspace(-omega, omega, n)
    return float(f(z_avg.x[0], ys).max() - f(xs, z_avg.y[0]).min())


# ---------------------------------------------------------------------------
# weighted distance


def test_weighted_dist_zero_at_solution():
    s = state_with_clipped([2.0], [3.0])
    z = np.array([1.5, -0.5])
    assert weighted_dist_sq(z, z, s) == 0.0


def test_weighted_dist_euclidean_when_clipped_is_one():
    s = state_with_clipped([1.0], [1.0])
    assert weighted_dist_sq(np.array([3.0, 4.0]), np.zeros(2), s) == 25.0


def test_weighted_dist_hand_value():
    s = state_with_clipped([2.0], [0.5])
    assert weighted_dist_sq(np.array([1.0, 2.0]), np.zeros(2), s) == 4.0


def test_weighted_dist_requires_solution():
    s = state_with_clipped([1.0], [1.0])
    with pytest.raises(InvalidParameterError):
        weighted_dist_sq(np.ones(2), None, s)


def test_weighted_dist_sandwich():
    rng = np.random.default_rng(0)
    p = make_quadratic(4, 3, mu=0.5, L=2.0, seed=1)
    s = scaling_preset("oasis", 4, 3)
    e, cap = s.floor_e, np.sqrt(7) * p.L
    for _ in range(20):
        z = np.concatenate([rng.standard_normal(4), rng.standard_normal(3)])
        w = weighted_dist_sq(z, p.z_star.as_vector(), s)
        d2 = float(np.sum((z - p.z_star.as_vector()) ** 2))
        assert e * d2 * (1 - 1e-12) <= w <= cap * d2 * (1 + 1e-12)


# ---------------------------------------------------------------------------
# restricted gap


def test_gap_bilinear_identity_coupling():
    p = SaddleProblem.bilinear_from_matrix(np.eye(2))
    z = PointPair([1.0, 0.0], [0.0, 1.0])
    assert gap_restricted(p, z, 1.0) == pytest.approx(2.0, abs=1e-12)


def test_gap_bilinear_vanishes_at_saddle():
    p = SaddleProblem.bilinear_from_matrix(np.eye(2))
    z = PointPair([0.0, 0.0], [0.0, 0.0])
    assert gap_restricted(p, z, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_gap_bilinear_diagonal_coupling():
    p = SaddleProblem.bilinear_from_matrix(np.diag([2.0, 1.0]))
    z = PointPair([0.0, 0.0], [1.0, 0.0])
    assert gap_restricted(p, z, 3.0) == pytest.approx(6.0, abs=1e-12)


def test_gap_rejects_bad_radius_and_uncovered_solution():
    p = SaddleProblem.bilinear_from_matrix(np.eye(2))
    z = PointPair([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(InvalidParameterError):
        gap_restricted(p, z, 0.0)
    # quadratic whose solution sits far from the origin: small balls invalid
    q = quadratic_from_matrices([[1.0]], [[0.0]], [[1.0]], [-10.0], [0.0])
    assert q.z_star.x[0] == pytest.approx(10.0)
    with pytest.raises(PreconditionError):
        gap_restricted(q, PointPair([0.0], [0.0]), 1.0)


def test_gap_minty_not_supported():
    p = make_minty(seed=0)
    with pytest.raises(CapabilityError):
        gap_restricted(p, PointPair([0.0], [0.0]), 1.0)


def test_gap_quadratic_interior_optima():
    # f = x^2/2 - y^2/2: inner optima are at the origin, inside any ball
    p = quadratic_from_matrices(np.eye(2), np.zeros((2, 2)), np.eye(2),
                                np.zeros(2), np.zeros(2))
    z = PointPair([1.0, 0.0], [0.0, 2.0])
    assert gap_restricted(p, z, 5.0) == pytest.approx(2.5, abs=1e-9)


def test_gap_quadratic_boundary_optima_match_grid_oracle():
    # solution at x* = -10: linear term pushes the inner min to the ball edge
    p = quadratic_from_matrices([[1.0]], [[0.0]], [[1.0]], [10.0], [0.0])
    z = PointPair([-9.5], [0.3])
    got = gap_restricted(p, z, 10.5)
    want = grid_gap_oracle(p, z, 10.5)
    assert got == pytest.approx(want, abs=1e-7)


@pytest.mark.parametrize("z,omega,want", [
    ((0.0, 5.0), 1.0, 17.0),
    ((3.0, -4.0), 2.0, 22.5),
    ((0.7, -0.4), 0.3, 0.565),
])
def test_gap_quadratic_inner_optimum_on_the_ball_edge(z, omega, want):
    # f = x^2/2 + xy - y^2/2 with z* = 0: the unrestricted inner optima
    # lie outside the ball, so the inner solver must stop on its edge
    p = quadratic_from_matrices([[1.0]], [[1.0]], [[1.0]], [0.0], [0.0])
    z = PointPair([z[0]], [z[1]])
    got = gap_restricted(p, z, omega)
    assert got == pytest.approx(grid_gap_oracle(p, z, omega), abs=1e-12)
    assert got == pytest.approx(want, abs=1e-12)


def _spd(rng, d, cond):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    w = np.exp(rng.uniform(0.0, np.log(cond), d))
    w[0], w[-1] = 1.0, cond
    return (q * w) @ q.T


def test_ball_extremum_meets_trust_region_optimality():
    # u maximises r'u - u'Mu/2 over ||u|| <= omega iff Mu = r inside the
    # ball, or ||u|| = omega and (M + lam I)u = r with lam >= 0 on its edge
    rng = np.random.default_rng(11)
    for d in (2, 5, 20, 50):
        for cond in (1.0, 1e4, 1e8):
            M = _spd(rng, d, cond)
            m_norm = np.linalg.norm(M, 2)
            for omega in (1e-3, 1.0, 1e3):
                for scale in (0.5, 2.0, 1e3):
                    v = rng.standard_normal(d)
                    r = M @ (scale * omega * v / np.linalg.norm(v))
                    u = _ball_extremum(M, r, omega)
                    u_norm = np.linalg.norm(u)
                    tol = 1e-12 * (m_norm * u_norm + np.linalg.norm(r))
                    if scale > 1:
                        lam = u @ (r - M @ u) / (u_norm * u_norm)
                        assert abs(u_norm / omega - 1) <= 1e-12
                        assert lam >= -1e-12 * m_norm
                        assert np.linalg.norm(M @ u + lam * u - r) <= tol
                    else:
                        assert np.linalg.norm(M @ u - r) <= tol


def test_gap_quadratic_coupled_matches_grid_oracle():
    p = quadratic_from_matrices([[2.0]], [[1.5]], [[1.0]], [0.3], [-0.2])
    z = PointPair([0.7], [-0.4])
    omega = 2.0 * float(np.linalg.norm(p.z_star.as_vector())) + 1.0
    got = gap_restricted(p, z, omega)
    want = grid_gap_oracle(p, z, omega)
    assert got == pytest.approx(want, abs=1e-7)
    assert got >= -1e-10


def test_gap_quadratic_zero_at_solution():
    p = make_quadratic(3, 3, mu=0.5, L=2.0, seed=7)
    omega = float(np.linalg.norm(p.z_star.as_vector())) + 1.0
    assert abs(gap_restricted(p, p.z_star, omega)) <= 1e-10


def test_gap_quadratic_nonnegative_at_random_points():
    p = make_quadratic(3, 2, mu=0.5, L=2.0, seed=3)
    omega = float(np.linalg.norm(p.z_star.as_vector())) + 2.0
    rng = np.random.default_rng(5)
    for _ in range(10):
        z = PointPair(rng.standard_normal(3), rng.standard_normal(2))
        assert gap_restricted(p, z, omega) >= -1e-10


# ---------------------------------------------------------------------------
# rate fitting


def test_fit_rate_exact_geometric():
    slope = fit_rate([1.0, 0.5, 0.25, 0.125], burn_in=0.0)
    assert slope == pytest.approx(-math.log(2.0), abs=1e-12)


def test_fit_rate_constant_series():
    assert fit_rate([3.0] * 10, burn_in=0.0) == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_power_law_loglog():
    ts = np.logspace(1, 5, 9)
    series = 7.0 * ts**-2.0
    slope = fit_rate(series, ts=ts, mode="loglog", burn_in=0.0)
    assert slope == pytest.approx(-2.0, abs=1e-9)


def test_fit_rate_recovers_exponent_with_burn_in():
    t = np.arange(500)
    series = 2.0 * np.exp(-0.05 * t)
    assert fit_rate(series, burn_in=0.1) == pytest.approx(-0.05, abs=1e-9)


def test_fit_rate_floors_tiny_values_and_warns():
    with pytest.warns(RuntimeWarning):
        slope = fit_rate([1.0, 1e-320, 0.0, 1.0], burn_in=0.0)
    assert np.isfinite(slope)


def test_fit_rate_input_validation():
    with pytest.raises(InvalidParameterError):
        fit_rate([1.0], burn_in=0.0)  # need at least two points
    with pytest.raises(InvalidParameterError):
        fit_rate([1.0, 2.0], mode="cubic", burn_in=0.0)
    with pytest.raises(InvalidParameterError):
        fit_rate([1.0, 2.0], ts=[1.0], burn_in=0.0)


# ---------------------------------------------------------------------------
# scalar inequality


def test_scalar_inequality_small_cases():
    assert check_scalar_inequality(1)   # 0 <= 1/2
    assert check_scalar_inequality(4)   # 0.5625 <= 0.75


def test_scalar_inequality_dense_small_sweep():
    assert all(check_scalar_inequality(T) for T in range(1, 2001))


def test_scalar_inequality_rejects_bad_T():
    with pytest.raises(InvalidParameterError):
        check_scalar_inequality(0)


# ---------------------------------------------------------------------------
# records, noise floor, contraction audit


def test_run_record_defaults():
    r = RunRecord(t=0, r2_weighted=1.0, dist2=1.0, grad_norm2=0.5,
                  dhat_min=0.01, dhat_max=2.0, grad_calls=2)
    assert tuple(vars(r)) == RECORD_FIELDS == (
        "t", "r2_weighted", "dist2", "grad_norm2", "dhat_min", "dhat_max",
        "grad_calls")


def mk_records(r2_values):
    return Records(np.array([[i, v, v, v, 1.0, 1.0, 2 * (i + 1)]
                             for i, v in enumerate(r2_values)]))


def test_records_view_reads_rows_and_columns():
    recs = mk_records([3.0, 2.0, 1.0])
    assert len(recs) == 3
    last = recs[-1]
    assert last == RunRecord(t=2, r2_weighted=1.0, dist2=1.0, grad_norm2=1.0,
                             dhat_min=1.0, dhat_max=1.0, grad_calls=6)
    assert type(last.t) is int and type(last.grad_calls) is int
    assert type(last.dist2) is float
    assert list(recs) == [recs[0], recs[1], recs[2]]
    assert list(recs[1:]) == list(recs)[1:]
    np.testing.assert_array_equal(recs.r2_weighted, [3.0, 2.0, 1.0])
    np.testing.assert_array_equal(recs[1:].t, [1.0, 2.0])
    assert not recs.dist2.flags.writeable
    with pytest.raises(IndexError):
        recs[3]


def test_noise_floor_is_median_of_tail():
    vals = [100.0] * 80 + [4.0, 6.0, 8.0, 10.0] * 5
    assert noise_floor(mk_records(vals)) == 7.0
    with pytest.raises(InvalidParameterError):
        noise_floor([])


def test_contraction_check_passes_on_frozen_scaling_run():
    from saddle_scale.optim import OptimizerConfig, run

    p = quadratic_from_matrices([[1.0]], [[0.0]], [[1.0]],
                                [0.0], [0.0])
    scaling = scaling_preset("identity", 1, 1)
    cfg = OptimizerConfig(method="extragrad", gamma=0.25, scaling=scaling,
                          T=50, seed=0, z0=PointPair([1.0], [1.0]))
    traj = run(p, cfg)
    rep = contraction_check(traj, p, cfg)
    assert rep.passed is True and rep.first_violation is None
    assert rep.checked == 49
    assert rep.factor_min <= rep.factor_max < 1.0


def test_contraction_check_flags_fabricated_violation():
    from saddle_scale.optim import OptimizerConfig, run

    p = quadratic_from_matrices([[1.0]], [[0.0]], [[1.0]], [0.0], [0.0])
    scaling = scaling_preset("identity", 1, 1)
    cfg = OptimizerConfig(method="extragrad", gamma=0.25, scaling=scaling,
                          T=3, seed=0, z0=PointPair([1.0], [1.0]))
    traj = run(p, cfg)
    bad = dataclasses.replace(traj, records=mk_records([1.0, 50.0, 0.1]))
    rep = contraction_check(bad, p, cfg)
    assert not rep.passed
    t, lhs, rhs = rep.first_violation
    assert t == 0 and lhs == 50.0 and rhs < 50.0


def test_contraction_check_rejects_stochastic_runs():
    from saddle_scale.optim import OptimizerConfig, run

    p = make_quadratic(2, 2, mu=0.5, L=2.0, seed=0, sigma=0.5)
    scaling = scaling_preset("oasis", 2, 2)
    cfg = OptimizerConfig(method="extragrad", gamma=0.001, scaling=scaling,
                          T=5, seed=0)
    traj = run(p, cfg)
    with pytest.raises(PreconditionError):
        contraction_check(traj, p, cfg)


def test_contraction_check_oasis_on_random_sc_quadratic():
    from saddle_scale.optim import OptimizerConfig, run

    p = make_quadratic(10, 10, mu=1.0, L=2.0, seed=4)
    scaling = scaling_preset("oasis", 10, 10)
    gamma = scaling.floor_e / (4.0 * p.L)
    cfg = OptimizerConfig(method="extragrad", gamma=gamma, scaling=scaling,
                          T=1000, seed=0)
    traj = run(p, cfg)
    rep = contraction_check(traj, p, cfg)
    assert rep.passed, rep.first_violation


def test_contraction_check_reads_the_default_identity_scaling():
    from saddle_scale.optim import OptimizerConfig, run

    p = make_quadratic(2, 2, mu=0.5, L=2.0, seed=0)
    cfg = OptimizerConfig(method="extragrad", T=50, seed=0, gamma=1e-3)
    rep = contraction_check(run(p, cfg), p, cfg)
    explicit = dataclasses.replace(
        cfg, scaling=scaling_preset("identity", 2, 2))
    assert rep == contraction_check(run(p, explicit), p, explicit)
    assert rep.passed and rep.checked == 49
