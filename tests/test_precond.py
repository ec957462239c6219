"""Diagonal scaling state machine: EMA rules, clipping, probabilistic
updates, curvature sources, and the range/growth bounds.

Oracle strategy: every scalar update rule is one line of arithmetic, so the
expected values are recomputed inline from the defining formulas; the
Hutchinson estimator is checked against exact enumeration over all sign
vectors and against a Monte-Carlo 3-standard-error band.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddle_scale.errors import (
    InvalidParameterError,
    NonFiniteError,
    PreconditionError,
)
from saddle_scale.precond import (
    ScalingState,
    advance,
    beta_t,
    curvature_for,
    curvature_hutchinson,
    gamma_bound,
    growth_constant,
    hutchinson_probe,
    scaling_preset,
)
from saddle_scale.problems import make_bilinear, quadratic_from_matrices


def mk_state(rule="squared-ema", source="grad-square", schedule="constant-beta",
             beta=0.5, floor_e=0.01, update_prob=1.0, d_x=1, d_y=1, **kw):
    return ScalingState.create(
        rule=rule, source=source, schedule=schedule, beta=beta,
        floor_e=floor_e, update_prob=update_prob, d_x=d_x, d_y=d_y, **kw,
    )


def cat(hx, hy):
    """Curvature vector over both blocks."""
    return np.concatenate([np.asarray(hx, float), np.asarray(hy, float)])


def zero_quadratic(A, C=None):
    """SC quadratic with B = 0 and zero linear terms; hvp is (A v_x, C v_y)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = A.copy() if C is None else np.atleast_2d(np.asarray(C, dtype=float))
    return quadratic_from_matrices(
        A, np.zeros((A.shape[0], C.shape[0])), C,
        np.zeros(A.shape[0]), np.zeros(C.shape[0]),
    )


# ---------------------------------------------------------------------------
# beta schedule


def test_beta_t_debias_starts_at_zero():
    assert beta_t("adam-debias", 0.999, 0) == 0.0


def test_beta_t_constant_is_constant():
    assert beta_t("constant-beta", 0.999, 10**6) == 0.999
    assert beta_t("constant-beta", 0.0, 3) == 0.0


def test_beta_t_debias_step_one():
    # (beta - beta^2) / (1 - beta^2) at beta = 0.9 is 0.09/0.19 = 9/19
    assert abs(beta_t("adam-debias", 0.9, 1) - 9.0 / 19.0) < 1e-15


def test_beta_t_debias_beta_one_warns_and_returns_one():
    with pytest.warns(RuntimeWarning):
        assert beta_t("adam-debias", 1.0, 5) == 1.0


def test_beta_t_rejects_bad_inputs():
    with pytest.raises(InvalidParameterError):
        beta_t("adam-debias", 1.5, 0)
    with pytest.raises(InvalidParameterError):
        beta_t("adam-debias", 0.9, -1)
    with pytest.raises(InvalidParameterError):
        beta_t("nonsense", 0.9, 0)


@given(beta=st.floats(0.0, 1.0 - 1e-9), t=st.integers(0, 10**6))
def test_beta_t_debias_stays_in_unit_interval(beta, t):
    v = beta_t("adam-debias", beta, t)
    assert 0.0 <= v <= beta + 1e-15


def test_beta_t_debias_increases_towards_beta():
    vals = [beta_t("adam-debias", 0.999, t) for t in (0, 1, 10, 100, 1000)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.999
    # far horizon: converges to beta (equality once beta^t underflows)
    assert beta_t("adam-debias", 0.999, 10**6) == pytest.approx(0.999, abs=1e-12)


# ---------------------------------------------------------------------------
# curvature sources


def grad_square(g):
    """Grad-square curvature for a squared-ema scaling over ``g``."""
    return curvature_for(mk_state(rule="squared-ema", source="grad-square"),
                         None, None, g, None)


def test_grad_square_squares_entrywise():
    h = grad_square(np.array([3.0, -2.0]))
    assert h[0] == 9.0 and h[1] == 4.0


def test_grad_square_zero():
    h = grad_square(np.zeros(5))
    assert h.shape == (5,) and not h.any()


def test_grad_square_small_values_stay_exact():
    h = grad_square(np.array([1e-8, 1e-8]))
    # squares of tiny gradients stay normal (no subnormal underflow)
    assert h[0] == pytest.approx(1e-16, rel=1e-15)
    assert h[1] == pytest.approx(1e-16, rel=1e-15)
    assert h[0] >= np.finfo(float).tiny


def test_hutchinson_probe_identity_hessian_is_exact():
    p = zero_quadratic(np.eye(2))
    z = np.zeros(4)
    for vx, vy in itertools.product([(1, 1), (1, -1), (-1, 1), (-1, -1)], repeat=2):
        h = hutchinson_probe(p, z, cat(vx, vy))
        np.testing.assert_array_equal(h, np.ones(4))


def test_hutchinson_probe_hand_value():
    # A = [[2,1],[1,3]], v = (1,-1): v * (Av) = (1*(2-1), -1*(1-3)) = (1, 2)
    p = zero_quadratic(np.array([[2.0, 1.0], [1.0, 3.0]]), np.eye(2))
    h = hutchinson_probe(p, np.zeros(4), cat([1.0, -1.0], np.ones(2)))
    np.testing.assert_array_equal(h[:2], np.array([1.0, 2.0]))


def test_hutchinson_enumeration_reproduces_diagonal():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((5, 5))
    A = M @ M.T + 5 * np.eye(5)
    p = zero_quadratic(A, np.eye(5))
    z = np.zeros(10)
    acc = np.zeros(5)
    signs = list(itertools.product([-1.0, 1.0], repeat=5))
    for v in signs:
        acc += hutchinson_probe(p, z, cat(v, np.ones(5)))[:5]
    np.testing.assert_allclose(acc / len(signs), np.diag(A), atol=1e-12)


def test_hutchinson_monte_carlo_mean_within_three_se():
    rng = np.random.default_rng(9)
    M = rng.standard_normal((5, 5))
    A = M @ M.T + 5 * np.eye(5)
    p = zero_quadratic(A, np.eye(5))
    z = np.zeros(10)
    stream = np.random.default_rng(12345)
    n = 100_000
    samples = np.empty((n, 5))
    for i in range(n):
        samples[i] = curvature_hutchinson(p, z, stream)[:5]
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(mean - np.diag(A)) <= 3.0 * se + 1e-12)


def test_hutchinson_draws_are_signs():
    # A = [[2,1],[1,2]]: probe entry 0 is v0*(2 v0 + v1) = 2 + v0 v1, so the
    # only values a Rademacher draw can produce are 1 and 3 - and a correct
    # sampler produces both.
    p = zero_quadratic(np.array([[2.0, 1.0], [1.0, 2.0]]), np.eye(2))
    z = np.zeros(4)
    stream = np.random.default_rng(0)
    vals = set()
    for i in range(200):
        h = curvature_hutchinson(p, z, stream)
        assert h[0] in (1.0, 3.0)
        vals.add(h[0])
    assert vals == {1.0, 3.0}


# ---------------------------------------------------------------------------
# state creation and presets


def test_fresh_state_is_floor_saturated():
    s = mk_state(floor_e=0.25, d_x=3, d_y=2)
    np.testing.assert_array_equal(s.raw[:3], np.zeros(3))
    np.testing.assert_array_equal(s.raw[3:], np.zeros(2))
    np.testing.assert_array_equal(s.clipped_x, np.full(3, 0.25))
    np.testing.assert_array_equal(s.clipped_y, np.full(2, 0.25))
    assert s.t == 0


def test_create_validates_parameters():
    with pytest.raises(InvalidParameterError):
        mk_state(rule="cubed-ema")
    with pytest.raises(InvalidParameterError):
        mk_state(beta=1.5)
    with pytest.raises(InvalidParameterError):
        mk_state(floor_e=0.0)
    with pytest.raises(InvalidParameterError):
        mk_state(update_prob=0.0)
    with pytest.raises(InvalidParameterError):
        mk_state(update_prob=1.5)
    with pytest.raises(InvalidParameterError):
        mk_state(update_prob=0.5, update_every_k=3)
    with pytest.raises(InvalidParameterError):
        mk_state(update_every_k=0)
    with pytest.raises(InvalidParameterError):
        mk_state(clip_variant="clamp")
    with pytest.raises(InvalidParameterError, match="^update_every_k must"):
        mk_state(update_every_k=2.5)
    with pytest.raises(InvalidParameterError, match="^update_every_k must"):
        scaling_preset("oasis", 1, 1, update_every_k=2.5)
    assert mk_state(update_every_k=np.int64(2)).update_every_k == 2


PRESET_TABLE = {
    "adam": ("squared-ema", "grad-square", "adam-debias", 0.999, 1e-8),
    "rmsprop": ("squared-ema", "grad-square", "constant-beta", 0.999, 1e-8),
    "adahessian": ("squared-ema", "hutchinson", "adam-debias", 0.999, 0.01),
    "oasis": ("additive-ema", "hutchinson", "constant-beta", 0.999, 0.01),
}


@pytest.mark.parametrize("name", sorted(PRESET_TABLE))
def test_presets_match_published_defaults(name):
    s = scaling_preset(name, d_x=4, d_y=3)
    rule, source, schedule, beta, e = PRESET_TABLE[name]
    assert (s.rule, s.source, s.schedule, s.beta, s.floor_e) == (
        rule, source, schedule, beta, e)
    assert s.update_prob == 1.0
    assert s.clipped_x.shape == (4,) and s.clipped_y.shape == (3,)


def test_identity_preset_never_moves():
    s = scaling_preset("identity", d_x=2, d_y=2)
    assert s.beta == 1.0 and s.floor_e == 1.0
    rng = np.random.default_rng(0)
    for k in range(5):
        h = cat(np.full(2, 100.0), np.full(2, 100.0))
        s = advance(s, rng, lambda: h)
    np.testing.assert_array_equal(s.clipped_x, np.ones(2))
    np.testing.assert_array_equal(s.clipped_y, np.ones(2))


def test_unknown_preset():
    with pytest.raises(InvalidParameterError):
        scaling_preset("adamw", d_x=1, d_y=1)


def test_spawn_gives_fresh_state():
    s = scaling_preset("oasis", d_x=2, d_y=2)
    rng = np.random.default_rng(0)
    s = advance(s, rng, lambda: cat(np.ones(2), np.ones(2)))
    child = s.spawn(d_x=5, d_y=6)
    assert child.t == 0
    assert child.raw[:5].shape == (5,) and child.raw[5:].shape == (6,)
    assert not child.raw[:5].any()
    np.testing.assert_array_equal(child.clipped_x, np.full(5, s.floor_e))
    assert (child.rule, child.beta) == (s.rule, s.beta)


# ---------------------------------------------------------------------------
# update rule arithmetic


def test_update_squared_ema_one_step():
    # beta_t = 0.5, (D^2)_prev = 4, H^2 = 16 -> D^2 = 10, clipped = sqrt(10)
    s = mk_state(rule="squared-ema", beta=0.5, floor_e=0.01)
    s = dataclasses.replace(s, raw=np.array([4.0, 4.0]))
    rng = np.random.default_rng(0)
    s2 = advance(s, rng, lambda: cat(np.array([16.0]), np.array([16.0])))
    assert s2.raw[0] == 10.0
    assert abs(s2.clipped_x[0] - np.sqrt(10.0)) < 1e-15
    assert s2.t == s.t + 1


def test_update_additive_ema_one_step():
    s = mk_state(rule="additive-ema", beta=0.9, floor_e=0.01)
    s = dataclasses.replace(s, raw=np.array([1.0, 1.0]))
    rng = np.random.default_rng(0)
    s2 = advance(s, rng, lambda: cat(np.array([-1.0]), np.array([-2.0])))
    assert abs(s2.raw[0] - 0.8) < 1e-15
    assert abs(s2.raw[1] - 0.7) < 1e-15
    assert abs(s2.clipped_x[0] - 0.8) < 1e-15


def test_update_clips_at_floor_with_absolute_value():
    # constant beta = 0 copies h into raw; raw (-0.005, 0.02), e = 0.01
    s = mk_state(rule="additive-ema", beta=0.0, floor_e=0.01, d_x=1, d_y=1)
    rng = np.random.default_rng(0)
    s2 = advance(s, rng, lambda: cat(np.array([-0.005]), np.array([0.02])))
    assert s2.clipped_x[0] == 0.01
    assert s2.clipped_y[0] == 0.02


def test_update_add_clip_variant():
    s = mk_state(rule="additive-ema", beta=0.0, floor_e=0.01, clip_variant="add")
    rng = np.random.default_rng(0)
    s2 = advance(s, rng, lambda: cat(np.array([-0.005]), np.array([0.02])))
    assert abs(s2.clipped_x[0] - 0.015) < 1e-18
    assert abs(s2.clipped_y[0] - 0.03) < 1e-18


def test_update_debias_first_step_ignores_history():
    # adam-debias beta_0 = 0: raw after first update equals h exactly
    s = mk_state(schedule="adam-debias", beta=0.999, floor_e=1e-8)
    rng = np.random.default_rng(0)
    s2 = advance(s, rng, lambda: cat(np.array([7.0]), np.array([11.0])))
    assert s2.raw[0] == 7.0 and s2.raw[1] == 11.0


def test_curvature_for_rejects_overflowing_squares():
    s = mk_state(rule="squared-ema", source="grad-square")
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        curvature_for(s, None, None, np.array([1e200, 1.0]), None)


def test_state_blocks_are_read_only_views():
    s = mk_state(rule="additive-ema", beta=0.0, d_x=2, d_y=1)
    s = advance(s, np.random.default_rng(0), lambda: cat([0.5, -3.0], [2.0]))
    np.testing.assert_array_equal(s.raw, [0.5, -3.0, 2.0])
    np.testing.assert_array_equal(s.raw[:2], [0.5, -3.0])
    np.testing.assert_array_equal(s.clipped_y, [2.0])
    for block in (s.raw, s.clipped, s.clipped_x, s.clipped_y):
        assert not block.flags.writeable
    assert np.shares_memory(s.clipped_x, s.clipped)


def test_skipped_update_keeps_previous_arrays():
    s = mk_state(rule="additive-ema", beta=0.5, update_every_k=2)
    rng = np.random.default_rng(0)
    fired = advance(s, rng, lambda: cat([1.0], [1.0]))
    skipped = advance(fired, rng, lambda: cat([5.0], [5.0]))
    assert fired.last_fired and not skipped.last_fired
    assert skipped.raw is fired.raw and skipped.clipped is fired.clipped


def test_update_every_k_fires_on_schedule():
    s = mk_state(rule="additive-ema", beta=0.5, update_every_k=3)
    rng = np.random.default_rng(0)
    fired = []
    for _ in range(9):
        s = advance(s, rng, lambda: cat(np.array([1.0]), np.array([1.0])))
        fired.append(s.last_fired)
    assert fired == [True, False, False, True, False, False, True, False, False]
    assert s.t == 9


def test_probabilistic_update_consumes_one_draw_and_skips_carry_raw():
    s = mk_state(rule="additive-ema", beta=0.5, update_prob=0.5)
    rng = np.random.default_rng(77)
    ref = np.random.default_rng(77)
    h = cat(np.array([1.0]), np.array([1.0]))
    n_fired = 0
    for _ in range(400):
        prev_raw = s.raw[0]
        s = advance(s, rng, lambda: h)
        expect_fire = ref.random() < 0.5  # one shared Bernoulli per update
        assert s.last_fired == expect_fire
        if expect_fire:
            n_fired += 1
        else:
            assert s.raw[0] == prev_raw
    assert s.t == 400
    assert 140 <= n_fired <= 260


def test_deterministic_update_consumes_no_randomness():
    s = mk_state(update_prob=1.0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = advance(s, rng, lambda: cat(np.array([1.0]), np.array([1.0])))
        assert s.last_fired
    assert rng.random() == np.random.default_rng(5).random()


def test_clipping_is_idempotent_after_every_update():
    rng = np.random.default_rng(4)
    s = mk_state(rule="additive-ema", beta=0.8, floor_e=0.05, d_x=6, d_y=4)
    for _ in range(50):
        h = cat(rng.standard_normal(6), rng.standard_normal(4))
        s = advance(s, rng, lambda: h)
        np.testing.assert_array_equal(
            s.clipped_x, np.maximum(s.floor_e, np.abs(s.raw[:6])))
        np.testing.assert_array_equal(
            s.clipped_y, np.maximum(s.floor_e, np.abs(s.raw[6:])))


# ---------------------------------------------------------------------------
# curvature bound Gamma and growth factors


def test_gamma_bound_hutchinson_small():
    p = zero_quadratic(np.array([[3.0]]), np.array([[3.0]]))
    assert abs(p.L - 3.0) < 1e-12
    assert abs(gamma_bound("hutchinson", p) - 3.0 * np.sqrt(2.0)) < 1e-12


def test_gamma_bound_hutchinson_large():
    p = zero_quadratic(np.eye(100), np.eye(100))
    assert abs(gamma_bound("hutchinson", p) - np.sqrt(200.0)) < 1e-12


def test_gamma_bound_grad_square_bilinear_ball():
    p = make_bilinear(1, L=1.0, seed=0)
    assert gamma_bound("grad-square", p, region_radius=2.0) == pytest.approx(2.0)


def test_gamma_bound_grad_square_adds_noise_bound():
    p = make_bilinear(1, L=1.0, seed=0, sigma=0.05, noise_bound=0.5)
    assert gamma_bound("grad-square", p, region_radius=2.0) == pytest.approx(2.5)


def test_gamma_bound_grad_square_needs_region():
    p = make_bilinear(1, L=1.0, seed=0)
    with pytest.raises(PreconditionError):
        gamma_bound("grad-square", p)
    with pytest.raises(PreconditionError):
        gamma_bound("grad-square", p, region_radius=np.inf)


def test_gamma_bound_unknown_source():
    p = make_bilinear(1, L=1.0, seed=0)
    with pytest.raises(InvalidParameterError):
        gamma_bound("finite-difference", p, region_radius=1.0)


def test_growth_constant_formulas():
    sq = mk_state(rule="squared-ema", floor_e=0.5, update_prob=0.25)
    assert growth_constant(sq, 3.0) == pytest.approx(0.25 * 9.0 / 0.5, rel=1e-15)
    ad = mk_state(rule="additive-ema", floor_e=0.01, update_prob=1.0)
    assert growth_constant(ad, 2.0) == pytest.approx(400.0, rel=1e-15)


# ---------------------------------------------------------------------------
# per-update bounds along random trajectories


@pytest.mark.parametrize("rule,p_up", [("squared-ema", 1.0), ("squared-ema", 0.3),
                                       ("additive-ema", 1.0), ("additive-ema", 0.3)])
def test_range_bound_along_random_trajectory(rule, p_up):
    gamma_cap = 2.0
    e = 0.01
    s = mk_state(rule=rule, beta=0.95, floor_e=e, update_prob=p_up, d_x=4, d_y=3)
    rng = np.random.default_rng(10)
    hgen = np.random.default_rng(11)
    for _ in range(2000):
        if rule == "squared-ema":
            hx = hgen.uniform(0.0, gamma_cap**2 * (1 - 1e-9), 4)
            hy = hgen.uniform(0.0, gamma_cap**2 * (1 - 1e-9), 3)
        else:
            hx = hgen.uniform(-gamma_cap, gamma_cap, 4) * (1 - 1e-9)
            hy = hgen.uniform(-gamma_cap, gamma_cap, 3) * (1 - 1e-9)
        s = advance(s, rng, lambda: cat(hx, hy))
        for c in (s.clipped_x, s.clipped_y):
            assert c.min() >= e
            assert c.max() <= gamma_cap


@pytest.mark.parametrize("rule", ["squared-ema", "additive-ema"])
def test_per_step_growth_bound(rule):
    gamma_cap = 2.0
    s = mk_state(rule=rule, beta=0.9, schedule="adam-debias", floor_e=0.05,
                 update_prob=0.7, d_x=4, d_y=3)
    rng = np.random.default_rng(21)
    hgen = np.random.default_rng(22)
    c_full = growth_constant(dataclasses.replace(s, update_prob=1.0),
                             gamma_cap)
    for _ in range(500):
        factor = 1.0 + (1.0 - beta_t(s.schedule, s.beta, s.t)) * c_full
        prev_x, prev_y = s.clipped_x.copy(), s.clipped_y.copy()
        if rule == "squared-ema":
            h = cat(hgen.uniform(0, gamma_cap**2, 4),
                    hgen.uniform(0, gamma_cap**2, 3))
        else:
            h = cat(hgen.uniform(-gamma_cap, gamma_cap, 4),
                    hgen.uniform(-gamma_cap, gamma_cap, 3))
        s = advance(s, rng, lambda: h)
        if s.last_fired:
            assert np.all(s.clipped_x <= factor * prev_x + 1e-12)
            assert np.all(s.clipped_y <= factor * prev_y + 1e-12)
        else:
            assert np.all(s.clipped_x <= prev_x)
            assert np.all(s.clipped_y <= prev_y)


@settings(max_examples=25, deadline=None)
@given(beta=st.floats(0.0, 0.999), e=st.floats(1e-4, 1.0), seed=st.integers(0, 99))
def test_range_bound_property(beta, e, seed):
    cap = max(2.0 * e, 1.0)
    s = mk_state(rule="additive-ema", beta=beta, floor_e=e, d_x=2, d_y=2)
    rng = np.random.default_rng(seed)
    hgen = np.random.default_rng(seed + 1)
    for _ in range(60):
        h = cat(hgen.uniform(-cap, cap, 2) * (1 - 1e-9),
                hgen.uniform(-cap, cap, 2) * (1 - 1e-9))
        s = advance(s, rng, lambda: h)
        assert s.clipped_x.min() >= e and s.clipped_x.max() <= cap
        assert s.clipped_y.min() >= e and s.clipped_y.max() <= cap
