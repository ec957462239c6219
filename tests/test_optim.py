"""Optimizer loops: extragradient, single-call with negative momentum, the
descent-ascent baseline, averaging, counters, divergence guards, and the
theory-safe step-size gates.

Oracle strategy: the scalar coupling f = xy has closed-form one-step maps
(hand-simulated below), the descent-ascent norm growth on it is exactly
(1 + gamma^2) per step, and a 20-line reference extragradient loop written
directly against the field oracle cross-checks the production loop.
"""

import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from saddle_scale import optim, problems
from saddle_scale.errors import DivergenceError, InvalidParameterError
from saddle_scale.optim import (
    DIVERGENCE_RADIUS,
    OptimizerConfig,
    RunStreams,
    Trajectory,
    resolve_gamma,
    run,
    step_extragrad,
    step_sgda,
    step_single_call,
    warm_start_single_call,
)
from saddle_scale.precond import scaling_preset
from saddle_scale.problems import (
    PointPair,
    SaddleProblem,
    field_into,
    gradient,
    make_bilinear,
    make_quadratic,
)


def xy_game():
    """f(x, y) = x*y: field F = (y, -x), solution at the origin."""
    return SaddleProblem.bilinear_from_matrix(np.array([[1.0]]))


def identity(d_x=1, d_y=1):
    return scaling_preset("identity", d_x, d_y)


def F(p, z):
    """Exact field at the concatenated iterate z, as the steps take it."""
    return field_into(p, z, np.empty(z.shape[0]))


def eg_reference(p, z0, gamma, T):
    """Textbook extragradient on the deterministic field, no scaling."""
    z = z0.as_vector().copy()
    for _ in range(T):
        g = F(p, z)
        zh = z - gamma * g
        gh = F(p, zh)
        z = z - gamma * gh
    return z


# ---------------------------------------------------------------------------
# single steps, hand-simulated


def test_extragrad_step_hand_simulation():
    p = xy_game()
    streams = RunStreams.from_seed(0)
    z = np.array([1.0, 1.0])
    z1, zh, _ = step_extragrad(p, z, F(p, z), identity(), 0.1, streams)
    np.testing.assert_allclose(zh, [0.9, 1.1], atol=1e-15)
    np.testing.assert_allclose(z1, [0.89, 1.09], atol=1e-15)


def test_extragrad_zero_step_is_fixed_point():
    p = xy_game()
    streams = RunStreams.from_seed(0)
    z = np.array([1.0, 1.0])
    f_z = F(p, z)
    z1, zh, _ = step_extragrad(p, z, f_z, identity(), 0.0, streams)
    np.testing.assert_array_equal(z1, z)
    np.testing.assert_array_equal(zh, z)
    np.testing.assert_array_equal(f_z, [1.0, -1.0])  # left as is


def test_single_call_step_hand_simulation():
    p = xy_game()
    streams = RunStreams.from_seed(0)
    z0 = np.array([1.0, 1.0])
    g0 = warm_start_single_call(p, z0, streams)
    np.testing.assert_array_equal(g0, [1.0, -1.0])
    s = identity()
    z1, zh0, w1, g1, s = step_single_call(
        p, z0, z0, z0, g0, s, gamma=0.1, eta=0.0, anchor_prob=1.0,
        streams=streams)
    np.testing.assert_allclose(zh0, [0.9, 1.1], atol=1e-15)
    np.testing.assert_allclose(z1, [0.89, 1.09], atol=1e-15)
    np.testing.assert_array_equal(w1, z0)
    np.testing.assert_allclose(g1, [1.1, -0.9], atol=1e-15)
    z2, zh1, w2, g2, s = step_single_call(
        p, z1, w1, zh0, g1, s, gamma=0.1, eta=0.0, anchor_prob=1.0,
        streams=streams)
    np.testing.assert_allclose(zh1, [0.78, 1.18], atol=1e-14)
    np.testing.assert_array_equal(w2, z1)


def test_sgda_step_norm_growth_identity():
    p = xy_game()
    streams = RunStreams.from_seed(0)
    z = np.array([1.0, 1.0])
    z1, _ = step_sgda(p, z, F(p, z), identity(), 0.1, streams)
    n0 = z @ z
    n1 = z1 @ z1
    assert n1 == pytest.approx((1 + 0.01) * n0, rel=1e-14)


def test_sgda_scalar_sc_linear_convergence():
    from saddle_scale.problems import quadratic_from_matrices

    q = quadratic_from_matrices([[1.0]], [[0.0]], [[1.0]], [0.0], [0.0])
    streams = RunStreams.from_seed(0)
    z = np.array([1.0, -2.0])
    s = identity()
    for _ in range(20):
        z, s = step_sgda(q, z, F(q, z), s, 0.25, streams)
    assert z[0] == pytest.approx(0.75**20, rel=1e-12)
    assert z[1] == pytest.approx(-2.0 * 0.75**20, rel=1e-12)


# ---------------------------------------------------------------------------
# full runs: counters, records, averaging


def test_run_extragrad_call_accounting():
    p = make_quadratic(3, 3, mu=0.5, L=2.0, seed=0)
    cfg = OptimizerConfig(method="extragrad", gamma=0.01,
                          scaling=scaling_preset("rmsprop", 3, 3), T=100, seed=1)
    traj = run(p, cfg)
    assert traj.grad_calls == 200
    assert traj.hvp_calls == 0
    assert len(traj.records) == 100
    assert traj.records[-1].grad_calls == 200


def test_run_single_call_accounting():
    p = make_quadratic(3, 3, mu=0.5, L=2.0, seed=0)
    cfg = OptimizerConfig(method="single-call-momentum", gamma=0.001,
                          scaling=scaling_preset("oasis", 3, 3), T=100, seed=1)
    traj = run(p, cfg)
    assert traj.grad_calls == 101
    assert traj.hvp_calls == 100


def test_run_sgda_accounting():
    p = make_quadratic(3, 3, mu=0.5, L=2.0, seed=0)
    cfg = OptimizerConfig(method="sgda", gamma=0.001,
                          scaling=scaling_preset("adam", 3, 3), T=77, seed=1)
    traj = run(p, cfg)
    assert traj.grad_calls == 77


def test_identity_extragrad_computes_no_curvature(monkeypatch):
    calls = []
    real = optim.curvature_for

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(optim, "curvature_for", counting)
    p = make_quadratic(3, 3, mu=0.5, L=2.0, seed=0, sigma=0.1)
    cfg = OptimizerConfig(method="extragrad", gamma=0.01,
                          scaling=identity(3, 3), T=1000, seed=1,
                          trace_scaling=True)
    traj = run(p, cfg)
    assert calls == []
    assert not any(e.fired for e in traj.scaling_trace)
    assert all(r.dhat_min == r.dhat_max == 1.0 for r in traj.records)


def test_run_t_zero_convention():
    p = make_quadratic(2, 2, mu=0.5, L=2.0, seed=0)
    z0 = PointPair([1.0, 0.0], [0.0, 1.0])
    for method, calls in (("extragrad", 0), ("sgda", 0),
                          ("single-call-momentum", 1)):
        cfg = OptimizerConfig(method=method, gamma=0.01,
                              scaling=identity(2, 2), T=0, seed=0, z0=z0)
        traj = run(p, cfg)
        assert len(traj.records) == 0
        assert traj.grad_calls == calls
        np.testing.assert_array_equal(traj.final_z.as_vector(), z0.as_vector())
        np.testing.assert_array_equal(
            traj.final_avg_uniform.as_vector(), z0.as_vector())


def test_run_records_describe_prestep_iterates():
    p = xy_game()
    z0 = PointPair([1.0], [1.0])
    cfg = OptimizerConfig(method="extragrad", gamma=0.1, scaling=identity(),
                          T=2, seed=0, z0=z0)
    traj = run(p, cfg)
    assert traj.records[0].dist2 == pytest.approx(2.0, rel=1e-15)
    assert traj.records[1].dist2 == pytest.approx(0.89**2 + 1.09**2, rel=1e-14)
    # grad_norm2 is the deterministic field norm at the recorded iterate
    assert traj.records[0].grad_norm2 == pytest.approx(2.0, rel=1e-15)


def test_run_half_iterates_and_uniform_average():
    p = xy_game()
    z0 = PointPair([1.0], [1.0])
    cfg = OptimizerConfig(method="extragrad", gamma=0.1, scaling=identity(),
                          T=2, seed=0, z0=z0)
    traj = run(p, cfg)
    np.testing.assert_allclose(traj.half_z[0], [0.9, 1.1], atol=1e-15)
    np.testing.assert_allclose(traj.final_avg_uniform.as_vector(),
                               traj.half_z.mean(axis=0), atol=1e-15)


def test_running_ema_average_limits():
    p = xy_game()
    mk = lambda lam: OptimizerConfig(
        method="extragrad", gamma=0.1, scaling=identity(), T=5, seed=0,
        ema_lambda=lam, z0=PointPair([1.0], [1.0]))
    # lambda = 0 keeps only the newest half-iterate
    traj = run(p, mk(0.0))
    np.testing.assert_array_equal(traj.final_avg_ema.as_vector(),
                                  traj.half_z[-1])
    # hand recursion for lambda = 0.5
    traj = run(p, mk(0.5))
    a = traj.half_z[0].copy()
    for row in traj.half_z[1:]:
        a = 0.5 * a + 0.5 * row
    np.testing.assert_allclose(traj.final_avg_ema.as_vector(), a, rtol=1e-12)


def test_average_of_empty_trajectory_is_z0():
    p = xy_game()
    z0 = PointPair([1.0], [-2.0])
    cfg = OptimizerConfig(method="extragrad", gamma=0.1, scaling=identity(),
                          T=0, seed=0, z0=z0)
    traj = run(p, cfg)
    assert traj.half_z.shape == (0, 2)
    for avg in (traj.final_avg_uniform, traj.final_avg_ema):
        np.testing.assert_array_equal(avg.as_vector(), z0.as_vector())


def test_run_matches_reference_extragradient():
    p = make_quadratic(4, 4, mu=0.5, L=2.0, seed=2)
    z0 = PointPair(np.ones(4), np.ones(4))
    cfg = OptimizerConfig(method="extragrad", gamma=0.05,
                          scaling=identity(4, 4), T=300, seed=0, z0=z0)
    traj = run(p, cfg)
    ref = eg_reference(p, z0, 0.05, 300)
    np.testing.assert_allclose(traj.final_z.as_vector(), ref, atol=1e-14)


def test_run_seed_stability_and_sensitivity():
    p = make_quadratic(3, 3, mu=0.5, L=2.0, seed=0, sigma=0.3)
    mk = lambda seed: OptimizerConfig(
        method="extragrad", gamma=0.003, scaling=scaling_preset("oasis", 3, 3),
        T=50, seed=seed)
    a, b = run(p, mk(7)), run(p, mk(7))
    np.testing.assert_array_equal(a.final_z.as_vector(), b.final_z.as_vector())
    assert [r.r2_weighted for r in a.records] == [r.r2_weighted for r in b.records]
    c = run(p, mk(8))
    assert not np.array_equal(a.final_z.as_vector(), c.final_z.as_vector())


def test_anchor_stream_is_isolated():
    # with eta = 0 the anchor never touches the iterates, so changing
    # anchor_prob must not move anything else (named rng streams)
    p = make_quadratic(2, 2, mu=0.5, L=2.0, seed=0, sigma=0.2)
    mk = lambda ap: OptimizerConfig(
        method="single-call-momentum", gamma=0.001, eta=0.0, anchor_prob=ap,
        scaling=scaling_preset("oasis", 2, 2), T=40, seed=3)
    a, b = run(p, mk(1.0)), run(p, mk(0.05))
    np.testing.assert_array_equal(a.final_z.as_vector(), b.final_z.as_vector())


def test_negative_momentum_changes_iterates():
    p = make_quadratic(2, 2, mu=0.5, L=2.0, seed=0)
    mk = lambda eta: OptimizerConfig(
        method="single-call-momentum", gamma=0.001, eta=eta, anchor_prob=0.25,
        scaling=scaling_preset("oasis", 2, 2), T=40, seed=3)
    a, b = run(p, mk(0.0)), run(p, mk(0.002))
    assert not np.array_equal(a.final_z.as_vector(), b.final_z.as_vector())


def test_sgda_exact_growth_on_xy():
    p = xy_game()
    cfg = OptimizerConfig(method="sgda", gamma=0.1, scaling=identity(),
                          T=100, seed=0, z0=PointPair([1.0], [1.0]))
    traj = run(p, cfg)
    n100 = traj.final_z.as_vector() @ traj.final_z.as_vector()
    assert n100 == pytest.approx(1.01**100 * 2.0, rel=1e-10)


def test_extragrad_shrinks_xy_monotonically():
    p = xy_game()
    cfg = OptimizerConfig(method="extragrad", gamma=0.1, scaling=identity(),
                          T=100, seed=0, z0=PointPair([1.0], [1.0]))
    traj = run(p, cfg)
    d = [r.dist2 for r in traj.records]
    assert all(b < a for a, b in zip(d, d[1:]))


# ---------------------------------------------------------------------------
# the in-place engine against the single steps


def steps_reference(p, cfg):
    """run's trajectory rebuilt by driving the single steps by hand.

    Returns (half_z, final_z, avg_uniform, avg_ema, grad_calls, hvp_calls,
    trace, records) with trace a list of (fired, clipped) and records a list
    of (dist2, r2_weighted, grad_norm2, dhat_min, dhat_max) tuples.
    """
    streams = RunStreams.from_seed(cfg.seed)
    dx, dy = p.d_x, p.d_y
    z = np.concatenate([streams.init.standard_normal(dx),
                        streams.init.standard_normal(dy)])
    z_star = p.z_star.as_vector()
    scaling = cfg.scaling.spawn(dx, dy)
    w = z_half = z
    g = None
    grad_calls = hvp_calls = 0
    if cfg.method == "single-call-momentum":
        g = warm_start_single_call(p, z, streams, cfg.batch)
        grad_calls += 1
    halves, trace, records = [], [], []
    sum_half, ema = np.zeros(dx + dy), None
    for _ in range(cfg.T):
        z_prev = z
        f = F(p, z)
        if cfg.method == "extragrad":
            z, z_half, scaling = step_extragrad(p, z, f, scaling, cfg.gamma,
                                                streams, cfg.batch)
            grad_calls += 2
        elif cfg.method == "single-call-momentum":
            z, z_half, w, g, scaling = step_single_call(
                p, z, w, z_half, g, scaling, cfg.gamma, cfg.eta,
                cfg.anchor_prob, streams, cfg.batch)
            grad_calls += 1
        else:
            z, scaling = step_sgda(p, z, f, scaling, cfg.gamma, streams,
                                   cfg.batch)
            z_half = z
            grad_calls += 1
        hvp_calls += scaling.last_fired and scaling.source == "hutchinson"
        trace.append((scaling.last_fired, scaling.clipped))
        diff = z_prev - z_star
        records.append((float(diff @ diff),
                        optim.weighted_dist_sq(z_prev, z_star, scaling),
                        float(f @ f), float(scaling.clipped.min()),
                        float(scaling.clipped.max())))
        halves.append(z_half)
        sum_half += z_half
        lam = cfg.ema_lambda
        ema = z_half.copy() if ema is None else lam * ema + (1 - lam) * z_half
    return (np.array(halves).reshape(cfg.T, dx + dy), z, sum_half / cfg.T,
            ema, grad_calls, hvp_calls, trace, records)


ENGINE_SCALINGS = {
    "oasis-p0.5": lambda: scaling_preset("oasis", 3, 2, update_prob=0.5),
    "rmsprop-k3": lambda: scaling_preset("rmsprop", 3, 2, update_every_k=3),
    "adahessian": lambda: scaling_preset("adahessian", 3, 2),
}


@pytest.mark.parametrize("scaling", sorted(ENGINE_SCALINGS))
@pytest.mark.parametrize("sigma", [0.3, 0.0])
@pytest.mark.parametrize("method", optim.METHODS)
def test_engine_matches_single_steps_bit_for_bit(method, sigma, scaling):
    # with sigma = 0 add_noise returns the field vector itself, so a carried
    # single-call gradient that aliased an engine buffer would show here
    p = make_quadratic(3, 2, mu=0.5, L=2.0, seed=5, sigma=sigma)
    cfg = OptimizerConfig(method=method, T=40, seed=11, gamma=0.002,
                          eta=0.004 if method == "single-call-momentum"
                          else 0.0,
                          batch=2, ema_lambda=0.9,
                          scaling=ENGINE_SCALINGS[scaling](),
                          trace_scaling=True)
    traj = run(p, cfg)
    (halves, final, avg_u, avg_e, grad_calls, hvp_calls, trace,
     records) = steps_reference(p, cfg)
    assert np.array_equal(traj.half_z, halves)
    assert np.array_equal(traj.final_z.as_vector(), final)
    assert np.array_equal(traj.final_avg_uniform.as_vector(), avg_u)
    assert np.array_equal(traj.final_avg_ema.as_vector(), avg_e)
    assert (traj.grad_calls, traj.hvp_calls) == (grad_calls, hvp_calls)
    assert [(r.dist2, r.r2_weighted, r.grad_norm2, r.dhat_min, r.dhat_max)
            for r in traj.records] == records
    fired = [f for f, _ in trace]
    assert [e.fired for e in traj.scaling_trace] == fired
    assert any(fired) and (scaling == "adahessian" or not all(fired))
    prev = None
    for entry, (_, clipped) in zip(traj.scaling_trace, trace):
        assert np.array_equal(entry.clipped, clipped)
        assert not entry.clipped.flags.writeable
        # a skipped step keeps the previous step's diagonal
        if not entry.fired and prev is not None:
            assert np.array_equal(entry.clipped, prev)
        prev = entry.clipped


def assert_run_matches_steps(p, cfg):
    """run's trajectory equals the single steps' bit for bit, and its
    on_records chunks concatenate to its records."""
    chunks = []
    # copied when delivered: a chunk must be complete when the run hands it
    traj = run(p, cfg, on_records=lambda c: chunks.append(c.block.copy()))
    (halves, final, avg_u, avg_e, grad_calls, hvp_calls, _,
     records) = steps_reference(p, cfg)
    assert np.array_equal(traj.half_z, halves)
    assert np.array_equal(traj.final_z.as_vector(), final)
    assert np.array_equal(traj.final_avg_uniform.as_vector(), avg_u)
    assert np.array_equal(traj.final_avg_ema.as_vector(), avg_e)
    assert (traj.grad_calls, traj.hvp_calls) == (grad_calls, hvp_calls)
    assert [(r.dist2, r.r2_weighted, r.grad_norm2, r.dhat_min, r.dhat_max)
            for r in traj.records] == records
    assert traj.records.t.tolist() == list(range(cfg.T))
    assert traj.records[-1].grad_calls == grad_calls
    assert [len(c) for c in chunks] == (
        [optim.STREAM_CHUNK] * (cfg.T // optim.STREAM_CHUNK)
        + [cfg.T % optim.STREAM_CHUNK] * (cfg.T % optim.STREAM_CHUNK > 0))
    assert np.array_equal(np.concatenate(chunks), traj.records.block)


@pytest.mark.parametrize("method", optim.METHODS)
def test_engine_matches_single_steps_across_blocks(method):
    # d = 5: blocks of STREAM_CHUNK rows, so T crosses two block and chunk
    # boundaries and ends mid-block
    p = make_quadratic(3, 2, mu=0.5, L=2.0, seed=5, sigma=0.3)
    T = 2 * optim.STREAM_CHUNK + 37
    cfg = OptimizerConfig(method=method, T=T, seed=11, gamma=0.002,
                          eta=0.004 if method == "single-call-momentum"
                          else 0.0,
                          batch=2, ema_lambda=0.9,
                          scaling=scaling_preset("oasis", 3, 2,
                                                 update_prob=0.5))
    assert_run_matches_steps(p, cfg)


@pytest.mark.parametrize("method", optim.METHODS)
def test_engine_matches_single_steps_with_short_blocks(method):
    # d = 100: blocks of 2**16 // 100 = 655 rows, so the chunk at 1000
    # flushes mid-block and the blocks no longer line up with the chunks
    dx = 50
    p = make_quadratic(dx, dx, mu=0.5, L=2.0, seed=6, sigma=0.3)
    T = 1100
    assert optim._BLOCK_ENTRIES // (2 * dx) < T
    cfg = OptimizerConfig(method=method, T=T, seed=12, gamma=0.002,
                          eta=0.004 if method == "single-call-momentum"
                          else 0.0,
                          scaling=scaling_preset("adahessian", dx, dx))
    assert_run_matches_steps(p, cfg)


@pytest.mark.parametrize("method, T, blocks", [
    ("extragrad", 1500, [1000, 1000, 1000]),
    ("single-call-momentum", 1500, [1000, 501]),
    ("sgda", 1500, [1000, 500]),
    ("single-call-momentum", 0, [1]),
    ("extragrad", 7, [7, 7]),
])
def test_run_draws_only_the_noise_it_uses(monkeypatch, method, T, blocks):
    # noise blocks of at most min(STREAM_CHUNK, T) rows at d = 5, and no
    # row past the 2T (extragrad), T (sgda) or T + 1 (single-call) the
    # run can use; each counted call takes one row
    drawn = []
    noise_into = problems.noise_into

    def counted(p, seeds, batch, out):
        drawn.append(out.shape[0])
        return noise_into(p, seeds, batch, out)

    monkeypatch.setattr(problems, "noise_into", counted)
    p = make_quadratic(3, 2, mu=0.5, L=2.0, seed=5, sigma=0.3)
    traj = run(p, OptimizerConfig(method=method, T=T, seed=1, gamma=1e-3))
    assert drawn == blocks
    assert traj.grad_calls == sum(blocks)


@pytest.mark.parametrize("method, field_calls, per_step", [
    ("extragrad", 2, 2), ("single-call-momentum", 2, 1), ("sgda", 1, 1)])
def test_a_step_that_fails_midway_adds_no_calls(monkeypatch, method,
                                                field_calls, per_step):
    # the last field evaluation of step k turns non-finite after that
    # step's gradient calls; only the k completed steps' calls count
    k = 5
    warm = int(method == "single-call-momentum")
    poisoned = warm + field_calls * (k + 1)
    seen = 0
    real = optim.field_into

    def field_into(p, z, out):
        nonlocal seen
        seen += 1
        real(p, z, out)
        if seen == poisoned:
            out[:] = np.inf
        return out

    monkeypatch.setattr(optim, "field_into", field_into)
    p = make_quadratic(3, 2, mu=0.5, L=2.0, seed=5, sigma=0.3)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DivergenceError) as info:
        run(p, OptimizerConfig(method=method, T=10, seed=1, gamma=1e-3))
    assert str(info.value) == f"iterate turned non-finite at iteration {k}"
    traj = info.value.trajectory
    want = [per_step * (t + 1) + warm for t in range(k)]
    assert traj.records.grad_calls.tolist() == want
    assert traj.grad_calls == want[-1]


def test_divergence_mid_block_keeps_an_exact_record_prefix():
    # noisy sgda on a bilinear game grows until its norm passes the radius;
    # at d = 400 the blocks hold 163 rows and the run stops inside one
    p = make_bilinear(200, L=1.0, seed=3, sigma=0.1)
    cfg = OptimizerConfig(method="sgda", gamma=0.2, T=5000, seed=2)
    chunks = []
    with pytest.raises(DivergenceError) as info:
        run(p, cfg, on_records=lambda c: chunks.append(c.block.copy()))
    err = info.value
    rows = optim._BLOCK_ENTRIES // 400
    assert err.t > optim.STREAM_CHUNK and err.t % rows != 0
    recs = err.trajectory.records
    assert len(recs) == err.t
    assert np.array_equal(np.concatenate(chunks), recs.block)
    ref = dataclasses.replace(cfg, T=err.t)
    (halves, final, avg_u, avg_e, grad_calls, _, _,
     records) = steps_reference(p, ref)
    assert [(r.dist2, r.r2_weighted, r.grad_norm2, r.dhat_min, r.dhat_max)
            for r in recs] == records
    assert recs.t.tolist() == list(range(err.t))
    assert recs.grad_calls.tolist() == list(range(1, err.t + 1))
    assert np.array_equal(err.trajectory.half_z, halves)
    assert np.array_equal(err.trajectory.final_z.as_vector(), final)
    assert err.trajectory.grad_calls == grad_calls


# ---------------------------------------------------------------------------
# scaling trace and record invariants


def test_trace_scaling_captures_fires_and_vectors():
    p = make_quadratic(3, 2, mu=0.5, L=2.0, seed=0)
    scaling = scaling_preset("oasis", 3, 2, update_prob=0.5)
    cfg = OptimizerConfig(method="extragrad", gamma=0.001, scaling=scaling,
                          T=60, seed=5, trace_scaling=True)
    traj = run(p, cfg)
    assert len(traj.scaling_trace) == 60
    fired = [e.fired for e in traj.scaling_trace]
    assert any(fired) and not all(fired)
    for prev, cur in zip(traj.scaling_trace, traj.scaling_trace[1:]):
        if not cur.fired:
            assert np.all(cur.clipped_x <= prev.clipped_x)
            assert np.all(cur.clipped_y <= prev.clipped_y)
    no_trace = run(p, OptimizerConfig(method="extragrad", gamma=0.001,
                                      scaling=scaling, T=3, seed=5))
    assert no_trace.scaling_trace is None


RANGE_SCALINGS = {
    "adam": lambda: scaling_preset("adam", 3, 2),
    "rmsprop": lambda: scaling_preset("rmsprop", 3, 2),
    "adahessian": lambda: scaling_preset("adahessian", 3, 2),
    "oasis": lambda: scaling_preset("oasis", 3, 2),
    "oasis-p0.3": lambda: scaling_preset("oasis", 3, 2, update_prob=0.3),
    "rmsprop-k3": lambda: scaling_preset("rmsprop", 3, 2, update_every_k=3),
}


@pytest.mark.parametrize("scaling", sorted(RANGE_SCALINGS))
@pytest.mark.parametrize("method", optim.METHODS)
def test_record_dhat_range_is_each_traced_rows_min_and_max(method, scaling):
    # verify's scaling-range audit reads these two columns, not the trace
    p = make_quadratic(3, 2, mu=0.5, L=2.0, seed=5, sigma=0.3)
    traj = run(p, OptimizerConfig(
        method=method, T=200, seed=11, gamma=0.002, batch=2,
        scaling=RANGE_SCALINGS[scaling](), trace_scaling=True))
    trace = traj.scaling_trace
    assert trace.fired.any()
    assert trace.fired.all() == (scaling in ("adam", "rmsprop", "adahessian",
                                             "oasis"))
    assert np.array_equal(traj.records.dhat_min, trace.clipped.min(axis=1))
    assert np.array_equal(traj.records.dhat_max, trace.clipped.max(axis=1))


def test_trace_view_rows_slices_and_columns():
    p = make_quadratic(3, 2, mu=0.5, L=2.0, seed=0)
    scaling = scaling_preset("oasis", 3, 2, update_prob=0.5)
    traj = run(p, OptimizerConfig(method="sgda", gamma=0.001, scaling=scaling,
                                  T=20, seed=5, trace_scaling=True))
    trace = traj.scaling_trace
    assert trace.clipped.shape == (20, 5) and trace.fired.dtype == bool
    assert not trace.clipped.flags.writeable
    assert not trace.fired.flags.writeable
    last = trace[-1]
    assert type(last.fired) is bool
    np.testing.assert_array_equal(last.clipped_x, trace.clipped[19, :3])
    np.testing.assert_array_equal(last.clipped_y, trace.clipped[19, 3:])
    tail = trace[15:]
    assert len(tail) == 5 and tail.d_x == 3
    assert [e.fired for e in tail] == trace.fired[15:].tolist()
    with pytest.raises(IndexError):
        trace[20]


def test_long_run_holds_half_z_and_56_bytes_per_record():
    # the records are one (T, 7) float64 block; per-record objects would
    # hold several hundred bytes each
    p = make_quadratic(10, 10, mu=1.0, L=2.0, seed=3, sigma=0.5)
    scaling = scaling_preset("rmsprop", 10, 10)
    cfg = OptimizerConfig(method="sgda", T=20_000, seed=1, scaling=scaling,
                          gamma=0.01, batch=8)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = run(p, cfg)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(traj.records) == 20_000
    assert held <= traj.half_z.nbytes + 100 * len(traj.records)


def test_record_weighted_distance_sandwich():
    p = make_quadratic(4, 4, mu=0.5, L=2.0, seed=1)
    scaling = scaling_preset("oasis", 4, 4)
    cfg = OptimizerConfig(method="extragrad", gamma=0.001, scaling=scaling,
                          T=200, seed=2)
    traj = run(p, cfg)
    cap = np.sqrt(8) * p.L
    for r in traj.records:
        assert scaling.floor_e * r.dist2 * (1 - 1e-12) <= r.r2_weighted
        assert r.r2_weighted <= cap * r.dist2 * (1 + 1e-12)
        assert scaling.floor_e <= r.dhat_min <= r.dhat_max <= cap


def test_batch_shrinks_noise():
    p = make_quadratic(2, 2, mu=0.5, L=2.0, seed=0, sigma=1.0)
    z = PointPair([0.3, -0.1], [0.2, 0.5])
    det = F(p, z.as_vector())
    noisy = gradient(p, z.as_vector(), seed=1, batch=10_000)
    assert np.linalg.norm(noisy - det) <= p.noise_bound / 100.0 + 1e-12


def test_runs_on_threads_match_serial_runs():
    # the keyed noise generator is per thread; one shared instance would mix
    # the draws of concurrent runs
    p = make_quadratic(10, 10, mu=0.5, L=2.0, seed=3, sigma=0.5)
    scaling = scaling_preset("rmsprop", 10, 10)
    configs = [OptimizerConfig(method="extragrad", gamma=0.01, T=5000,
                               seed=s, scaling=scaling) for s in range(4)]
    serial = [run(p, cfg) for cfg in configs]
    threaded = [None] * len(configs)

    def work(k):
        threaded[k] = run(p, configs[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(len(configs))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.final_z.as_vector(), b.final_z.as_vector())
        assert np.array_equal(a.half_z, b.half_z)


# ---------------------------------------------------------------------------
# streaming, divergence, validation


def test_on_records_streams_in_chunks():
    p = make_quadratic(2, 2, mu=0.5, L=2.0, seed=0)
    cfg = OptimizerConfig(method="sgda", gamma=0.01, scaling=identity(2, 2),
                          T=2500, seed=0)
    chunks = []
    traj = run(p, cfg, on_records=chunks.append)
    assert [len(c) for c in chunks] == [1000, 1000, 500]
    # each chunk is a view of rows the run never writes again
    flat = [r for c in chunks for r in c]
    assert flat == list(traj.records)
    assert np.array_equal(np.concatenate([c.block for c in chunks]),
                          traj.records.block)


def test_sgda_diverges_on_bilinear_with_partial_trajectory():
    p = xy_game()
    cfg = OptimizerConfig(method="sgda", gamma=0.5, scaling=identity(),
                          T=10_000, seed=0, z0=PointPair([1.0], [1.0]))
    with pytest.raises(DivergenceError) as info:
        run(p, cfg)
    err = info.value
    assert err.t is not None and 0 < err.t < 1000
    assert err.trajectory is not None
    assert len(err.trajectory.records) == err.t
    assert err.trajectory.records[-1].dist2 <= DIVERGENCE_RADIUS**2 * 4


@pytest.mark.parametrize("method, message, t", [
    ("extragrad", "iterate turned non-finite at iteration 0", 0),
    ("single-call-momentum", "iterate turned non-finite at iteration 0", 0),
    ("sgda", "iterate norm passed 1e+12 at iteration 0", 1),
])
def test_huge_step_diverges_where_the_iterate_overflows(method, message, t):
    # extragrad and single-call overflow at their second gradient step, so
    # the step fails and nothing is recorded; sgda's iterate stays finite
    # but its norm overflows, so its first record is kept
    p = make_quadratic(3, 2, mu=0.5, L=2.0, seed=5, sigma=0.3)
    cfg = OptimizerConfig(method=method, T=10, seed=1, gamma=1e300)
    streams = RunStreams.from_seed(1)
    z0 = np.concatenate([streams.init.standard_normal(3),
                         streams.init.standard_normal(2)])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DivergenceError) as info:
        run(p, cfg)
    err = info.value
    assert str(err) == message
    assert err.t == t == len(err.trajectory.records)
    assert err.trajectory.half_z.shape == (t, 5)
    if t == 0:
        np.testing.assert_array_equal(err.trajectory.final_z.as_vector(), z0)
    else:
        assert np.isfinite(err.trajectory.final_z.as_vector()).all()


def test_config_validation():
    s = identity()
    with pytest.raises(InvalidParameterError):
        OptimizerConfig(method="newton", gamma=0.1, scaling=s, T=1, seed=0)
    with pytest.raises(InvalidParameterError):
        OptimizerConfig(method="sgda", gamma=-0.1, scaling=s, T=1, seed=0)
    with pytest.raises(InvalidParameterError):
        OptimizerConfig(method="sgda", gamma=0.1, scaling=s, T=-1, seed=0)
    with pytest.raises(InvalidParameterError):
        OptimizerConfig(method="sgda", gamma=0.1, scaling=s, T=1, seed=0,
                        batch=0)
    with pytest.raises(InvalidParameterError):
        OptimizerConfig(method="single-call-momentum", gamma=0.1, scaling=s,
                        T=1, seed=0, eta=-1.0)
    with pytest.raises(InvalidParameterError):
        OptimizerConfig(method="single-call-momentum", gamma=0.1, scaling=s,
                        T=1, seed=0, anchor_prob=0.0)
    # NaN and non-integral counts are rejected up front, naming the parameter
    kw = dict(method="sgda", gamma=0.1, scaling=s, T=1, seed=0)
    for bad, name in ((dict(eta=np.nan), "eta"), (dict(batch=np.nan), "batch"),
                      (dict(batch=2.5), "batch"), (dict(T=3.0), "T"),
                      (dict(seed=1.5), "seed"), (dict(seed=-1), "seed")):
        with pytest.raises(InvalidParameterError, match=f"^{name} must"):
            OptimizerConfig(**{**kw, **bad})
    # numpy integers are counts too
    OptimizerConfig(method="sgda", gamma=0.1, scaling=s, T=np.int64(3),
                    seed=0, batch=np.int32(2))


def test_theory_safe_gates():
    p = make_quadratic(2, 2, mu=0.5, L=2.0, seed=0)  # SC: gamma <= e/(4L)
    s = scaling_preset("oasis", 2, 2)
    e = s.floor_e
    ok = OptimizerConfig(method="extragrad", gamma=e / (4 * p.L) * 0.99,
                         scaling=s, T=1, seed=0, theory_safe=True)
    run(p, ok)
    bad = OptimizerConfig(method="extragrad", gamma=e / (4 * p.L) * 1.01,
                          scaling=s, T=1, seed=0, theory_safe=True)
    with pytest.raises(InvalidParameterError):
        run(p, bad)
    # monotone-not-SC case allows up to e/(2L)
    b = make_bilinear(2, L=2.0, seed=0)
    mid = OptimizerConfig(method="extragrad", gamma=e / (3.9 * b.L),
                          scaling=s, T=1, seed=0, theory_safe=True)
    run(b, mid)
    # single-call gates: gamma <= e/(10L), eta <= e*p, p <= 1/4
    with pytest.raises(InvalidParameterError):
        run(p, OptimizerConfig(method="single-call-momentum",
                               gamma=e / (9 * p.L), scaling=s, T=1, seed=0,
                               anchor_prob=0.25, theory_safe=True))
    with pytest.raises(InvalidParameterError):
        run(p, OptimizerConfig(method="single-call-momentum",
                               gamma=e / (11 * p.L), scaling=s, T=1, seed=0,
                               anchor_prob=0.25, eta=e, theory_safe=True))
    with pytest.raises(InvalidParameterError):
        run(p, OptimizerConfig(method="single-call-momentum",
                               gamma=e / (11 * p.L), scaling=s, T=1, seed=0,
                               anchor_prob=0.3, theory_safe=True))
    run(p, OptimizerConfig(method="single-call-momentum",
                           gamma=e / (11 * p.L), scaling=s, T=1, seed=0,
                           anchor_prob=0.25, eta=e * 0.25, theory_safe=True))


def test_resolve_gamma_default_is_conservative():
    p = make_quadratic(2, 2, mu=0.5, L=2.0, seed=0)
    s = scaling_preset("oasis", 2, 2)
    cfg = OptimizerConfig(method="extragrad", gamma=None, scaling=s, T=1,
                          seed=0)
    assert resolve_gamma(p, cfg) == pytest.approx(s.floor_e / (10 * p.L))
    explicit = OptimizerConfig(method="extragrad", gamma=0.123, scaling=s,
                               T=1, seed=0)
    assert resolve_gamma(p, explicit) == 0.123


def test_anchor_prob_one_pins_anchor_to_previous_iterate():
    p = make_quadratic(2, 2, mu=0.5, L=2.0, seed=0)
    streams = RunStreams.from_seed(0)
    z = np.ones(4)
    w = np.full(4, 9.0)
    g = warm_start_single_call(p, z, streams)
    s = scaling_preset("oasis", 2, 2)
    z1, zh, w1, g, s = step_single_call(
        p, z, w, z, g, s, gamma=1e-3, eta=0.0, anchor_prob=1.0,
        streams=streams)
    np.testing.assert_array_equal(w1, z)
    z2, _, w2, g, s = step_single_call(
        p, z1, w1, zh, g, s, gamma=1e-3, eta=0.0, anchor_prob=1.0,
        streams=streams)
    np.testing.assert_array_equal(w2, z1)
