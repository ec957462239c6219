"""Desk-scale verification suite.

Each check exercises one promised property of the library end to end —
clipping ranges, per-update growth bounds, deterministic contraction,
average-iterate rates, oracle accounting, estimator unbiasedness — at sizes
that finish in seconds.  The registry backs both the ``verify`` CLI
subcommand and the acceptance test suite; the checks and their tolerances
are the contract, so nothing here adapts to the data.
"""

import dataclasses
import math
from dataclasses import dataclass
from itertools import product
from time import perf_counter

import numpy as np

from .errors import DivergenceError, InvalidParameterError
from .metrics import (
    check_scalar_inequality,
    contraction_check,
    fit_rate,
    gap_restricted,
    noise_floor,
)
from .optim import (
    OptimizerConfig,
    RunStreams,
    run,
    step_extragrad,
    step_single_call,
    warm_start_single_call,
)
from .precond import (
    ScalingState,
    beta_series,
    curvature_hutchinson,
    gamma_bound,
    growth_constant,
    hutchinson_probe,
    scaling_preset,
)
from .problems import (
    PointPair,
    SaddleProblem,
    field_into,
    make_bilinear,
    make_minty,
    make_quadratic,
    quadratic_from_matrices,
)


@dataclass
class CheckResult:
    name: str
    claim: str
    passed: bool
    measured: str
    bound: str
    seconds: float
    # wall-clock figures, which differ from run to run; ``measured`` holds
    # only what a seed fixes
    timing: str = ""


_CHECKS = {}
CHECK_ORDER = []


def _register(name, claim):
    def wrap(fn):
        _CHECKS[name] = (claim, fn)
        CHECK_ORDER.append(name)
        return fn
    return wrap


def run_check(name, seed=42):
    if name not in _CHECKS:
        raise InvalidParameterError(
            f"unknown check {name!r}; available: {', '.join(CHECK_ORDER)}")
    claim, fn = _CHECKS[name]
    t0 = perf_counter()
    timing = ""
    try:
        passed, measured, bound, *rest = fn(seed)
        if rest:
            (timing,) = rest
    except DivergenceError as exc:
        # a diverged run fails its check, and the slate goes on
        passed, measured = False, f"DivergenceError: {exc}"
        bound = "no divergence"
    return CheckResult(name=name, claim=claim, passed=bool(passed),
                       measured=measured, bound=bound,
                       seconds=perf_counter() - t0, timing=timing)


def run_all(only=None, seed=42):
    names = only if only else CHECK_ORDER
    return [run_check(n, seed=seed) for n in names]


# ---------------------------------------------------------------------------
# shared fixtures


_RANGE_CACHE = {}
_RANGE_PRESETS = ("adam", "rmsprop", "adahessian", "oasis")


def _traced_run(seed, preset, update_prob=1.0):
    """(problem, trajectory) of one cached traced run of ``preset`` on a
    noisy SC quadratic (total dimension 20).  Descent-ascent drives the
    trajectory: the clipping audit concerns the scaling updates, which fire
    once per iteration for every method, and the single oracle call per
    step keeps the suite fast."""
    key = (seed, preset, update_prob)
    if key not in _RANGE_CACHE:
        problem = make_quadratic(10, 10, mu=1.0, L=2.0, seed=101, sigma=0.5)
        scaling = scaling_preset(preset, 10, 10, update_prob=update_prob)
        cfg = OptimizerConfig(
            method="sgda", T=10_000, seed=seed, scaling=scaling,
            gamma=scaling.floor_e / (4.0 * problem.L), batch=8,
            trace_scaling=True)
        _RANGE_CACHE[key] = (problem, run(problem, cfg))
    return _RANGE_CACHE[key]


def _cap_for(problem, traj, scaling):
    """Certified curvature bound for one finished run: dimension-scaled L
    for Rademacher probes, or the gradient bound over the smallest
    origin-of-z* ball that provably contains every visited iterate."""
    if scaling.source == "hutchinson":
        return gamma_bound("hutchinson", problem)
    radius = math.sqrt(traj.records.dist2.max()) * (1 + 1e-9)
    return gamma_bound("grad-square", problem, region_radius=radius)


# ---------------------------------------------------------------------------
# the checks


@_register("scaling-range",
           "clipped diagonal entries stay in [e, Gamma] across 1e4-step runs "
           "of all four presets")
def _check_scaling_range(seed):
    violations = 0
    worst = 0.0
    for preset in _RANGE_PRESETS:
        problem, traj = _traced_run(seed, preset)
        scaling = traj.config.scaling
        cap = _cap_for(problem, traj, scaling)
        # each record carries the min and max of the step's clipped diagonal
        recs = traj.records
        bad = (recs.dhat_min < scaling.floor_e) | (recs.dhat_max > cap)
        violations += int(np.count_nonzero(bad))
        worst = max(worst, float(recs.dhat_max.max()) / cap)
    return (violations == 0,
            f"violations={violations}, max Dhat/Gamma={worst:.3f}",
            "0 violations over 4x1e4 updates")


@_register("scaling-growth",
           "every fired update grows clipped entries by at most "
           "1 + (1-beta_t) C; skipped updates never grow them")
def _check_scaling_growth(seed):
    # the probabilistic-update run hits the skipped branch
    runs = [_traced_run(seed, preset) for preset in _RANGE_PRESETS]
    runs.append(_traced_run(seed + 1, "oasis", update_prob=0.3))
    violations = 0
    checked = 0
    for problem, traj in runs:
        scaling = traj.config.scaling
        cap = _cap_for(problem, traj, scaling)
        c_full = growth_constant(
            dataclasses.replace(scaling, update_prob=1.0, update_every_k=None),
            cap)
        trace = traj.scaling_trace
        n = len(trace)
        # step k + 1 against step k: a fired step may grow each entry by its
        # factor, a skipped one not at all
        factors = 1.0 + (1.0 - beta_series(scaling.schedule, scaling.beta,
                                           1, n)) * c_full
        prev, cur = trace.clipped[:-1], trace.clipped[1:]
        limit = np.where(trace.fired[1:, None],
                         factors[:, None] * prev + 1e-12, prev)
        checked += max(n - 1, 0)
        violations += int(np.count_nonzero(~(cur <= limit).all(axis=1)))
    return (violations == 0,
            f"violations={violations} over {checked} steps",
            "0 violations")


@_register("sc-contraction",
           "noise-free strongly-monotone extragradient runs satisfy the "
           "per-step weighted contraction and land at 1e-16 of the start")
def _check_sc_contraction(seed):
    worst_ratio = 0.0
    T = 3000
    budget = None
    for s in range(5):
        problem = make_quadratic(10, 10, mu=1.0, L=2.0, seed=301 + s)
        cap = gamma_bound("hutchinson", problem)
        e = 0.01
        gamma = e / (4.0 * problem.L)
        c_growth = 2.0 * cap / e  # additive rule, p = 1
        beta = max(0.999, 1.0 - gamma * problem.mu / (2.0 * cap * c_growth))
        scaling = ScalingState.create(
            rule="additive-ema", source="hutchinson", schedule="constant-beta",
            beta=beta, floor_e=e, update_prob=1.0, d_x=10, d_y=10)
        budget = math.ceil(40.0 * cap / (gamma * problem.mu))
        assert T <= budget
        cfg = OptimizerConfig(method="extragrad", T=T, seed=seed + s,
                              scaling=scaling, gamma=gamma)
        traj = run(problem, cfg)
        rep = contraction_check(traj, problem, cfg)
        if not rep.passed:
            return (False, f"per-step violation at t={rep.first_violation[0]}",
                    "no violations")
        d0 = float(traj.records.dist2[0])
        final = traj.final_z.as_vector() - problem.z_star.as_vector()
        ratio = float(final @ final) / d0
        worst_ratio = max(worst_ratio, ratio)
    return (worst_ratio <= 1e-16,
            f"worst final dist2/start={worst_ratio:.2e} within T={T} "
            f"(budget {budget})",
            "<= 1e-16")


@_register("monotone-average-rate",
           "restricted gap of the uniform average decays like 1/T on a "
           "bilinear game (log-log slope -1 +- 0.15)")
def _check_monotone_rate(seed):
    problem = make_bilinear(5, L=2.0, seed=202)
    scaling = scaling_preset("oasis", 5, 5)
    gamma = scaling.floor_e / (2.0 * problem.L)
    horizons = [100, 1000, 10_000, 100_000]
    gaps = []
    for T in horizons:
        cfg = OptimizerConfig(method="extragrad", T=T, seed=seed,
                              scaling=scaling, gamma=gamma)
        traj = run(problem, cfg)
        gaps.append(gap_restricted(problem, traj.final_avg_uniform, 1.0))
    slope = fit_rate(gaps, ts=horizons, mode="loglog", burn_in=0.0)
    return (-1.15 <= slope <= -0.85,
            f"slope={slope:.3f}, gaps={['%.2e' % g for g in gaps]}",
            "slope in [-1.15, -0.85]")


@_register("divergence-split",
           "on f = xy, descent-ascent multiplies ||z||^2 by exactly "
           "1 + gamma^2 per step while extragradient shrinks it")
def _check_divergence_split(seed):
    problem = SaddleProblem.bilinear_from_matrix(np.array([[1.0]]))
    z0 = PointPair([1.0], [1.0])
    scaling = scaling_preset("identity", 1, 1)
    sgda = run(problem, OptimizerConfig(
        method="sgda", T=100, seed=seed, scaling=scaling, gamma=0.1, z0=z0))
    grew = sgda.final_z.as_vector()
    measured = float(grew @ grew)
    predicted = 1.01**100 * 2.0
    rel = abs(measured - predicted) / predicted
    eg = run(problem, OptimizerConfig(
        method="extragrad", T=100, seed=seed, scaling=scaling, gamma=0.1,
        z0=z0))
    dists = eg.records.dist2
    monotone = bool(np.all(dists[1:] < dists[:-1]))
    return (rel <= 1e-10 and monotone,
            f"growth rel err={rel:.2e}, extragrad monotone={monotone}",
            "rel err <= 1e-10 and strictly decreasing")


@_register("noise-floor-halving",
           "halving the step size roughly halves the stochastic plateau "
           "(ratio within [0.3, 0.8] over 5 seeds)")
def _check_noise_floor(seed):
    problem = make_quadratic(10, 10, mu=1.0, L=2.0, seed=303, sigma=1.0)
    scaling = scaling_preset("oasis", 10, 10)
    gamma = scaling.floor_e / (4.0 * problem.L)
    ratios = []
    for s in range(5):
        plateaus = {}
        for g in (gamma, gamma / 2.0):
            cfg = OptimizerConfig(method="extragrad", T=12_000, seed=seed + s,
                                  scaling=scaling, gamma=g, batch=16)
            plateaus[g] = noise_floor(run(problem, cfg).records)
        ratios.append(plateaus[gamma / 2.0] / plateaus[gamma])
    mean_ratio = float(np.mean(ratios))
    return (0.3 <= mean_ratio <= 0.8,
            f"mean plateau ratio={mean_ratio:.3f} "
            f"(per seed: {['%.2f' % r for r in ratios]})",
            "in [0.3, 0.8]")


@_register("call-accounting",
           "gradient calls are exactly 2T (extragradient) and T+1 "
           "(single-call); single-call iterations cost < 0.65x wall-clock")
def _check_call_accounting(seed):
    small = make_quadratic(4, 4, mu=0.5, L=2.0, seed=404)
    scaling = scaling_preset("rmsprop", 4, 4)
    eg = run(small, OptimizerConfig(method="extragrad", T=1000, seed=seed,
                                    scaling=scaling, gamma=1e-4))
    sc = run(small, OptimizerConfig(method="single-call-momentum", T=1000,
                                    seed=seed, scaling=scaling, gamma=1e-4))
    counts_ok = eg.grad_calls == 2000 and sc.grad_calls == 1001

    big = make_quadratic(500, 500, mu=0.5, L=2.0, seed=505)
    big_scaling = scaling_preset("rmsprop", 500, 500)
    streams = RunStreams.from_seed(seed)
    z0 = np.concatenate([streams.init.standard_normal(500),
                         streams.init.standard_normal(500)])
    f_z = np.empty(1000)
    gamma = 1e-6

    def eg_loop(iters):
        z, s = z0, big_scaling.spawn(500, 500)
        for _ in range(iters):
            z, _, s = step_extragrad(big, z, field_into(big, z, f_z), s,
                                     gamma, streams)

    def sc_loop(iters):
        z, s = z0, big_scaling.spawn(500, 500)
        z_half, g = z, warm_start_single_call(big, z, streams)
        w = z
        for _ in range(iters):
            z, z_half, w, g, s = step_single_call(
                big, z, w, z_half, g, s, gamma, 0.0, 0.25, streams)

    def best_times(loops, iters=150, reps=3):
        """Best seconds per iteration of each loop; the loops alternate rep
        by rep, so a slow spell on the host slows both sides."""
        for fn in loops:
            fn(10)  # warm caches
        best = [math.inf] * len(loops)
        for _ in range(reps):
            for k, fn in enumerate(loops):
                t0 = perf_counter()
                fn(iters)
                best[k] = min(best[k], perf_counter() - t0)
        return [b / iters for b in best]

    t_eg, t_sc = best_times((eg_loop, sc_loop))
    ratio = t_sc / t_eg
    return (counts_ok and ratio < 0.65,
            f"calls eg={eg.grad_calls} sc={sc.grad_calls}",
            "2000 / 1001 and ratio < 0.65",
            f"per-iter {t_sc * 1e6:.0f}us vs {t_eg * 1e6:.0f}us, "
            f"ratio={ratio:.3f}")


@_register("hutchinson-unbiased",
           "the Rademacher diagonal probe matches diag(A): exact under "
           "full enumeration, within 3 standard errors over 1e5 draws")
def _check_hutchinson(seed):
    rng = np.random.default_rng(606)
    M = rng.standard_normal((5, 5))
    A = M @ M.T + 5.0 * np.eye(5)
    problem = quadratic_from_matrices(A, np.zeros((5, 5)), np.eye(5),
                                      np.zeros(5), np.zeros(5))
    z = np.zeros(10)

    acc = np.zeros(5)
    for signs in product([-1.0, 1.0], repeat=5):
        v = np.concatenate([signs, np.ones(5)])
        acc += hutchinson_probe(problem, z, v)[:5]
    enum_err = float(np.abs(acc / 32.0 - np.diag(A)).max())

    stream = np.random.default_rng(seed)
    n = 100_000
    draws = np.empty((n, 5))
    for i in range(n):
        draws[i] = curvature_hutchinson(problem, z, stream)[:5]
    se = draws.std(axis=0, ddof=1) / math.sqrt(n)
    dev = np.abs(draws.mean(axis=0) - np.diag(A))
    z_scores = dev / se
    return (enum_err <= 1e-12 and np.all(dev <= 3.0 * se),
            f"enumeration err={enum_err:.1e}, max |mean-diag|/SE="
            f"{z_scores.max():.2f}",
            "1e-12 and 3 SE")


@_register("scalar-inequality",
           "(1 - 1/T)^sqrt(T) <= 1 - 1/(2 sqrt(T)) on a 1e4-point "
           "log-spaced sweep of [1, 1e6]")
def _check_scalar_inequality(seed):
    ts = np.unique(np.round(np.logspace(0, 6, 10_000)).astype(int))
    failures = [int(T) for T in ts if not check_scalar_inequality(int(T))]
    return (not failures,
            f"{len(ts)} distinct T checked, {len(failures)} failures",
            "0 failures")


@_register("nonmonotone-trend",
           "on the certified non-monotone problem the best-so-far squared "
           "field norm falls with log-log slope <= -0.7")
def _check_nonmonotone_trend(seed):
    problem = make_minty(seed=5, sigma=0.1)
    scaling = scaling_preset("oasis", 1, 1)
    gamma = 2e-4
    assert gamma <= scaling.floor_e / (3.0 * problem.L)
    cfg = OptimizerConfig(method="extragrad", T=100_000, seed=seed,
                          scaling=scaling, gamma=gamma, batch=10_000)
    traj = run(problem, cfg)
    checkpoints = [1000, 10_000, 100_000]
    # records[t] is iteration t, so checkpoint c closes after c records
    best = np.minimum.accumulate(traj.records.grad_norm2)
    mins = [float(best[c - 1]) for c in checkpoints]
    slope = fit_rate(mins, ts=checkpoints, mode="loglog", burn_in=0.0)
    return (slope <= -0.7,
            f"slope={slope:.2f}, best grad_norm2={['%.1e' % m for m in mins]}",
            "slope <= -0.7")


@_register("momentum-parity",
           "negative momentum at eta = e*p, p = 1/4 reaches the 1e-12 "
           "ball within 2x the plain single-call iterations")
def _check_momentum_parity(seed):
    problem = make_quadratic(10, 10, mu=0.5, L=2.0, seed=808)
    scaling = scaling_preset("oasis", 10, 10)
    e = scaling.floor_e
    gamma = e / (10.0 * problem.L)
    T = 150_000

    def first_hit(eta):
        cfg = OptimizerConfig(
            method="single-call-momentum", T=T, seed=seed, scaling=scaling,
            gamma=gamma, eta=eta, anchor_prob=0.25, theory_safe=True)
        state = {"target": None, "hit": None}

        def watch(chunk):
            if state["target"] is None:
                state["target"] = 1e-12 * chunk.dist2[0]
            if state["hit"] is None:
                hits = np.flatnonzero(chunk.dist2 <= state["target"])
                if hits.size:
                    state["hit"] = int(chunk.t[hits[0]])
        run(problem, cfg, on_records=watch)
        return state["hit"]

    plain = first_hit(0.0)
    momentum = first_hit(e * 0.25)
    ok = plain is not None and momentum is not None and momentum <= 2 * plain
    return (ok,
            f"first hit: eta=0 at t={plain}, eta=e/4 at t={momentum}",
            "momentum <= 2x plain, both within budget")
