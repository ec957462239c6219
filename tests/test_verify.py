"""The column audits behind verify's ``scaling-range`` and ``scaling-growth``,
and a check whose run diverges.

Short traced runs stand in for the checks' cached 1e4-step runs, and one
violation at a time is planted into a copy of a run's records (the range
audit reads their D-hat min and max columns) or of its trace (the growth
audit reads the clipped diagonals).  Each audit must count exactly that one.
"""

import dataclasses
import json
import re

import pytest

from saddle_scale import bench, verify
from saddle_scale.metrics import RECORD_FIELDS, Records
from saddle_scale.optim import OptimizerConfig, ScalingTrace, run
from saddle_scale.precond import beta_t, growth_constant, scaling_preset
from saddle_scale.problems import SaddleProblem, make_bilinear, make_quadratic

SEED = 5
T = 300


def traced_run(problem, scaling, seed):
    return run(problem, OptimizerConfig(
        method="sgda", T=T, seed=seed, scaling=scaling,
        gamma=scaling.floor_e / (4.0 * problem.L), batch=8,
        trace_scaling=True))


# verify's cache keys (seed, preset, update_prob) of the four preset runs
# at SEED and of the probabilistic-update run the growth check adds
PRESET_KEYS = [(SEED, name, 1.0)
               for name in ("adam", "rmsprop", "adahessian", "oasis")]
SKIP_KEY = (SEED + 1, "oasis", 0.3)


@pytest.fixture()
def cached_runs(monkeypatch):
    """verify's run cache, filled with short runs under the keys above."""
    monkeypatch.setattr(verify, "_RANGE_CACHE", {})
    problem = make_quadratic(10, 10, mu=1.0, L=2.0, seed=101, sigma=0.5)
    for seed, name, update_prob in PRESET_KEYS + [SKIP_KEY]:
        scaling = scaling_preset(name, 10, 10, update_prob=update_prob)
        verify._RANGE_CACHE[seed, name, update_prob] = (
            problem, traced_run(problem, scaling, seed))
    return verify._RANGE_CACHE


def planted(cached, step, entry, value):
    """A cached (problem, trajectory) whose trace has ``value`` at
    ``[step, entry]``."""
    problem, traj = cached
    trace = traj.scaling_trace
    clipped = trace.clipped.copy()
    clipped[step, entry] = value
    return problem, dataclasses.replace(
        traj, scaling_trace=ScalingTrace(clipped, trace.fired, trace.d_x))


def planted_record(cached, step, column, value):
    """A cached (problem, trajectory) whose records have ``value`` in
    ``column`` at ``step``."""
    problem, traj = cached
    block = traj.records.block.copy()
    block[step, RECORD_FIELDS.index(column)] = value
    return problem, dataclasses.replace(traj, records=Records(block))


def violations(name):
    measured = verify.run_check(name, seed=SEED).measured
    return int(re.search(r"violations=(\d+)", measured).group(1))


def growth_limit(problem, traj, k, entry):
    """The growth check's bound on entry ``entry`` at fired step ``k``."""
    scaling = traj.config.scaling
    cap = verify._cap_for(problem, traj, scaling)
    c_full = growth_constant(
        dataclasses.replace(scaling, update_prob=1.0, update_every_k=None),
        cap)
    factor = 1.0 + (1.0 - beta_t(scaling.schedule, scaling.beta, k)) * c_full
    return factor * traj.scaling_trace.clipped[k - 1, entry] + 1e-12


def test_clean_runs_have_no_violations(cached_runs):
    assert violations("scaling-range") == 0
    assert violations("scaling-growth") == 0


def test_range_counts_an_entry_below_the_floor(cached_runs):
    key = PRESET_KEYS[3]
    _, traj = cached_runs[key]
    cached_runs[key] = planted_record(cached_runs[key], 17, "dhat_min",
                                      traj.config.scaling.floor_e / 2)
    assert violations("scaling-range") == 1


def test_range_counts_an_entry_above_gamma(cached_runs):
    key = PRESET_KEYS[1]
    problem, traj = cached_runs[key]
    cap = verify._cap_for(problem, traj, traj.config.scaling)
    cached_runs[key] = planted_record(cached_runs[key], 250, "dhat_max",
                                      2.0 * cap)
    assert violations("scaling-range") == 1


def test_growth_counts_a_fired_step_above_its_factor(cached_runs):
    problem, traj = cached_runs[SKIP_KEY]
    k = next(k for k in range(1, T) if traj.scaling_trace.fired[k])
    cached_runs[SKIP_KEY] = planted(cached_runs[SKIP_KEY], k, 7,
                                    1.5 * growth_limit(problem, traj, k, 7))
    assert violations("scaling-growth") == 1


def test_growth_counts_a_skipped_step_that_grows(cached_runs):
    _, traj = cached_runs[SKIP_KEY]
    k = next(k for k in range(1, T) if not traj.scaling_trace.fired[k])
    # well inside the fired factor, so only the skipped-step rule sees it
    grown = traj.scaling_trace.clipped[k - 1, 2] * 1.001
    cached_runs[SKIP_KEY] = planted(cached_runs[SKIP_KEY], k, 2, grown)
    assert violations("scaling-growth") == 1


# ---------------------------------------------------------------------------
# a check whose run diverges


@pytest.fixture()
def diverging_rate_check(monkeypatch):
    """``monotone-average-rate`` on a game 1000x steeper than its stated L,
    so its step overshoots by that factor and extragrad diverges within a
    few iterations, as it did with the extrapolation's division by D-hat
    left out."""
    def steep_bilinear(d, L, seed):
        p = make_bilinear(d, L=L, seed=seed)
        steep = SaddleProblem.bilinear_from_matrix(1e3 * p.B)
        return dataclasses.replace(steep, L=p.L)

    monkeypatch.setattr(verify, "make_bilinear", steep_bilinear)


NAMES = ["divergence-split", "monotone-average-rate", "scalar-inequality"]


def test_a_diverging_check_fails_and_the_slate_goes_on(diverging_rate_check):
    results = verify.run_all(only=NAMES, seed=42)
    assert [r.name for r in results] == NAMES
    assert [r.passed for r in results] == [True, False, True]
    measured = results[1].measured
    assert re.fullmatch(r"DivergenceError: iterate norm passed 1e\+12 at "
                        r"iteration \d+", measured), measured


def test_verify_prints_the_diverged_row_and_exits_one(diverging_rate_check,
                                                      capsys):
    assert bench.cmd_verify([",".join(NAMES)], 42) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + 2 * len(NAMES)
    assert lines[3].startswith("monotone-average-rate  FAIL")
    assert "measured DivergenceError: iterate norm passed" in lines[4]
    assert json.loads(lines[-1]) == {"checks": 3,
                                     "failures": ["monotone-average-rate"]}
