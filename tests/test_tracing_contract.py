"""The benchmark's tracing contract, checked without running the benchmark.

A traced ``perfbench`` round wraps the program's layer boundaries by name
(``runner.install_tracing``, which fails on a name that is gone) and reads
fields of what they return: ``Trajectory.half_z`` and the scaling trace
entries.  Untraced rounds touch none of this, so a rename or a changed
return type would only show up as a crashed traced round.  This test
installs the same tracing on short runs of every method and checks the
counters and per-layer call counts that the traced round reports for the
layers ``run`` calls.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import saddle_scale
from saddle_scale import bench

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
T = 30


@pytest.fixture()
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # runner turns bytecode writing off for its own process; keep ours as is
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    import runner
    import tracer
    return runner, tracer


def test_traced_runs_report_every_layer(perfbench_modules, tmp_path):
    runner, tracer_mod = perfbench_modules
    ss = saddle_scale
    problem = ss.make_quadratic(3, 2, mu=0.5, L=2.0, seed=1, sigma=0.3)
    configs = [
        ss.OptimizerConfig(method="extragrad", T=T, seed=1, gamma=1e-3,
                           scaling=ss.scaling_preset("rmsprop", 3, 2)),
        ss.OptimizerConfig(method="single-call-momentum", T=T, seed=2,
                           gamma=5e-4, eta=1e-3,
                           scaling=ss.scaling_preset("adahessian", 3, 2)),
        ss.OptimizerConfig(method="sgda", T=T, seed=3, gamma=1e-3,
                           scaling=ss.scaling_preset("oasis", 3, 2,
                                                     update_prob=0.5),
                           trace_scaling=True),
    ]
    # minty's Hessian varies with the iterate, so its probes stay per step
    minty = ss.make_minty(seed=7, sigma=0.2)
    minty_config = ss.OptimizerConfig(
        method="extragrad", T=T, seed=4, gamma=1e-3,
        scaling=ss.scaling_preset("adahessian", 1, 1))
    tracer = tracer_mod.Tracer()
    runner.install_tracing(tracer, ss, bench=bench)
    try:
        trajs = [ss.run(problem, cfg) for cfg in configs]
        minty_traj = ss.run(minty, minty_config)
    finally:
        tracer.restore()
    assert ss.run is saddle_scale.optim.run
    assert saddle_scale.optim.field_into is saddle_scale.problems.field_into

    counters = tracer.counters()
    assert counters["optim.records"] == 4 * T
    # every run keeps T rows of its half-step entries (5, or 2 on minty);
    # the traced sgda run keeps T clipped diagonals of 5 entries
    assert counters["optim.half_z.bytes"] == 3 * T * 5 * 8 + T * 2 * 8
    assert counters["optim.scaling_trace.bytes"] == T * 5 * 8
    assert all(len(t.records) == T for t in trajs + [minty_traj])

    spans = tmp_path / "spans.npz"
    tracer.save(spans)
    layers = tracer_mod.reduce_spans(spans)
    # F(z_t) once per iteration in run, plus each iteration's fresh
    # gradient calls after the first: extragrad 1, single-call 1 (+1 warm
    # start), sgda 0
    assert layers["problems.field_into"]["calls"] == (
        2 * T + (2 * T + 1) + T + 2 * T)
    # rmsprop and adahessian fire every step, oasis at p = 0.5
    fires = 2 * T + sum(e.fired for e in trajs[2].scaling_trace)
    assert 2 * T < fires < 3 * T
    hutchinson_fires = sum(t.hvp_calls for t in trajs)
    assert hutchinson_fires == fires - T
    # on the quadratic only grad-square reads the iterate and calls
    # curvature_for, once per fire; the Hutchinson scalings take their
    # probes a block at a time, through neither curvature_for nor hvp_into
    assert minty_traj.hvp_calls == T
    curvature = layers["precond.curvature_for"]
    assert curvature["calls"] == T + minty_traj.hvp_calls
    hvp = layers["problems.hvp_into"]
    assert hvp["calls"] == minty_traj.hvp_calls
    assert hvp["by_parent"]["precond.curvature_for"]["calls"] == T
    assert np.isfinite(trajs[2].final_z.as_vector()).all()
