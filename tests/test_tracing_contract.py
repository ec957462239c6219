"""The benchmark's tracing contract, checked without running the benchmark.

A traced ``perfbench`` round wraps the program's layer boundaries by name
(``runner.install_tracing``) and reads fields of what they return: the
``ScalingState`` from ``advance``, ``Trajectory.half_z`` and the scaling
trace entries.  Untraced rounds touch none of this, so a rename or a changed
return type would only show up as a crashed traced round.  This test
installs the same tracing on short runs of every method and checks the
counters and per-layer call counts that the traced round reports.
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
    tracer = tracer_mod.Tracer()
    runner.install_tracing(tracer, ss, bench=bench)
    try:
        trajs = [ss.run(problem, cfg) for cfg in configs]
    finally:
        tracer.restore()
    assert ss.run is saddle_scale.optim.run
    assert saddle_scale.optim.field_into is saddle_scale.problems.field_into

    counters = tracer.counters()
    for key in ("precond.ema.fires", "precond.ema.skips",
                "optim.half_z.bytes", "optim.scaling_trace.bytes"):
        assert counters.get(key, 0) > 0, key
    assert counters["optim.records"] == 3 * T
    assert counters["precond.clip.entries"] == 3 * T * 5
    assert all(len(t.records) == T for t in trajs)

    spans = tmp_path / "spans.npz"
    tracer.save(spans)
    layers = tracer_mod.reduce_spans(spans)
    # F(z_t) once per iteration in run, plus each step's fresh gradient
    # calls after the first: extragrad 1, single-call 1 (+1 warm start),
    # sgda 0
    assert layers["problems.field_into"]["calls"] == 2 * T + (2 * T + 1) + T
    assert layers["optim.step_extragrad"]["calls"] == T
    assert layers["optim.step_single_call"]["calls"] == T
    assert layers["optim.step_sgda"]["calls"] == T
    assert layers["precond.advance"]["calls"] == 3 * T
    assert layers["metrics.weighted_dist_sq"]["calls"] == 3 * T
    hutchinson_fires = sum(t.hvp_calls for t in trajs)
    assert layers["problems.hvp_into"]["calls"] == hutchinson_fires > 0
    assert np.isfinite(trajs[2].final_z.as_vector()).all()
