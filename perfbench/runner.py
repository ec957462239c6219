"""One benchmark round, run by ``run.py`` in a fresh interpreter.

A round sets the workload up, times its operations and writes the raw
outputs to ``--out``: ``result.json`` (timings, counts, per-run summaries),
``arrays.npz`` (vectors the orchestrator checks against the reference)
and, in a traced round, ``spans.npz``.  It checks nothing itself, so the
reference work never lands in this process's peak memory.

The program is driven only through its public entry points: the
``saddle_scale`` package (``make_quadratic``, ``run``) and the CLI's
``saddle_scale.bench.main``, the function behind ``saddle-scale``.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from layers import field_cost, hvp_cost  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_program():
    """Import saddle_scale from this checkout's ``src`` and nowhere else."""
    if not (SRC / "saddle_scale" / "__init__.py").is_file():
        raise SystemExit(f"no program source at {SRC / 'saddle_scale'}")
    sys.path.insert(0, str(SRC))
    import saddle_scale
    if Path(saddle_scale.__file__).resolve().parent != SRC / "saddle_scale":
        raise SystemExit(f"saddle_scale imported from {saddle_scale.__file__}")
    return saddle_scale


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_kib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# observation of returned trajectories


def observe_runs(module, sink, errors, detail):
    """Wrap ``module.run`` so each returned (or diverged) trajectory is
    counted: one extra call per run, none per iteration."""
    fn = module.run

    def counted(*args, **kwargs):
        try:
            traj = fn(*args, **kwargs)
        except errors.DivergenceError as exc:
            _count_trajectory(sink, exc.trajectory, detail)
            raise
        _count_trajectory(sink, traj, detail)
        return traj

    module.run = counted


def _count_trajectory(sink, traj, detail):
    sink.count("optim.records", len(traj.records))
    if detail:
        sink.count("optim.half_z.bytes", traj.half_z.nbytes)
        if traj.scaling_trace is not None:
            sink.count("optim.scaling_trace.bytes", sum(
                e.clipped_x.nbytes + e.clipped_y.nbytes
                for e in traj.scaling_trace))


# ---------------------------------------------------------------------------
# tracing: wrap each function where its caller looks it up


def install_tracing(tracer, ss, bench=None):
    """Wrap the layer boundaries of ``saddle_scale`` (and of the CLI module
    ``bench`` when given) and attach the counters the per-layer metrics
    read."""
    from saddle_scale import optim, problems, verify

    costs = {}

    def kernel_observer(prefix, cost_fn):
        def observe(t, args, result):
            p = args[0]
            key = (prefix, p.kind, p.d_x, p.d_y)
            if key not in costs:
                costs[key] = cost_fn(p.kind, p.d_x, p.d_y)
            flops, nbytes = costs[key]
            t.count(prefix + ".flops", flops)
            t.count(prefix + ".bytes", nbytes)
        return observe

    def observe_advance(t, args, state):
        t.count("precond.ema.fires" if state.last_fired
                else "precond.ema.skips")
        e = state.floor_e
        t.count("precond.clip.floor_entries",
                int(np.count_nonzero(state.clipped_x <= e)
                    + np.count_nonzero(state.clipped_y <= e)))
        t.count("precond.clip.entries",
                state.clipped_x.shape[0] + state.clipped_y.shape[0])

    def observe_check(t, args, result):
        t.count(f"verify.{result.name}.s", result.seconds)

    field_obs = kernel_observer("problems.field_into", field_cost)
    hvp_obs = kernel_observer("problems.hvp_into", hvp_cost)
    # optim imports these by name; precond reaches hvp_into via the module
    for attr, name, obs in (
            ("gradient", "problems.gradient", None),
            ("field_into", "problems.field_into", field_obs),
            ("advance", "precond.advance", observe_advance),
            ("curvature_for", "precond.curvature_for", None),
            ("weighted_dist_sq", "metrics.weighted_dist_sq", None),
            ("step_extragrad", "optim.step_extragrad", None),
            ("step_single_call", "optim.step_single_call", None),
            ("step_sgda", "optim.step_sgda", None)):
        tracer.wrap(optim, attr, name, obs)
    tracer.wrap(problems, "field_into", "problems.field_into", field_obs)
    tracer.wrap(problems, "noise_into", "problems.noise_into")
    tracer.wrap(problems, "hvp_into", "problems.hvp_into", hvp_obs)
    tracer.wrap(verify, "contraction_check", "metrics.contraction_check")
    tracer.wrap(verify, "run_check", "verify.run_check", observe_check)
    with_bench = (bench,) if bench is not None else ()
    for mod in (ss, verify) + with_bench:
        tracer.wrap(mod, "run", "optim.run")
        # outside the span, so counting the returned arrays costs it nothing
        observe_runs(mod, tracer, ss.errors, detail=True)
    for mod in (ss, verify) + with_bench:
        for attr in ("make_quadratic", "make_bilinear", "make_minty"):
            tracer.wrap(mod, attr, "problems.make")
    for mod in (verify,) + with_bench:
        tracer.wrap(mod, "gap_restricted", "metrics.gap_restricted")
    if bench is not None:
        tracer.wrap(bench, "resolve_config", "bench.resolve_config")
        tracer.wrap(bench, "run_cell", "bench.run_cell")
        tracer.wrap(bench, "_write_rows", "bench.write_rows")


# ---------------------------------------------------------------------------
# workloads


def summarize(traj, cfg, label, error):
    recs = traj.records
    return {
        "label": label,
        "method": cfg.method,
        "source": cfg.scaling.source,
        "T": cfg.T,
        "error": error,
        "records": len(recs),
        "grad_calls": traj.grad_calls,
        "hvp_calls": traj.hvp_calls,
        "floor_e": cfg.scaling.floor_e,
        "dhat_min": min((r.dhat_min for r in recs), default=None),
        "dhat_max": max((r.dhat_max for r in recs), default=None),
        "first_dist2": recs[0].dist2 if recs else None,
        "first_grad_norm2": recs[0].grad_norm2 if recs else None,
    }


def solve_scaling(ss, preset, d_x, d_y):
    """The preset's scaling; rmsprop clips at ``W.RMSPROP_FLOOR``."""
    s = ss.scaling_preset(preset, d_x, d_y)
    if preset != "rmsprop":
        return s
    return ss.ScalingState.create(
        rule=s.rule, source=s.source, schedule=s.schedule, beta=s.beta,
        floor_e=W.RMSPROP_FLOOR, update_prob=s.update_prob, d_x=d_x, d_y=d_y)


def round_solve(args, out, tracer):
    spec = W.SOLVE[args.workload]
    inp = W.solve_inputs(args.workload, args.seed)
    ss = load_program()
    if tracer is not None:
        install_tracing(tracer, ss)
    dx, dy, batch, T = spec["d_x"], spec["d_y"], spec["batch"], spec["T"]
    problem = ss.make_quadratic(dx, dy, spec["mu"], spec["L"],
                                seed=inp["problem_seed"], sigma=spec["sigma"])
    z0_vec = np.array(inp["z0"])
    z0 = ss.PointPair(z0_vec[:dx], z0_vec[dx:])
    configs = [
        ss.OptimizerConfig(method=method, T=T, seed=seed, gamma=gamma,
                           eta=eta, batch=batch, z0=z0,
                           scaling=solve_scaling(ss, preset, dx, dy))
        for (_, method, preset, gamma, eta), seed
        in zip(spec["runs"], inp["run_seeds"])]
    setup_done = time.monotonic()

    op_walls = []
    runs, finals = [], []
    for (label, *_), cfg in zip(spec["runs"], configs):
        t0 = time.perf_counter()
        try:
            traj, error = ss.run(problem, cfg), None
        except ss.DivergenceError as exc:
            traj, error = exc.trajectory, str(exc)
        op_walls.append(time.perf_counter() - t0)
        runs.append(summarize(traj, cfg, label, error))
        finals.append(traj.final_z.as_vector())
        del traj
    peak = peak_rss_kib()
    if tracer is not None:
        tracer.restore()

    # untimed program runs that the orchestrator compares with the reference
    clean = dataclasses.replace(problem, sigma=0.0, noise_bound=0.0)
    identity = ss.scaling_preset("identity", dx, dy)
    ref_runs = {}
    for method in ("extragrad", "sgda"):
        traj = ss.run(clean, ss.OptimizerConfig(
            method=method, T=spec["identity_T"], seed=inp["check_seed"],
            scaling=identity, gamma=W.IDENTITY_GAMMA, z0=z0))
        ref_runs[method] = traj
    oasis = ss.scaling_preset("oasis", dx, dy, update_prob=W.SKIP_PROB)
    skip = ss.run(problem, ss.OptimizerConfig(
        method="sgda", T=spec["skip_T"], seed=inp["check_seed"],
        scaling=oasis, gamma=oasis.floor_e / (4.0 * spec["L"]), batch=batch,
        z0=z0, trace_scaling=True))
    xy = ss.run(ss.SaddleProblem.bilinear_from_matrix(np.array([[1.0]])),
                ss.OptimizerConfig(
                    method="sgda", T=W.XY_T, seed=inp["check_seed"],
                    scaling=ss.scaling_preset("identity", 1, 1),
                    gamma=W.XY_GAMMA, z0=ss.PointPair([W.XY_Z0[0]],
                                                      [W.XY_Z0[1]])))
    np.savez(out / "arrays.npz",
             A=problem.A, B=problem.B, C=problem.C, a=problem.a, c=problem.c,
             z0=z0_vec, finals=np.array(finals),
             eg_half=ref_runs["extragrad"].half_z,
             eg_final=ref_runs["extragrad"].final_z.as_vector(),
             sgda_half=ref_runs["sgda"].half_z,
             sgda_final=ref_runs["sgda"].final_z.as_vector(),
             xy_final=xy.final_z.as_vector())
    return {
        "setup_done": setup_done,
        "wall_s": sum(op_walls),
        "op_walls": op_walls,
        "iters": sum(r["records"] for r in runs),
        "peak_rss_kib": peak,
        "runs": runs,
        "skip_run": {
            "hvp_calls": skip.hvp_calls,
            "fired": sum(e.fired for e in skip.scaling_trace),
        },
    }


def round_cli(args, out, tracer):
    ss = load_program()
    from saddle_scale import bench, verify
    counts = tracer if tracer is not None else Tracer()
    if tracer is not None:
        install_tracing(tracer, ss, bench=bench)
    elif args.workload == "verify-desk":
        observe_runs(verify, counts, ss.errors, detail=False)
    if args.workload == "suite-grid":
        argv = ["run", str(Path(args.tmp) / "suite.json")]
    else:
        argv = W.verify_argv(args.seed)
    setup_done = time.monotonic()
    error = None
    with open(out / "stdout.txt", "w", encoding="utf-8") as fh, \
            contextlib.redirect_stdout(fh):
        t0 = time.perf_counter()
        try:
            code = bench.main(argv)
        except Exception:  # the round reports a crashed CLI as failed
            code, error = None, traceback.format_exc()
        wall = time.perf_counter() - t0
    peak = peak_rss_kib()
    if tracer is not None:
        tracer.restore()
    return {
        "setup_done": setup_done,
        "wall_s": wall,
        "iters": counts.counters().get("optim.records", 0),
        "peak_rss_kib": peak,
        "exit_code": code,
        "error": error,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True, help="the run's scratch dir")
    ap.add_argument("--out", required=True, help="this round's output dir")
    args = ap.parse_args(argv)
    out = Path(args.out)
    tracer = Tracer() if args.trace else None
    if args.workload.startswith("solve-"):
        result = round_solve(args, out, tracer)
    else:
        result = round_cli(args, out, tracer)
    result["blas_threads"] = blas_threads()
    if tracer is not None:
        result["counters"] = tracer.counters()
        result["spans"] = tracer.span_count()
        tracer.save(out / "spans.npz")
    with open(out / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
