"""Benchmark harness and command-line interface.

A suite is one JSON config: a list of problem generator specs crossed with a
list of optimizer specs, each cell repeated ``repeats`` times.  Every cell
gets its own derived seed and its own CSV of per-iteration records; a summary
JSON collects resolved settings, per-cell outcomes, and a digest of the
resolved config so outputs are traceable to the exact configuration that
produced them.

Subcommands: ``run`` (execute a suite), ``plotdata`` (extract a metric column
as (t, value) lines), ``verify`` (the desk-scale check table), and
``print-schema``.  Exit codes: 0 success, 1 a run or check failed, 2 the
input was malformed.
"""

import argparse
import hashlib
import json
import math
import operator
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from .errors import (
    CapabilityError,
    ConfigError,
    DivergenceError,
    PreconditionError,
)
from .metrics import gap_restricted
from .optim import (
    METHODS,
    OptimizerConfig,
    resolve_gamma,
    run,
    theory_gate_failure,
)
from .precond import (
    CLIP_VARIANTS,
    PRESET_NAMES,
    RULES,
    SCHEDULES,
    SOURCES,
    ScalingState,
    scaling_preset,
)
from .problems import KINDS, make_bilinear, make_minty, make_quadratic
from .verify import CHECK_ORDER, run_all

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2

CSV_HEADER = "t,r2_weighted,dist2,grad_norm2,gap,dhat_min,dhat_max,grad_calls"
DEFAULT_MASTER_SEED = 42

TRANSFORMS = ("none", "log10", "log")
# the point whose gap the summary reports; see the optimizer table's doc
AVERAGING = ("none", "uniform", "ema")


# ---------------------------------------------------------------------------
# config spec: one field table per JSON object drives both resolve_config and
# print-schema; every error carries the JSON path of the offending field


_REQUIRED = object()

_JSON_TYPES = {
    "integer": (int, "must be an integer"),
    "number": ((int, float), "must be a number"),
    "string": (str, "must be a string"),
    "boolean": (bool, "must be true or false"),
}

# bound symbol -> (test, JSON Schema keyword)
_BOUNDS = {
    ">=": (operator.ge, "minimum"),
    ">": (operator.gt, "exclusiveMinimum"),
    "<=": (operator.le, "maximum"),
    "<": (operator.lt, "exclusiveMaximum"),
}


def _sub(path, key):
    return key if path == "<root>" else f"{path}.{key}"


@dataclass(frozen=True)
class Field:
    """One config key: its JSON type, its default (or required), and its
    bounds or enum.

    A callable ``default`` receives the keys resolved before this one.
    ``type`` "object" resolves the value with ``spec``; "array" takes a
    non-empty list and resolves each item with ``spec``.
    """

    type: str
    default: object = _REQUIRED
    nullable: bool = False
    enum: tuple | None = None
    bounds: tuple = ()
    min_length: int | None = None
    spec: object = None
    doc: str | None = None

    def resolve(self, obj, key, path, resolved):
        path = _sub(path, key)
        if key in obj:
            v = obj[key]
        elif self.default is _REQUIRED:
            raise ConfigError(path, "required key is missing")
        elif callable(self.default):
            v = self.default(resolved)
        else:
            v = self.default
        if v is None and self.nullable:
            return None
        if self.type == "array":
            if not isinstance(v, list) or not v:
                raise ConfigError(path, "must be a non-empty list")
            return [self.spec.resolve(item, f"{path}[{i}]")
                    for i, item in enumerate(v)]
        if self.type == "object":
            return self.spec.resolve(v, path)
        py_type, message = _JSON_TYPES[self.type]
        if not isinstance(v, py_type) or (isinstance(v, bool)
                                          and self.type != "boolean"):
            raise ConfigError(path, message)
        if self.type == "number":
            try:
                v = float(v)
            except OverflowError:  # an integer literal past the float range
                v = math.inf
            if not math.isfinite(v):
                raise ConfigError(path, "must be a finite number")
        if self.enum is not None and v not in self.enum:
            raise ConfigError(path, f"must be one of {', '.join(self.enum)}")
        if self.min_length is not None and len(v) < self.min_length:
            raise ConfigError(path, "must be non-empty")
        if not all(_BOUNDS[sym][0](v, b) for sym, b in self.bounds):
            raise ConfigError(path, "must be " + " and ".join(
                f"{sym} {b:g}" for sym, b in self.bounds))
        return v

    def schema(self):
        if self.type == "array":
            out = {"type": "array", "minItems": 1, "items": self.spec.schema()}
        elif self.type == "object":
            out = self.spec.schema()
        elif self.enum is not None:
            out = {"enum": list(self.enum)}
        else:
            out = {"type": [self.type, "null"] if self.nullable else self.type}
        for sym, b in self.bounds:
            out[_BOUNDS[sym][1]] = b
        if self.min_length is not None:
            out["minLength"] = self.min_length
        if self.default is not _REQUIRED and not callable(self.default):
            out["default"] = self.default
        if self.doc is not None:
            out["description"] = self.doc
        return out


@dataclass(frozen=True)
class Table:
    """The fields of one JSON object in resolved-key order, plus the rule
    that spans them, ``check(resolved, path)``."""

    fields: dict
    check: object = None

    def resolve(self, obj, path):
        if not isinstance(obj, dict):
            raise ConfigError(path, "must be an object")
        for key in obj:
            if key not in self.fields:
                raise ConfigError(_sub(path, key), "unknown key")
        out = {}
        for key, f in self.fields.items():
            out[key] = f.resolve(obj, key, path, out)
        if self.check is not None:
            self.check(out, path)
        return out

    def schema(self):
        return {"type": "object",
                "required": [k for k, f in self.fields.items()
                             if f.default is _REQUIRED],
                "additionalProperties": False,
                "properties": {k: f.schema() for k, f in self.fields.items()}}


@dataclass(frozen=True)
class OneOf:
    """A JSON object whose table is ``tables[pick(obj, path)]``."""

    pick: object
    tables: dict

    def resolve(self, obj, path):
        if not isinstance(obj, dict):
            raise ConfigError(path, "must be an object")
        return self.tables[self.pick(obj, path)].resolve(obj, path)

    def schema(self):
        return {"oneOf": [t.schema() for t in self.tables.values()]}


def _l_at_least_mu(out, path):
    if out["L"] < out["mu"]:
        raise ConfigError(_sub(path, "L"), "must be >= mu")


def _every_k_excludes_prob(out, path):
    if out["update_every_k"] is not None and out["update_prob"] < 1.0:
        raise ConfigError(_sub(path, "update_every_k"),
                          "mutually exclusive with update_prob < 1")


_KIND = Field("string", enum=KINDS)
_DIM = Field("integer", bounds=((">=", 1),))
_POSITIVE = Field("number", bounds=((">", 0),))


def _problem(kind, own, check=None):
    """Table of one problem kind: the shared keys, then the kind's own."""
    return Table({
        "kind": Field("string", enum=(kind,)),
        "seed": Field("integer", 0, bounds=((">=", 0),)),
        "sigma": Field("number", 0.0, bounds=((">=", 0),)),
        "noise_bound": Field("number", None, nullable=True,
                             bounds=((">", 0),), doc="null means 10*sigma"),
        **own}, check)


_PROBLEM = OneOf(lambda obj, path: _KIND.resolve(obj, "kind", path, {}), {
    "quadratic": _problem("quadratic", {
        "d_x": _DIM, "d_y": _DIM, "mu": _POSITIVE,
        "L": Field("number", bounds=((">", 0),), doc="must be >= mu")},
        _l_at_least_mu),
    "bilinear": _problem("bilinear", {"d": _DIM, "L": _POSITIVE}),
    "minty-example": _problem("minty-example", {}),
})

_FIRING = {
    "update_prob": Field("number", 1.0, bounds=((">", 0), ("<=", 1))),
    "update_every_k": Field("integer", None, nullable=True,
                            bounds=((">=", 1),),
                            doc="fire every k-th call; needs update_prob 1"),
}

_SCALING = OneOf(lambda obj, path: "preset" if "preset" in obj else "full", {
    "preset": Table({"preset": Field("string", enum=PRESET_NAMES),
                     **_FIRING}, _every_k_excludes_prob),
    "full": Table({"rule": Field("string", enum=RULES),
                   "source": Field("string", enum=SOURCES),
                   "schedule": Field("string", enum=SCHEDULES),
                   "beta": Field("number", bounds=((">=", 0), ("<=", 1))),
                   "floor_e": _POSITIVE,
                   "clip_variant": Field("string", "max", enum=CLIP_VARIANTS),
                   **_FIRING}, _every_k_excludes_prob),
})

_OPTIMIZER = Table({
    "method": Field("string", enum=METHODS),
    "T": Field("integer", bounds=((">=", 0),)),
    "gamma": Field("number", nullable=True, bounds=((">", 0),),
                   doc="null picks the conservative default floor_e / (10 L)"),
    "scaling": Field("object", {"preset": "identity"}, spec=_SCALING),
    "eta": Field("number", 0.0, bounds=((">=", 0),)),
    "anchor_prob": Field("number", 0.25, bounds=((">", 0), ("<=", 1))),
    "batch": Field("integer", 1, bounds=((">=", 1),)),
    "averaging": Field("string", "uniform", enum=AVERAGING,
                       doc="point whose final_gap the summary reports: "
                           "none the last iterate z_T, uniform the mean of "
                           "the half-step iterates, ema their exponential "
                           "average with weight ema_lambda"),
    "ema_lambda": Field("number", 0.999, bounds=((">=", 0), ("<", 1))),
    "theory_safe": Field("boolean", False),
    "expect_divergence": Field("boolean", False),
    "label": Field("string", lambda out: out["method"],
                   doc="defaults to the method name"),
})

CONFIG = Table({
    "name": Field("string", min_length=1),
    "master_seed": Field("integer", DEFAULT_MASTER_SEED, bounds=((">=", 0),)),
    "output_dir": Field("string", "runs"),
    "repeats": Field("integer", 1, bounds=((">=", 1),)),
    "problems": Field("array", spec=_PROBLEM),
    "optimizers": Field("array", spec=_OPTIMIZER),
})


def resolve_config(doc):
    """Validate a parsed JSON document and fill in every default."""
    return CONFIG.resolve(doc, "<root>")


def build_problem(resolved):
    kw = {"sigma": resolved["sigma"], "noise_bound": resolved["noise_bound"],
          "seed": resolved["seed"]}
    if resolved["kind"] == "quadratic":
        return make_quadratic(resolved["d_x"], resolved["d_y"],
                              resolved["mu"], resolved["L"], **kw)
    if resolved["kind"] == "bilinear":
        return make_bilinear(resolved["d"], resolved["L"], **kw)
    return make_minty(**kw)


def build_scaling(resolved, d_x, d_y):
    if "preset" in resolved:
        return scaling_preset(resolved["preset"], d_x, d_y,
                              update_prob=resolved["update_prob"],
                              update_every_k=resolved["update_every_k"])
    return ScalingState.create(d_x=d_x, d_y=d_y, **resolved)


def build_optimizer(resolved, seed, problem):
    return OptimizerConfig(
        method=resolved["method"], T=resolved["T"], seed=seed,
        scaling=build_scaling(resolved["scaling"], problem.d_x, problem.d_y),
        gamma=resolved["gamma"], eta=resolved["eta"],
        anchor_prob=resolved["anchor_prob"], batch=resolved["batch"],
        ema_lambda=resolved["ema_lambda"],
        theory_safe=resolved["theory_safe"])


def _check_theory_gates(resolved, problems):
    """Raise ConfigError for the first theory-safe optimizer whose step
    size or momentum breaks its gate on one of the built problems; the gate
    depends on each problem's L and kind, so the field tables cannot."""
    for j, ospec in enumerate(resolved["optimizers"]):
        if not ospec["theory_safe"]:
            continue
        for problem in problems:
            cfg = build_optimizer(ospec, 0, problem)
            failure = theory_gate_failure(problem, cfg,
                                          resolve_gamma(problem, cfg))
            if failure is not None:
                raise ConfigError(f"optimizers[{j}].{failure[0]}", failure[1])


def suite_digest(resolved):
    """Hex digest of the canonical resolved config.

    ``output_dir`` is excluded: where results are stored is not part of the
    experiment's identity.
    """
    doc = {k: v for k, v in resolved.items() if k != "output_dir"}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def cell_seed(master_seed, cell_index):
    """Derived seed for one (problem, optimizer, repeat) cell: distinct per
    cell, stable across runs and across execution order."""
    words = np.random.SeedSequence([master_seed, cell_index]).generate_state(2)
    return (int(words[0]) << 32) | int(words[1])


# ---------------------------------------------------------------------------
# suite execution


def _fmt(v):
    return format(v, ".17g")


def _write_rows(fh, chunk):
    """Append one CSV line per record of the ``Records`` chunk; a run's
    records carry no gap, so that column stays empty."""
    fh.write("".join(
        f"{int(t)},{_fmt(r2)},{_fmt(d2)},{_fmt(g2)},,{_fmt(lo)},{_fmt(hi)},"
        f"{int(calls)}\n"
        for t, r2, d2, g2, lo, hi, calls in chunk.block.tolist()))


def _final_gap(problem, traj, averaging):
    """Restricted gap of the configured output point (the last iterate for
    "none", else the uniform or EMA average), on a ball big enough for both
    the solution and everything the run visited; None when the problem has
    no gap notion or the run never moved."""
    if not len(traj.records):
        return None
    z_out = {"none": traj.final_z, "uniform": traj.final_avg_uniform,
             "ema": traj.final_avg_ema}[averaging]
    zs = problem.z_star
    omega = (max(float(np.linalg.norm(zs.x)), float(np.linalg.norm(zs.y)))
             + 2.0 * float(np.sqrt(traj.records.dist2.max())) + 1.0)
    try:
        return gap_restricted(problem, z_out, omega)
    except (CapabilityError, PreconditionError):
        return None


def run_cell(resolved, digest, out_dir, cell, problem):
    """Execute one cell on its built problem and write its CSV; returns the
    summary entry."""
    i, j, rep, index = cell
    ospec = resolved["optimizers"][j]
    seed = cell_seed(resolved["master_seed"], index)
    cfg = build_optimizer(ospec, seed, problem)
    csv_name = f"cell_{i}_{j}_{rep}.csv"
    path = out_dir / csv_name
    diverged = False
    note = None
    t0 = perf_counter()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        try:
            traj = run(problem, cfg, on_records=lambda c: _write_rows(fh, c))
        except DivergenceError as exc:
            diverged = True
            note = str(exc)
            traj = exc.trajectory
        fh.write(f"# suite_digest={digest}\n")
    runtime = perf_counter() - t0
    final = traj.final_z.as_vector() - problem.z_star.as_vector()
    entry = {
        "problem_index": i,
        "optimizer_index": j,
        "repeat": rep,
        "cell_index": index,
        "label": ospec["label"],
        "seed": seed,
        "csv": csv_name,
        "diverged": diverged,
        "expect_divergence": ospec["expect_divergence"],
        "passed": diverged == ospec["expect_divergence"],
        "grad_calls": traj.grad_calls,
        "hvp_calls": traj.hvp_calls,
        "final_dist2": float(final @ final),
        "final_gap": (None if diverged
                      else _final_gap(problem, traj, ospec["averaging"])),
        "runtime_s": runtime,
    }
    if note is not None:
        entry["divergence"] = note
    return entry


def run_suite(resolved):
    """Execute every cell of a resolved config, one after another in cell
    order; returns (summary, exit_code).

    Cell outputs depend only on the resolved config and each cell's derived
    seed, never on the order in which cells run.
    """
    digest = suite_digest(resolved)
    print(f"suite {resolved['name']}: master seed {resolved['master_seed']}, "
          f"digest {digest}")
    # problems are immutable and each oracle call rekeys its noise, so each
    # problem is built once and shared by all of its cells
    problems = [build_problem(p) for p in resolved["problems"]]
    _check_theory_gates(resolved, problems)
    out_dir = Path(resolved["output_dir"]) / resolved["name"]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("output_dir", f"cannot create {out_dir}: "
                                        f"{exc.strerror or exc}") from exc
    n_opt = len(resolved["optimizers"])
    reps = resolved["repeats"]
    cells = [(i, j, r, (i * n_opt + j) * reps + r)
             for i in range(len(resolved["problems"]))
             for j in range(n_opt)
             for r in range(reps)]
    entries = [run_cell(resolved, digest, out_dir, c, problems[c[0]])
               for c in cells]
    all_passed = all(e["passed"] for e in entries)
    summary = {
        "name": resolved["name"],
        "master_seed": resolved["master_seed"],
        "suite_digest": digest,
        "resolved_config": resolved,
        "workers": 1,  # cells run serially; perfbench's checks read this
        "cells": entries,
        "all_passed": all_passed,
    }
    summary_path = out_dir / "summary.json"
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    for e in entries:
        status = "ok" if e["passed"] else "FAIL"
        extra = " (diverged)" if e["diverged"] else ""
        print(f"  cell {e['cell_index']} [{e['label']}] {status}{extra} "
              f"-> {e['csv']}")
    print(f"summary: {summary_path}")
    return summary, (EXIT_OK if all_passed else EXIT_FAILED)


# ---------------------------------------------------------------------------
# plotdata


def cmd_plotdata(path, metric, transform="none", stride=1):
    if stride < 1:
        print("stride must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if transform not in TRANSFORMS:
        print(f"unknown transform {transform!r}; available: "
              f"{', '.join(TRANSFORMS)}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(n, ln.rstrip("\n")) for n, ln in enumerate(fh, 1)
                     if ln.strip() and not ln.startswith("#")]
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not lines:
        print(f"{path} has no header row", file=sys.stderr)
        return EXIT_USAGE
    columns = lines[0][1].split(",")
    if metric not in columns:
        print(f"unknown metric {metric!r}; columns: {', '.join(columns)}",
              file=sys.stderr)
        return EXIT_USAGE
    if "t" not in columns:
        print(f"{path} header has no t column", file=sys.stderr)
        return EXIT_USAGE
    t_idx = columns.index("t")
    m_idx = columns.index(metric)
    emitted = 0
    skipped = 0
    for k, (lineno, line) in enumerate(lines[1:]):
        if k % stride:
            continue
        parts = line.split(",")
        if len(parts) != len(columns):
            print(f"{path} line {lineno}: {len(parts)} fields, header has "
                  f"{len(columns)}", file=sys.stderr)
            return EXIT_USAGE
        raw = parts[m_idx]
        if raw == "":
            skipped += 1
            continue
        try:
            v = float(raw)
        except ValueError:
            print(f"{path} line {lineno}: {metric} value {raw!r} is not a "
                  f"number", file=sys.stderr)
            return EXIT_USAGE
        if transform != "none":
            if v <= 0.0:
                skipped += 1
                continue
            v = np.log10(v) if transform == "log10" else np.log(v)
        print(f"{parts[t_idx]} {_fmt(v)}")
        emitted += 1
    if skipped:
        print(f"skipped {skipped} rows (empty or non-positive under "
              f"{transform})", file=sys.stderr)
    if emitted == 0:
        print(f"no plottable values for metric {metric!r}",
              file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


# ---------------------------------------------------------------------------
# CLI


def cmd_run(config_path):
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"cannot read {config_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"malformed JSON in {config_path}: line {exc.lineno} "
              f"column {exc.colno}: {exc.msg}", file=sys.stderr)
        return EXIT_USAGE
    try:
        resolved = resolve_config(doc)
        _, code = run_suite(resolved)
    except ConfigError as exc:
        print(f"config error at {exc.field}: {exc.message}", file=sys.stderr)
        return EXIT_USAGE
    return code


def cmd_verify(only, seed):
    if seed < 0:
        print(f"seed must be a non-negative integer, got {seed}",
              file=sys.stderr)
        return EXIT_USAGE
    names = None
    if only is not None:
        names = []
        for item in only:
            names.extend(n for n in item.split(",") if n)
        if not names:
            print(f"--only names no check; available: "
                  f"{', '.join(CHECK_ORDER)}", file=sys.stderr)
            return EXIT_USAGE
        unknown = [n for n in names if n not in CHECK_ORDER]
        if unknown:
            print(f"unknown check(s) {', '.join(unknown)}; available: "
                  f"{', '.join(CHECK_ORDER)}", file=sys.stderr)
            return EXIT_USAGE
    print(f"desk-scale checks (seed {seed})")
    results = run_all(only=names, seed=seed)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.claim}")
        timing = f"; {r.timing}" if r.timing else ""
        print(f"{'':<{width}}        measured {r.measured}; bound "
              f"{r.bound}; {r.seconds:.2f}s{timing}")
    failures = [r.name for r in results if not r.passed]
    print(json.dumps({"checks": len(results), "failures": failures}))
    return EXIT_OK if not failures else EXIT_FAILED


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "--print-schema":
        argv = ["print-schema"] + argv[1:]
    parser = argparse.ArgumentParser(
        prog="saddle-scale",
        description="scaled extragradient benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a suite config")
    p_run.add_argument("config", help="path to the suite JSON")

    p_plot = sub.add_parser("plotdata",
                            help="extract (t, value) lines from a run CSV")
    p_plot.add_argument("csv", help="per-cell CSV produced by run")
    p_plot.add_argument("metric", help="column name, e.g. dist2")
    p_plot.add_argument("--transform", default="none", choices=TRANSFORMS)
    p_plot.add_argument("--stride", type=int, default=1,
                        help="emit every N-th row")

    p_verify = sub.add_parser("verify", help="run the desk-scale check table")
    p_verify.add_argument("--only", action="append", default=None,
                          help="comma-separated check names (repeatable)")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)

    sub.add_parser("print-schema", help="emit the authoritative config schema")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "plotdata":
        return cmd_plotdata(args.csv, args.metric, transform=args.transform,
                            stride=args.stride)
    if args.command == "verify":
        return cmd_verify(args.only, args.seed)
    print(json.dumps(CONFIG.schema(), indent=2))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
