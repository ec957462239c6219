#!/usr/bin/env python3
"""saddle-scale benchmark: end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload solve-small --seed 1 --seconds 20
    python3 perfbench/run.py --workload suite-grid --seed 1 --trace 1
    python3 perfbench/run.py                       # all four workloads
    python3 perfbench/run.py --machine-info        # machine and kernel figures

A run repeats whole rounds of its workload until ``--seconds`` have passed
(at least two rounds).  Each round is a fresh interpreter
(``perfbench/runner.py``), so set-up time and peak memory are the round's
own and no module-level cache of the program carries over.  This process
checks every round's outputs against an independent numpy reference or
against properties the methods must have.  It reports the mean round
time, the rate over all rounds, and median set-up time and memory.  With
``--trace 1`` every other round is traced and the per-layer metrics are
printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  All outputs of the
program go to a scratch directory under ``.perfbench_tmp/`` in the
checkout, which is removed when the run ends.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import workloads as W  # noqa: E402
from tracer import reduce_spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP = ROOT / ".perfbench_tmp"

MIN_ROUNDS = 2
RUN_LIMIT_S = 170.0   # a whole run, rounds and checks, ends within this

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("iters_per_s", "it/s"),
    ("peak_rss_mb", "MB"),
]


def program_present():
    return (ROOT / "src" / "saddle_scale" / "__init__.py").is_file()


def round_env():
    env = dict(os.environ)
    env.pop("SADDLE_SCALE_THREADS", None)   # suite-grid uses the default
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_round(workload, seed, traced, tmp, k, deadline):
    out = tmp / f"round-{k}"
    out.mkdir()
    cmd = [sys.executable, "-B", str(HERE / "runner.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced)), "--tmp", str(tmp), "--out", str(out)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=round_env(),
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        raise RuntimeError(f"round {k} of {workload} exited with "
                           f"{proc.returncode}:\n{proc.stderr}")
    with open(out / "result.json", encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["setup_done"] - spawned
    result["traced"] = traced
    result["dir"] = out
    return result


def check_round(workload, seed, tmp, config, result):
    out = result["dir"]
    if workload.startswith("solve-"):
        with np.load(out / "arrays.npz") as arrays:
            return checks.check_solve(workload, seed, result, dict(arrays))
    if workload == "suite-grid":
        return checks.check_suite(config, tmp / "suite-out" / "grid", result)
    text = (out / "stdout.txt").read_text(encoding="utf-8")
    return checks.check_verify(result, text)


def run_workload(workload, seed, seconds, trace):
    """Run rounds for ``seconds`` and return (report, lines to print)."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    tmp = TMP / f"{workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        config = None
        if workload == "suite-grid":
            config = W.suite_config(seed, str(tmp / "suite-out"))
            with open(tmp / "suite.json", "w", encoding="utf-8") as fh:
                json.dump(config, fh)
        rounds, problems = [], []
        attempted = failed = 0
        first_hashes = None
        k = 0
        while k < MIN_ROUNDS or time.monotonic() - start < seconds:
            traced = bool(trace) and k % 2 == 1
            r = run_round(workload, seed, traced, tmp, k, deadline)
            n, f, iters, found, facts = check_round(workload, seed, tmp,
                                                    config, r)
            attempted += n
            failed += f
            problems += [f"round {k}: {p}" for p in found]
            r["iters"] = iters
            r.update(facts)
            if "hashes" in facts:
                if first_hashes is None:
                    first_hashes = facts["hashes"]
                elif facts["hashes"] != first_hashes:
                    problems.append(f"round {k}: CSVs differ from round 0 "
                                    f"for the same seed")
            if traced:
                r["reduced"] = reduce_spans(r["dir"] / "spans.npz")
            shutil.rmtree(r["dir"])
            rounds.append(r)
            k += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass   # another run still uses it
    return summarize(workload, rounds, attempted, failed, problems, trace)


def end_to_end(rounds):
    """Set-up and memory are medians over the rounds.  Time and rate are
    over all the rounds' timed work: on a shared host, a slow spell of a
    few seconds moves the median of a few rounds by a whole round, and
    moves their mean only in proportion to its length."""
    wall = sum(r["wall_s"] for r in rounds)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_s": wall / len(rounds),
        "iters_per_s": sum(r["iters"] for r in rounds) / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_kib"] / 1024.0
                                         for r in rounds),
    }


def per_layer(rounds):
    """Per-layer metrics: per-round figures of the traced rounds, averaged,
    and the tracing overhead against the untraced rounds."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    per_round = []
    for r in traced:
        extra = {"trace.spans": r["spans"],
                 "bench.csv.rows": r.get("csv_rows", 0),
                 "bench.csv.bytes": r.get("csv_bytes", 0),
                 "bench.pool.workers": r.get("workers", 0)}
        per_round.append(layers.round_metrics(r["reduced"], r["counters"],
                                              extra))
    metrics = {name: statistics.fmean(m[name] for m in per_round)
               for name, _, _ in layers.PER_LAYER}
    metrics["trace.overhead_s"] = (end_to_end(traced)["wall_s"]
                                   - end_to_end(plain)["wall_s"])
    return metrics


def summarize(workload, rounds, attempted, failed, problems, trace):
    lines = [f"== {workload}: {len(rounds)} rounds "
             f"({sum(r['traced'] for r in rounds)} traced), "
             f"{attempted} operations, {failed} failed"]
    blas = sorted({r["blas_threads"] for r in rounds}, key=str)
    workers = sorted({r.get("workers") for r in rounds} - {None})
    lines.append(f"threads: nproc {os.cpu_count()}, BLAS {blas}, "
                 f"suite pool {workers or '-'}")
    plain = [r for r in rounds if not r["traced"]]
    e2e = end_to_end(plain)
    lines.append("end-to-end (over untraced rounds: wall_s is their mean, "
                 "iters_per_s their total rate, the rest medians):")
    lines += [f"  {name:<14} {e2e[name]:>14.6f} {unit}"
              for name, unit in END_TO_END]
    if "op_walls" in plain[0]:
        lines.append("per run call (median over untraced rounds):")
        for i, run in enumerate(plain[0]["runs"]):
            us = statistics.median(r["op_walls"][i] for r in plain)
            lines.append(f"  {run['label']:<24} "
                         f"{us / run['T'] * 1e6:>10.1f} us/it")
    if trace:
        layer = per_layer(rounds)
        lines.append("per-layer table of the last traced round "
                     "(busy and self time in s):")
        lines.append(layers.format_layer_table(
            [r for r in rounds if r["traced"]][-1]["reduced"]))
        lines.append("per-layer metrics (per round, mean over traced "
                     "rounds; flops and bytes are computed):")
        lines += [f"  {name:<36} {layer[name]:>16.6f} {unit}"
                  for name, unit, _ in layers.PER_LAYER]
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _ in layers.PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    for p in problems:
        lines.append(f"CHECK FAILED: {p}")
    report = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return report, lines


def machine_info():
    """Machine, Python and BLAS facts, cache sizes and kernel figures."""
    print(f"nproc {os.cpu_count()}, {platform.machine()}, "
          f"Python {platform.python_version()}, numpy {np.__version__}")
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        print(f"BLAS {cfg.get('name')} {cfg.get('version')}")
    except (TypeError, KeyError):
        print("BLAS build unknown")
    from runner import blas_threads
    print(f"BLAS threads {blas_threads()} (OPENBLAS_NUM_THREADS="
          f"{os.environ.get('OPENBLAS_NUM_THREADS')})")
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        print(f"cache L{level} {kind}: {size}")
    print("computed kernel figures (quadratic, per call):")
    print(f"  {'kernel':<6} {'d':>5} {'flops':>10} {'bytes':>10} "
          f"{'flop/B':>7}")
    for label, d, flops, nbytes, ratio in layers.kernel_table():
        print(f"  {label:<6} {d:>5} {flops:>10} {nbytes:>10} {ratio:>7.4f}")


def _terminate(signum, frame):
    # unwinding lets subprocess.run kill the round and finally remove tmp
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(
        description="saddle-scale benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", default="all",
                    choices=W.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--machine-info", action="store_true")
    args = ap.parse_args(argv)
    if args.machine_info:
        machine_info()
        return 0
    if args.seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return 2
    if not program_present():
        print(f"error: no program source at {ROOT / 'src' / 'saddle_scale'}",
              file=sys.stderr)
        return 2
    names = W.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = {}
    for name in names:
        try:
            report, lines = run_workload(name, args.seed, args.seconds,
                                         args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        reports[name] = report
    if len(names) == 1:
        print(json.dumps(reports[names[0]]))
    else:
        for name, rep in reports.items():
            print(name, json.dumps(rep))
        print(json.dumps({
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {f"{w}.{k}": v for w, r in reports.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
