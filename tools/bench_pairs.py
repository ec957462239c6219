#!/usr/bin/env python3
"""Alternate the benchmark over two commits and record the pairs.

Usage (from the root of a checkout):

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_<n>.json

It makes a clean copy of each commit with ``git archive`` (untracked and
ignored files never reach a copy) in a temporary directory, then runs
``python3 perfbench/run.py`` in the two copies in turn for 10 pairs: the
parent first in odd pairs, the change first in even ones, so that a drift
of the host's speed falls on both sides alike.  Each pair keeps the last
JSON line each run prints.  It then adds one ``--trace 1`` run per side.
It writes one JSON record with the keys ``description``,
``parent_commit``, ``change_commit``, ``machine_info``, ``pairs``,
``summary``, ``trace`` and ``note``.

``summary`` holds, per end-to-end metric:

* ``median_ratio_change_over_parent``: the median of the per-pair ratios;
* ``change_wins``: the pairs in which the change was strictly better, in
  the metric's direction (lower, except for ``iters_per_s``);
* each side's inclusive quartiles ``q1``, ``median`` and ``q3``;
* ``median_gap_exceeds_parent_iqr``: whether the two medians lie further
  apart than the parent's q3 - q1.

The rule for a claimed gain: the change wins at least 9 of the 10 pairs
and the gap flag is true.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

HIGHER_IS_BETTER = ("iters_per_s",)


def higher_is_better(metric):
    return metric.rpartition(".")[2] in HIGHER_IS_BETTER


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs):
    """Per-metric summary of alternating pairs, each a dict with the
    ``parent`` and ``change`` JSON lines of ``perfbench/run.py``."""
    summary = {}
    for metric in pairs[0]["parent"]["metrics"]:
        parent = [p["parent"]["metrics"][metric]["value"] for p in pairs]
        change = [p["change"]["metrics"][metric]["value"] for p in pairs]
        if higher_is_better(metric):
            wins = sum(c > p for p, c in zip(parent, change))
        else:
            wins = sum(c < p for p, c in zip(parent, change))
        qp, qc = quartiles(parent), quartiles(change)
        summary[metric] = {
            "median_ratio_change_over_parent": statistics.median(
                c / p for p, c in zip(parent, change)),
            "change_wins": f"{wins}/{len(pairs)}",
            "parent": qp,
            "change": qc,
            "median_gap_exceeds_parent_iqr": (
                abs(qc["median"] - qp["median"]) > qp["q3"] - qp["q1"]),
        }
    return summary


def last_json_line(text):
    for line in reversed(text.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise RuntimeError("perfbench/run.py printed no JSON line")


def checkout(commit, dest):
    """A clean copy of ``commit``'s tree in ``dest``."""
    dest.mkdir(parents=True)
    archive = dest.parent / f"{dest.name}.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", commit], stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def resolve(commit):
    return subprocess.run(["git", "rev-parse", commit], capture_output=True,
                          text=True, check=True).stdout.strip()


PAIRS = 10
COMMAND = "python3 perfbench/run.py"


def bench(copy, *args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=copy, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench/run.py failed in {copy}:\n"
                           f"{proc.stderr[-2000:]}")
    return last_json_line(proc.stdout)


def machine_info(copy):
    proc = subprocess.run([sys.executable, "perfbench/run.py",
                           "--machine-info"], cwd=copy, capture_output=True,
                          text=True, check=True)
    return proc.stdout.splitlines()


def record(parent, change):
    parent_sha, change_sha = resolve(parent), resolve(change)
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        copies = {"parent": scratch / "parent", "change": scratch / "change"}
        checkout(parent_sha, copies["parent"])
        checkout(change_sha, copies["change"])
        pairs = []
        for k in range(1, PAIRS + 1):
            order = ("parent", "change") if k % 2 else ("change", "parent")
            entry = {"pair": k, "first": order[0]}
            for side in order:
                entry[side] = bench(copies[side])
                print(f"pair {k} {side}: failed={entry[side]['failed']}",
                      file=sys.stderr)
            pairs.append(entry)
        traced = {side: {"json": bench(copies[side], "--trace", "1")}
                  for side in ("parent", "change")}
        info = machine_info(copies["change"])
    finally:
        shutil.rmtree(scratch)
    description = (
        f"saddle-scale benchmark record: {COMMAND} on the parent and the "
        f"change, each from a clean checkout (git archive) of its commit, in "
        f"{PAIRS} alternating pairs (parent first in odd pairs, change first "
        f"in even ones); plus one {COMMAND} --trace 1 run per side. Each "
        f"pair entry holds the final JSON line of standard output; summary "
        f"holds each metric's median per-pair change/parent ratio, the pairs "
        f"the change won, and each side's quartiles.")
    return {
        "description": description,
        "parent_commit": parent_sha,
        "change_commit": change_sha,
        "machine_info": info,
        "pairs": pairs,
        "summary": summarize(pairs),
        "trace": traced,
        "note": "",
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="the parent commit")
    ap.add_argument("change", help="the changed commit")
    ap.add_argument("--out", required=True,
                    help="the BENCH_<n>.json to write")
    args = ap.parse_args(argv)
    rec = record(args.parent, args.change)
    Path(args.out).write_text(json.dumps(rec, indent=1) + "\n")
    for metric, s in rec["summary"].items():
        print(f"{metric:<28} ratio {s['median_ratio_change_over_parent']:.3f}"
              f"  wins {s['change_wins']:>5}"
              f"  gap>IQR {s['median_gap_exceeds_parent_iqr']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
