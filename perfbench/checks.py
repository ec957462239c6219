"""Correctness checks on a round's outputs, run in the orchestrator.

Each ``check_*`` returns ``(attempted, failed, iters, problems, facts)``:
operations attempted and failed in the round, optimizer iterations done,
a list of check failures on the operations that did not fail (empty when
the outputs are correct), and figures read from the outputs.
"""

import hashlib
import json
import math
import re

import numpy as np

import reference as R
import workloads as W

REL_FIRST = 1e-9      # first record against the reference z* and F(z0)
REL_IDENTITY = 1e-12  # noise-free identity runs against the reference loop
REL_XY = 1e-10        # descent-ascent growth law on f = xy


def _calls_formula(method, iters):
    if method == "extragrad":
        return 2 * iters
    if method == "single-call-momentum":
        return iters + 1
    return iters


def check_solve(workload, seed, result, arrays):
    spec = W.SOLVE[workload]
    inp = W.solve_inputs(workload, seed)
    coef = tuple(arrays[k] for k in ("A", "B", "C", "a", "c"))
    d = spec["d_x"] + spec["d_y"]
    z0 = np.array(inp["z0"])
    problems = []
    if not np.array_equal(arrays["z0"], z0):
        problems.append("the round ran from another z0 than the seed gives")
    z_star = R.saddle_point(*coef)
    d0 = float((z0 - z_star) @ (z0 - z_star))
    f0 = R.field(*coef, z0)
    g0 = float(f0 @ f0)
    hutch_cap = math.sqrt(d) * spec["L"]

    failed = 0
    for run, final in zip(result["runs"], arrays["finals"]):
        tag = run["label"]
        if run["error"] is not None:
            failed += 1
            continue
        T = run["T"]
        if run["records"] != T:
            problems.append(f"{tag}: {run['records']} records, want {T}")
        want = _calls_formula(run["method"], T)
        if run["grad_calls"] != want:
            problems.append(f"{tag}: grad_calls {run['grad_calls']}, "
                            f"want {want}")
        want_hvp = T if run["source"] == "hutchinson" else 0
        if run["hvp_calls"] != want_hvp:
            problems.append(f"{tag}: hvp_calls {run['hvp_calls']}, want "
                            f"{want_hvp} (update_prob 1 fires every step)")
        if not run["dhat_min"] >= run["floor_e"]:
            problems.append(f"{tag}: dhat_min {run['dhat_min']} below "
                            f"floor {run['floor_e']}")
        if run["source"] == "hutchinson" and not run["dhat_max"] <= hutch_cap:
            problems.append(f"{tag}: dhat_max {run['dhat_max']} above "
                            f"sqrt(d) L = {hutch_cap}")
        if abs(run["first_dist2"] - d0) > REL_FIRST * d0:
            problems.append(f"{tag}: records[0].dist2 {run['first_dist2']} "
                            f"!= reference {d0}")
        if abs(run["first_grad_norm2"] - g0) > REL_FIRST * g0:
            problems.append(f"{tag}: records[0].grad_norm2 "
                            f"{run['first_grad_norm2']} != reference {g0}")
        dT = float((final - z_star) @ (final - z_star))
        if not dT < d0:
            problems.append(f"{tag}: final dist2 {dT} not below initial {d0}")

    T_id = spec["identity_T"]
    for method, loop in (("eg", R.extragrad_identity),
                         ("sgda", R.sgda_identity)):
        halves, final = loop(coef, z0, W.IDENTITY_GAMMA, T_id)
        err = max(R.rel_err(arrays[f"{method}_half"], halves),
                  R.rel_err(arrays[f"{method}_final"], final))
        if not err <= REL_IDENTITY:
            problems.append(f"identity {method}: relative error {err:.3e} "
                            f"against the reference loop")
    skip = result["skip_run"]
    if skip["hvp_calls"] != skip["fired"]:
        problems.append(f"update_prob {W.SKIP_PROB}: hvp_calls "
                        f"{skip['hvp_calls']} != fired updates "
                        f"{skip['fired']}")
    xy = arrays["xy_final"]
    want = R.sgda_xy_norm2(W.XY_Z0, W.XY_GAMMA, W.XY_T)
    if not abs(float(xy @ xy) - want) <= REL_XY * want:
        problems.append(f"sgda on f=xy: ||z_T||^2 {float(xy @ xy)} != "
                        f"(1+gamma^2)^T ||z_0||^2 = {want}")
    return len(result["runs"]), failed, result["iters"], problems, {}


_DIVERGED_AT = re.compile(r"(passed \S+|non-finite) at iteration (\d+)")


def check_suite(config, summary_dir, result):
    """Check one ``saddle-scale run`` of the suite config."""
    problems = []
    n_cells = (len(config["problems"]) * len(config["optimizers"])
               * config["repeats"])
    if result["error"] is not None or result["exit_code"] != 0:
        problems.append(f"exit code {result['exit_code']}"
                        + (f": {result['error']}" if result["error"] else ""))
    try:
        with open(summary_dir / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        problems.append(f"no readable summary.json: {exc}")
        return n_cells, n_cells, 0, problems, {}
    if not summary.get("all_passed"):
        problems.append("summary all_passed is false")
    digest = summary["suite_digest"]
    failed = rows_total = bytes_total = 0
    hashes = {}
    for cell in summary["cells"]:
        if not cell["passed"]:
            failed += 1
            continue
        opt = config["optimizers"][cell["optimizer_index"]]
        prob = config["problems"][cell["problem_index"]]
        tag = f"{cell['csv']} [{cell['label']}]"
        try:
            blob = (summary_dir / cell["csv"]).read_bytes()
        except OSError as exc:
            problems.append(f"{tag}: {exc}")
            continue
        hashes[cell["csv"]] = hashlib.sha256(blob).hexdigest()
        bytes_total += len(blob)
        lines = blob.decode("utf-8").splitlines() or [""]
        if lines[-1] != f"# suite_digest={digest}":
            problems.append(f"{tag}: last line {lines[-1]!r} is not the "
                            f"summary digest {digest}")
        body = lines[1:-1]
        rows = len(body)
        rows_total += rows
        if cell["diverged"]:
            m = _DIVERGED_AT.search(cell.get("divergence", ""))
            want = None if m is None else int(m.group(2)) + (
                m.group(1) != "non-finite")
            if want is None or rows != want or not 0 < rows < opt["T"]:
                problems.append(f"{tag}: {rows} rows for a divergence "
                                f"reported as {cell.get('divergence')!r}")
        elif rows != opt["T"]:
            problems.append(f"{tag}: {rows} rows, want T = {opt['T']}")
        ts = [int(line.split(",", 1)[0]) for line in body]
        if ts != list(range(rows)):
            problems.append(f"{tag}: t column is not 0..{rows - 1}")
        want = _calls_formula(opt["method"], rows)
        last = int(body[-1].rsplit(",", 1)[1]) if body else None
        if last != want or cell["grad_calls"] != want:
            problems.append(f"{tag}: grad_calls {last} (csv) / "
                            f"{cell['grad_calls']} (summary), want {want}")
        gap = cell["final_gap"]
        if gap is not None and not gap >= 0.0:
            problems.append(f"{tag}: final_gap {gap} is negative")
        if (gap is None and not cell["diverged"]
                and prob["kind"] != "minty-example"):
            problems.append(f"{tag}: no final_gap for a {prob['kind']} cell")
    if len(summary["cells"]) != n_cells:
        problems.append(f"{len(summary['cells'])} cells, want {n_cells}")
    facts = {"hashes": hashes, "csv_rows": rows_total,
             "csv_bytes": bytes_total, "workers": summary["workers"]}
    return n_cells, failed, rows_total, problems, facts


def check_verify(result, stdout_text):
    """Check one ``saddle-scale verify`` run of the four desk checks."""
    n = len(W.VERIFY_CHECKS)
    problems = []
    try:
        report = json.loads(stdout_text.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        problems.append("verify printed no JSON summary line")
        return n, n, result["iters"], problems, {}
    failures = report.get("failures")
    if report.get("checks") != n:
        problems.append(f"verify ran {report.get('checks')} checks, want {n}")
    if result["error"] is not None:
        problems.append(f"verify crashed: {result['error']}")
    elif result["exit_code"] != (0 if not failures else 1):
        problems.append(f"exit code {result['exit_code']} with failures "
                        f"{failures}")
    failed = len(failures) if isinstance(failures, list) else n
    return n, failed, result["iters"], problems, {}
