"""Per-layer metrics: their definitions, the computed kernel figures, and
the per-layer table of a traced run.

All figures are per round (one pass over the workload's operations),
averaged over the traced rounds of a run, so counts repeat exactly from
run to run.  A layer the workload does not exercise reads 0.
"""

# name, unit, better
PER_LAYER = [
    ("problems.field_into.calls", "count", "lower"),
    ("problems.field_into.busy_s", "s", "lower"),
    ("problems.field_into.from_run.calls", "count", "lower"),
    ("problems.field_into.flops", "flop/call", "lower"),
    ("problems.field_into.bytes", "B/call", "lower"),
    ("problems.field_into.ops_per_byte", "flop/B", "higher"),
    ("problems.noise_into.calls", "count", "lower"),
    ("problems.noise_into.busy_s", "s", "lower"),
    ("problems.hvp_into.calls", "count", "lower"),
    ("problems.hvp_into.busy_s", "s", "lower"),
    ("problems.hvp_into.flops", "flop/call", "lower"),
    ("problems.hvp_into.bytes", "B/call", "lower"),
    ("problems.hvp_into.ops_per_byte", "flop/B", "higher"),
    ("problems.gradient.calls", "count", "lower"),
    ("problems.gradient.busy_s", "s", "lower"),
    ("problems.gradient.self_s", "s", "lower"),
    ("problems.make.busy_s", "s", "lower"),
    ("precond.curvature_for.calls", "count", "lower"),
    ("precond.curvature_for.busy_s", "s", "lower"),
    ("precond.advance.calls", "count", "lower"),
    ("precond.advance.busy_s", "s", "lower"),
    ("precond.advance.self_s", "s", "lower"),
    ("precond.ema.fires", "count", "lower"),
    ("precond.ema.skips", "count", "higher"),
    ("precond.clip_floor_frac", "fraction", "lower"),
    ("optim.run.busy_s", "s", "lower"),
    ("optim.run.self_s", "s", "lower"),
    ("optim.step_extragrad.calls", "count", "lower"),
    ("optim.step_extragrad.self_s", "s", "lower"),
    ("optim.step_single_call.calls", "count", "lower"),
    ("optim.step_single_call.self_s", "s", "lower"),
    ("optim.step_sgda.calls", "count", "lower"),
    ("optim.step_sgda.self_s", "s", "lower"),
    ("optim.records", "count", "higher"),
    ("optim.half_z.bytes", "B", "lower"),
    ("optim.scaling_trace.bytes", "B", "lower"),
    ("metrics.weighted_dist_sq.calls", "count", "lower"),
    ("metrics.weighted_dist_sq.busy_s", "s", "lower"),
    ("metrics.gap_restricted.calls", "count", "lower"),
    ("metrics.gap_restricted.busy_s", "s", "lower"),
    ("metrics.contraction_check.busy_s", "s", "lower"),
    ("bench.resolve_config.busy_s", "s", "lower"),
    ("bench.run_cell.calls", "count", "lower"),
    ("bench.run_cell.busy_s", "s", "lower"),
    ("bench.pool.workers", "count", "lower"),
    ("bench.write_rows.calls", "count", "lower"),
    ("bench.write_rows.busy_s", "s", "lower"),
    ("bench.csv.rows", "count", "higher"),
    ("bench.csv.bytes", "B", "lower"),
    ("verify.scaling-range.s", "s", "lower"),
    ("verify.scaling-growth.s", "s", "lower"),
    ("verify.sc-contraction.s", "s", "lower"),
    ("verify.divergence-split.s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

F64 = 8  # bytes per float64


def field_cost(kind, dx, dy):
    """Computed (flops, bytes) of one exact field evaluation F(z).

    Bytes count each matrix and vector the kernel must touch once (the
    quadratic reads A, B, B' and C); temporaries and cache misses are not
    counted.
    """
    d = dx + dy
    if kind == "quadratic":
        mat = dx * dx + dy * dy + 2 * dx * dy
        return 2 * mat + 2 * d, F64 * (mat + 3 * d)   # z, (a; c), out
    if kind == "bilinear":
        return 4 * dx * dy + dy, F64 * (2 * dx * dy + 2 * d)
    return 8, F64 * 4                                  # 2x2 minty, 2 sines


def hvp_cost(kind, dx, dy):
    """Computed (flops, bytes) of one Hessian-vector product."""
    d = dx + dy
    if kind == "quadratic":
        mat = dx * dx + dy * dy
        return 2 * mat, F64 * (mat + 2 * d)            # (A v_x, C v_y)
    if kind == "bilinear":
        return 0, F64 * d                              # writes zeros
    return 6, F64 * 6                                  # 2x2 minty, 2 cosines


def kernel_table():
    """Computed figures of one field evaluation and one HVP of a quadratic
    at total dimension 20 and 1000."""
    rows = []
    for d in (20, 1000):
        for label, fn in (("field", field_cost), ("hvp", hvp_cost)):
            flops, nbytes = fn("quadratic", d // 2, d - d // 2)
            rows.append((label, d, flops, nbytes, flops / nbytes))
    return rows


def _span(reduced, name, field):
    return reduced.get(name, {}).get(field, 0)


def round_metrics(reduced, counters, extra):
    """Per-layer metrics of one traced round.

    ``reduced`` comes from ``tracer.reduce_spans``, ``counters`` from the
    round's observers and ``extra`` holds figures read from the round's
    outputs (CSV rows and bytes, pool workers, span count).
    """
    m = {}
    for name, unit, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field in ("calls", "busy_s", "self_s") and base in reduced:
            m[name] = _span(reduced, base, field)
        else:
            m[name] = 0
    m["problems.field_into.from_run.calls"] = (
        reduced.get("problems.field_into", {}).get("by_parent", {})
        .get("optim.run", {}).get("calls", 0))
    for prefix in ("problems.field_into", "problems.hvp_into"):
        calls = _span(reduced, prefix, "calls")
        flops = counters.get(prefix + ".flops", 0)
        nbytes = counters.get(prefix + ".bytes", 0)
        m[prefix + ".flops"] = flops / calls if calls else 0
        m[prefix + ".bytes"] = nbytes / calls if calls else 0
        m[prefix + ".ops_per_byte"] = flops / nbytes if nbytes else 0
    entries = counters.get("precond.clip.entries", 0)
    m["precond.clip_floor_frac"] = (
        counters.get("precond.clip.floor_entries", 0) / entries
        if entries else 0)
    for key in ("precond.ema.fires", "precond.ema.skips", "optim.records",
                "optim.half_z.bytes", "optim.scaling_trace.bytes"):
        m[key] = counters.get(key, 0)
    for key, value in counters.items():
        if key.startswith("verify."):
            m[key] = value
    m.update(extra)
    return m


def format_layer_table(reduced):
    """One row per layer boundary: calls, busy and self time, then one
    indented row per parent span with that parent's share."""
    lines = [f"{'span':<36} {'calls':>9} {'busy_s':>11} {'self_s':>11}"]
    for name in sorted(reduced):
        r = reduced[name]
        lines.append(f"{name:<36} {r['calls']:>9} {r['busy_s']:>11.6f} "
                     f"{r['self_s']:>11.6f}")
        for parent, s in sorted(r["by_parent"].items()):
            lines.append(f"  under {parent:<28} {s['calls']:>9} "
                         f"{s['busy_s']:>11.6f}")
    return "\n".join(lines)
