"""Harness contract: config validation, CSV format, CLI behavior."""

import io
import json
import math

import numpy as np
import pytest

from saddle_scale import bench, gap_restricted, run
from saddle_scale.errors import ConfigError


def minimal_config(tmp_path, **overrides):
    cfg = {
        "name": "suite",
        "output_dir": str(tmp_path / "out"),
        "problems": [{"kind": "bilinear", "d": 2, "L": 1.0}],
        "optimizers": [{"method": "extragrad", "T": 40, "gamma": 0.1}],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    import contextlib
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bench.main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# config resolution


def test_defaults_filled_in(tmp_path):
    resolved = bench.resolve_config(minimal_config(tmp_path))
    assert resolved["master_seed"] == 42
    assert resolved["repeats"] == 1
    assert resolved["problems"][0]["sigma"] == 0.0
    assert resolved["problems"][0]["noise_bound"] is None
    opt = resolved["optimizers"][0]
    assert opt["scaling"] == {"preset": "identity", "update_prob": 1.0,
                              "update_every_k": None}
    assert opt["batch"] == 1
    assert opt["averaging"] == "uniform"
    assert opt["expect_divergence"] is False


@pytest.mark.parametrize("mutate,field", [
    (lambda c: c.pop("name"), "name"),
    (lambda c: c.update(name=""), "name"),
    (lambda c: c.update(problems=[]), "problems"),
    (lambda c: c.update(repeats=0), "repeats"),
    (lambda c: c.update(master_seed=-1), "master_seed"),
    (lambda c: c.update(bogus=1), "bogus"),
    (lambda c: c["optimizers"][0].pop("gamma"), "optimizers[0].gamma"),
    (lambda c: c["optimizers"][0].pop("T"), "optimizers[0].T"),
    (lambda c: c["optimizers"][0].update(method="newton"),
     "optimizers[0].method"),
    (lambda c: c["optimizers"][0].update(batch=0), "optimizers[0].batch"),
    (lambda c: c["optimizers"][0].update(extra=1), "optimizers[0].extra"),
    (lambda c: c["problems"][0].update(kind="banana"), "problems[0].kind"),
    (lambda c: c["problems"][0].pop("d"), "problems[0].d"),
    (lambda c: c["problems"][0].update(sigma=-1.0), "problems[0].sigma"),
    (lambda c: c["optimizers"][0].update(scaling={"preset": "sgdm"}),
     "optimizers[0].scaling.preset"),
    (lambda c: c["optimizers"][0].update(
        scaling={"preset": "oasis", "update_prob": 0.5, "update_every_k": 3}),
     "optimizers[0].scaling.update_every_k"),
    pytest.param(lambda c: c["optimizers"][0].update(gamma=0),
                 "optimizers[0].gamma", id="gamma-zero"),
    pytest.param(lambda c: c["optimizers"][0].update(scaling={
        "rule": "additive-ema", "source": "hutchinson",
        "schedule": "constant-beta", "beta": 1.5, "floor_e": 0.01}),
        "optimizers[0].scaling.beta", id="beta-above-one"),
    pytest.param(lambda c: c["optimizers"][0].update(averaging="harmonic"),
                 "optimizers[0].averaging", id="averaging-unknown"),
    # json.load parses the literal Infinity; a number must be finite
    pytest.param(lambda c: c["problems"][0].update(L=math.inf),
                 "problems[0].L", id="bilinear-L-infinite"),
    pytest.param(lambda c: c.update(problems=[{
        "kind": "quadratic", "d_x": 2, "d_y": 2, "mu": 0.5, "L": math.inf}]),
        "problems[0].L", id="quadratic-L-infinite"),
    pytest.param(lambda c: c["problems"][0].update(sigma=math.inf),
                 "problems[0].sigma", id="sigma-infinite"),
    pytest.param(lambda c: c["optimizers"][0].update(gamma=math.inf),
                 "optimizers[0].gamma", id="gamma-infinite"),
    pytest.param(lambda c: c["problems"][0].update(L=10 ** 400),
                 "problems[0].L", id="L-integer-past-float-range"),
])
def test_validation_names_offending_field(tmp_path, mutate, field):
    cfg = minimal_config(tmp_path)
    mutate(cfg)
    with pytest.raises(ConfigError) as exc:
        bench.resolve_config(cfg)
    assert exc.value.field == field


def test_quadratic_spec_requires_l_at_least_mu(tmp_path):
    cfg = minimal_config(tmp_path, problems=[
        {"kind": "quadratic", "d_x": 2, "d_y": 2, "mu": 3.0, "L": 1.0}])
    with pytest.raises(ConfigError) as exc:
        bench.resolve_config(cfg)
    assert exc.value.field == "problems[0].L"


def test_digest_ignores_output_dir_but_not_content(tmp_path):
    a = bench.resolve_config(minimal_config(tmp_path))
    b = bench.resolve_config(minimal_config(tmp_path,
                                            output_dir=str(tmp_path / "el")))
    c = bench.resolve_config(minimal_config(tmp_path, master_seed=7))
    assert bench.suite_digest(a) == bench.suite_digest(b)
    assert bench.suite_digest(a) != bench.suite_digest(c)


def test_cell_seeds_distinct_and_stable():
    seeds = [bench.cell_seed(42, k) for k in range(64)]
    assert len(set(seeds)) == 64
    assert seeds == [bench.cell_seed(42, k) for k in range(64)]
    assert bench.cell_seed(7, 0) != bench.cell_seed(42, 0)


# ---------------------------------------------------------------------------
# run subcommand and CSV contract


def test_run_writes_csv_contract(tmp_path):
    cfg = minimal_config(tmp_path)
    code, out, _ = run_main(["run", write_config(tmp_path, cfg)])
    assert code == 0
    assert "master seed 42" in out
    csv_path = tmp_path / "out" / "suite" / "cell_0_0_0.csv"
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,r2_weighted,dist2,grad_norm2,gap,dhat_min,dhat_max,grad_calls"
    assert len(lines) == 1 + 40 + 1  # header + T rows + digest trailer
    assert lines[-1].startswith("# suite_digest=")
    row0 = lines[1].split(",")
    assert row0[0] == "0"
    assert row0[4] == ""  # gap column empty when absent
    assert int(row0[7]) == 2  # extragrad: two calls after the first step

    summary = json.loads((tmp_path / "out" / "suite" / "summary.json")
                         .read_text(encoding="utf-8"))
    assert summary["all_passed"] is True
    assert summary["suite_digest"] == lines[-1].split("=")[1]
    assert summary["resolved_config"]["optimizers"][0]["batch"] == 1
    cell = summary["cells"][0]
    assert cell["csv"] == "cell_0_0_0.csv"
    assert cell["grad_calls"] == 80
    assert cell["final_gap"] is not None  # bilinear supports the gap


def test_csv_floats_roundtrip_exactly(tmp_path):
    cfg = minimal_config(tmp_path, problems=[
        {"kind": "quadratic", "d_x": 2, "d_y": 2, "mu": 0.5, "L": 2.0,
         "sigma": 0.2}])
    code, _, _ = run_main(["run", write_config(tmp_path, cfg)])
    assert code == 0
    from saddle_scale.bench import build_problem, cell_seed
    from saddle_scale.optim import OptimizerConfig, run
    resolved = bench.resolve_config(cfg)
    problem = build_problem(resolved["problems"][0])
    traj = run(problem, OptimizerConfig(
        method="extragrad", T=40, seed=cell_seed(42, 0), gamma=0.1))
    lines = (tmp_path / "out" / "suite" / "cell_0_0_0.csv").read_text().splitlines()
    for rec, line in zip(traj.records, lines[1:]):
        parts = line.split(",")
        assert int(parts[0]) == rec.t
        assert float(parts[1]) == rec.r2_weighted  # 17 digits roundtrip
        assert float(parts[2]) == rec.dist2
        assert float(parts[3]) == rec.grad_norm2
        assert int(parts[7]) == rec.grad_calls


def test_repeats_give_distinct_rows(tmp_path):
    cfg = minimal_config(tmp_path, repeats=2, problems=[
        {"kind": "quadratic", "d_x": 2, "d_y": 2, "mu": 0.5, "L": 2.0,
         "sigma": 0.5}])
    code, _, _ = run_main(["run", write_config(tmp_path, cfg)])
    assert code == 0
    base = tmp_path / "out" / "suite"
    a = (base / "cell_0_0_0.csv").read_text()
    b = (base / "cell_0_0_1.csv").read_text()
    assert a != b  # different derived seeds -> different noise


def test_expected_divergence_exits_zero(tmp_path):
    cfg = minimal_config(tmp_path, optimizers=[
        {"method": "sgda", "T": 5000, "gamma": 0.6,
         "expect_divergence": True}])
    code, _, _ = run_main(["run", write_config(tmp_path, cfg)])
    assert code == 0
    summary = json.loads((tmp_path / "out" / "suite" / "summary.json")
                         .read_text())
    cell = summary["cells"][0]
    assert cell["diverged"] is True
    assert cell["passed"] is True
    # the CSV keeps the prefix recorded before the abort
    lines = (tmp_path / "out" / "suite" / "cell_0_0_0.csv").read_text().splitlines()
    assert len(lines) > 2
    assert lines[-1].startswith("# suite_digest=")


def test_unexpected_divergence_exits_one(tmp_path):
    cfg = minimal_config(tmp_path, optimizers=[
        {"method": "sgda", "T": 5000, "gamma": 0.6}])
    code, _, _ = run_main(["run", write_config(tmp_path, cfg)])
    assert code == 1


def test_missing_gamma_names_field(tmp_path):
    cfg = minimal_config(tmp_path)
    del cfg["optimizers"][0]["gamma"]
    code, _, err = run_main(["run", write_config(tmp_path, cfg)])
    assert code == 2
    assert "optimizers[0].gamma" in err
    # a theory-safe gamma above its gate (bilinear, L = 1: 0.5) is caught
    # once the problems are built, before any cell writes its CSV
    cfg = minimal_config(tmp_path, optimizers=[
        {"method": "extragrad", "T": 40, "gamma": 0.9, "theory_safe": True}])
    code, _, err = run_main(["run", write_config(tmp_path, cfg)])
    assert code == 2
    assert err.startswith("config error at optimizers[0].gamma: ")
    assert "gamma <= 0.5" in err
    cfg["optimizers"] = [{"method": "single-call-momentum", "T": 40,
                          "gamma": 0.05, "anchor_prob": 0.5,
                          "theory_safe": True}]
    code, _, err = run_main(["run", write_config(tmp_path, cfg)])
    assert code == 2
    assert err.startswith("config error at optimizers[0].anchor_prob: ")
    assert not list(tmp_path.glob("out/**/*.csv"))


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x", ', encoding="utf-8")
    code, _, err = run_main(["run", str(path)])
    assert code == 2
    assert "line 1" in err


def test_missing_file_exits_two(tmp_path):
    code, _, err = run_main(["run", str(tmp_path / "absent.json")])
    assert code == 2
    # an output_dir that cannot be created is a config error, not a crash
    (tmp_path / "afile").write_text("")
    cfg = minimal_config(tmp_path, output_dir=str(tmp_path / "afile"))
    code, _, err = run_main(["run", write_config(tmp_path, cfg)])
    assert code == 2
    assert err.startswith("config error at output_dir: cannot create ")
    # the JSON literal Infinity parses, but no number field takes it
    cfg = minimal_config(tmp_path, problems=[
        {"kind": "quadratic", "d_x": 2, "d_y": 2, "mu": 0.5, "L": math.inf}])
    path = write_config(tmp_path, cfg, "infinite.json")
    text = (tmp_path / "infinite.json").read_text(encoding="utf-8")
    assert '"L": Infinity' in text
    code, _, err = run_main(["run", path])
    assert code == 2
    assert err.startswith(
        "config error at problems[0].L: must be a finite number")


def test_averaging_picks_the_reported_gap_point(tmp_path):
    cfg = minimal_config(tmp_path, problems=[
        {"kind": "bilinear", "d": 4, "L": 1.0}], optimizers=[
        {"method": "extragrad", "T": 200, "gamma": 0.1, "averaging": a}
        for a in ("none", "uniform", "ema")])
    code, _, _ = run_main(["run", write_config(tmp_path, cfg)])
    assert code == 0
    summary = json.loads(
        (tmp_path / "out" / "suite" / "summary.json").read_text())
    resolved = summary["resolved_config"]
    problem = bench.build_problem(resolved["problems"][0])
    zs = problem.z_star
    for cell in summary["cells"]:
        ospec = resolved["optimizers"][cell["optimizer_index"]]
        traj = run(problem, bench.build_optimizer(
            ospec, cell["seed"], problem))
        point = {"none": traj.final_z, "uniform": traj.final_avg_uniform,
                 "ema": traj.final_avg_ema}[ospec["averaging"]]
        omega = (max(np.linalg.norm(zs.x), np.linalg.norm(zs.y)) + 1.0
                 + 2.0 * np.sqrt(max(r.dist2 for r in traj.records)))
        assert cell["final_gap"] == gap_restricted(problem, point,
                                                   float(omega))


# ---------------------------------------------------------------------------
# plotdata


@pytest.fixture()
def run_csv(tmp_path):
    cfg = minimal_config(tmp_path, optimizers=[
        {"method": "extragrad", "T": 100, "gamma": 0.1}])
    code, _, _ = run_main(["run", write_config(tmp_path, cfg)])
    assert code == 0
    return str(tmp_path / "out" / "suite" / "cell_0_0_0.csv")


def test_plotdata_emits_t_value_pairs(run_csv, capsys):
    assert bench.cmd_plotdata(run_csv, "dist2") == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 100
    t, v = lines[0].split()
    assert t == "0"
    assert float(v) > 0


def test_plotdata_stride(run_csv, capsys):
    assert bench.cmd_plotdata(run_csv, "dist2", stride=10) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert [int(l.split()[0]) for l in lines] == list(range(0, 100, 10))


def test_plotdata_log10_transform(run_csv, capsys):
    assert bench.cmd_plotdata(run_csv, "dist2") == 0
    raw = capsys.readouterr().out
    assert bench.cmd_plotdata(run_csv, "dist2", transform="log10") == 0
    logged = capsys.readouterr().out
    v0 = float(raw.splitlines()[0].split()[1])
    l0 = float(logged.splitlines()[0].split()[1])
    assert l0 == pytest.approx(np.log10(v0), rel=1e-15)


def test_plotdata_unknown_metric_lists_columns(run_csv, capsys):
    assert bench.cmd_plotdata(run_csv, "loss") == 2
    msg = capsys.readouterr().err
    assert "dist2" in msg and "grad_norm2" in msg and "dhat_min" in msg


def test_plotdata_empty_gap_column_fails(run_csv, tmp_path, capsys):
    assert bench.cmd_plotdata(run_csv, "gap") == 2
    assert "gap" in capsys.readouterr().err
    with open(run_csv, encoding="utf-8") as fh:
        header, row = fh.readline().rstrip("\n"), fh.readline().rstrip("\n")
    fields = row.split(",")
    dist2 = header.split(",").index("dist2")
    malformed = {
        "short": ([header, ",".join(fields[:2])], "line 2"),
        "text": ([header, ",".join(fields[:dist2] + ["abc"]
                                   + fields[dist2 + 1:])], "line 2"),
        "no-t": ([header.replace("t,", "step,", 1), row], "no t column"),
    }
    for name, (lines, expected) in malformed.items():
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert bench.cmd_plotdata(str(path), "dist2") == 2, name
        assert expected in capsys.readouterr().err, name


def test_plotdata_bad_stride(run_csv):
    assert bench.cmd_plotdata(run_csv, "dist2", stride=0) == 2


# ---------------------------------------------------------------------------
# schema and verify plumbing


def test_print_schema_is_json_and_flag_alias():
    code, out, _ = run_main(["print-schema"])
    assert code == 0
    schema = json.loads(out)
    assert schema["required"] == ["name", "problems", "optimizers"]
    code2, out2, _ = run_main(["--print-schema"])
    assert code2 == 0 and json.loads(out2) == schema


def test_schema_matches_validator_on_example(tmp_path):
    # the minimal config passes both the schema's required list and the
    # validator; removing a schema-required key fails the validator too
    cfg = minimal_config(tmp_path)
    schema = bench.CONFIG.schema()
    for key in schema["required"]:
        broken = {k: v for k, v in cfg.items() if k != key}
        with pytest.raises(ConfigError):
            bench.resolve_config(broken)


def maximal_config(tmp_path):
    """Every object the schema describes, with every optional key set."""
    return minimal_config(tmp_path, master_seed=3, repeats=1, problems=[
        {"kind": "quadratic", "d_x": 2, "d_y": 2, "mu": 0.5, "L": 2.0,
         "seed": 1, "sigma": 0.1, "noise_bound": 1.0},
        {"kind": "bilinear", "d": 2, "L": 1.0, "seed": 0, "sigma": 0.0,
         "noise_bound": None},
        {"kind": "minty-example", "seed": 2, "sigma": 0.1,
         "noise_bound": 1.0},
    ], optimizers=[
        {"method": "extragrad", "T": 5, "gamma": 0.1,
         "scaling": {"preset": "oasis", "update_prob": 1.0,
                     "update_every_k": 2},
         "eta": 0.0, "anchor_prob": 0.25, "batch": 1, "averaging": "ema",
         "ema_lambda": 0.9, "theory_safe": False,
         "expect_divergence": False, "label": "eg"},
        {"method": "sgda", "T": 5, "gamma": None,
         "scaling": {"rule": "additive-ema", "source": "hutchinson",
                     "schedule": "constant-beta", "beta": 0.9,
                     "floor_e": 0.01, "update_prob": 0.5,
                     "clip_variant": "add", "update_every_k": None},
         "eta": 0.01, "anchor_prob": 1.0, "batch": 2,
         "averaging": "uniform", "ema_lambda": 0.0, "theory_safe": False,
         "expect_divergence": False, "label": "gd"},
    ])


def schema_objects(schema, doc, keys=(), path="<root>"):
    """Yield (keys, path, object schema, object) for every JSON object in
    ``doc``, resolving each ``oneOf`` to the branch that ``doc`` fits."""
    if "oneOf" in schema:
        schema = next(
            b for b in schema["oneOf"]
            if set(b["required"]) <= set(doc) <= set(b["properties"])
            and all(doc[k] in p["enum"] for k, p in b["properties"].items()
                    if k in doc and "enum" in p))
    yield keys, path, schema, doc
    for key, prop in schema["properties"].items():
        sub = key if path == "<root>" else f"{path}.{key}"
        if prop.get("type") == "array":
            for i, item in enumerate(doc[key]):
                yield from schema_objects(prop["items"], item,
                                          keys + (key, i), f"{sub}[{i}]")
        elif "oneOf" in prop or prop.get("type") == "object":
            yield from schema_objects(prop, doc[key], keys + (key,), sub)


WRONG_TYPE = {"integer": 1.5, "number": "x", "string": 5, "boolean": "yes",
              "array": {}, "object": []}


def violations(prop):
    """Values that the property schema ``prop`` rules out."""
    if "enum" in prop:
        yield from ("not-a-choice", 5)
    else:
        kind = prop.get("type", "object")
        yield WRONG_TYPE[kind[0] if isinstance(kind, list) else kind]
    if "minimum" in prop:
        yield prop["minimum"] - 1
    if "maximum" in prop:
        yield prop["maximum"] + 1
    for key in ("exclusiveMinimum", "exclusiveMaximum"):
        if key in prop:
            yield prop[key]
    if prop.get("minLength") == 1:
        yield ""
    if prop.get("minItems") == 1:
        yield []


def mutated(cfg, keys, key, value):
    out = json.loads(json.dumps(cfg))
    obj = out
    for k in keys:
        obj = obj[k]
    if value is None:
        del obj[key]
    else:
        obj[key] = value
    return out


def test_schema_bounds_and_enums_are_enforced(tmp_path):
    cfg = maximal_config(tmp_path)
    bench.resolve_config(cfg)
    schema = bench.CONFIG.schema()
    checked = 0
    for keys, path, obj_schema, _ in schema_objects(schema, cfg):
        for key, prop in obj_schema["properties"].items():
            sub = key if path == "<root>" else f"{path}.{key}"
            for bad in violations(prop):
                with pytest.raises(ConfigError) as exc:
                    bench.resolve_config(mutated(cfg, keys, key, bad))
                assert exc.value.field == sub, (sub, bad)
                checked += 1
        for key in obj_schema["required"]:
            with pytest.raises(ConfigError):
                bench.resolve_config(mutated(cfg, keys, key, None))
    assert checked > 60


def test_schema_keys_match_resolver(tmp_path):
    cfg = maximal_config(tmp_path)
    schema = bench.CONFIG.schema()
    # the maximal config sets every key the schema names, and passes
    for keys, path, obj_schema, obj in schema_objects(schema, cfg):
        assert set(obj) == set(obj_schema["properties"]), path
        with pytest.raises(ConfigError) as exc:
            bench.resolve_config(mutated(cfg, keys, "bogus", 1))
        assert exc.value.field.endswith("bogus")
    # every key the resolver emits is a schema key, in schema order
    resolved = bench.resolve_config(cfg)
    for _, path, obj_schema, obj in schema_objects(schema, resolved):
        assert list(obj) == list(obj_schema["properties"]), path


def test_each_problem_built_once_per_suite(tmp_path, monkeypatch):
    seeds = []
    real = bench.make_minty

    def counting(**kw):
        seeds.append(kw["seed"])
        return real(**kw)

    monkeypatch.setattr(bench, "make_minty", counting)
    cfg = minimal_config(tmp_path, repeats=2, problems=[
        {"kind": "minty-example", "seed": 1},
        {"kind": "minty-example", "seed": 2},
    ], optimizers=[{"method": "extragrad", "T": 5, "gamma": 0.01},
                   {"method": "sgda", "T": 5, "gamma": 0.01}])
    code, _, _ = run_main(["run", write_config(tmp_path, cfg)])
    assert code == 0
    assert seeds == [1, 2]


def test_verify_unknown_name_exits_two(capsys):
    assert bench.cmd_verify(["no-such-check"], 42) == 2
    assert "no-such-check" in capsys.readouterr().err
    for argv, expected in ((["verify", "--only", ","], "--only"),
                           (["verify", "--seed", "-1"], "seed")):
        code, out, err = run_main(argv)
        assert code == 2 and out == "", argv
        assert expected in err, argv


def test_verify_single_check_table(capsys):
    code = bench.cmd_verify(["scalar-inequality"], 42)
    assert code == 0
    text = capsys.readouterr().out
    assert "scalar-inequality" in text
    assert "pass" in text
    tail = json.loads(text.strip().splitlines()[-1])
    assert tail == {"checks": 1, "failures": []}
