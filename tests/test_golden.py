"""Golden digests: pinned trajectories, records, CSV bytes and resolved config.

Every case runs a short, fully seeded trajectory and hashes everything a run
exposes: ``final_z``, both averages, ``half_z``, the oracle counters and each
``RunRecord`` column.  A refactor of the numeric path or the run engine must
leave every digest unchanged; a digest that moves means a trajectory moved.

The digests pin the floating-point results of one numpy/OpenBLAS build; a
different BLAS kernel may round GEMVs differently and move them.
"""

import contextlib
import hashlib
import io
import json

import pytest

from saddle_scale import bench
from saddle_scale.errors import DivergenceError
from saddle_scale.metrics import RECORD_FIELDS
from saddle_scale.optim import OptimizerConfig, run
from saddle_scale.precond import ScalingState, scaling_preset
from saddle_scale.problems import (
    PointPair,
    SaddleProblem,
    make_bilinear,
    make_minty,
    make_quadratic,
)

PROBLEMS = {
    "quadratic": lambda: make_quadratic(3, 2, mu=0.5, L=2.0, seed=5,
                                        sigma=0.3),
    "bilinear": lambda: make_bilinear(2, L=1.0, seed=3, sigma=0.1),
    "minty": lambda: make_minty(seed=7, sigma=0.2),
}
METHODS = ("extragrad", "single-call-momentum", "sgda")
PRESETS = ("identity", "rmsprop", "adahessian", "oasis")


def _hex(v):
    if v is None:
        return "None"
    if isinstance(v, int):
        return str(v)
    return float(v).hex()


def trajectory_digest(traj):
    h = hashlib.sha256()
    for pair in (traj.final_z, traj.final_avg_uniform, traj.final_avg_ema):
        h.update(pair.as_vector().tobytes())
    h.update(traj.half_z.tobytes())
    h.update(f"{traj.grad_calls},{traj.hvp_calls}".encode())
    for name in RECORD_FIELDS:
        col = ",".join(_hex(getattr(r, name)) for r in traj.records)
        h.update(f"{name}:{col};".encode())
    # records once had a never-set gap field; its None column stays hashed
    # so that no digest moves
    h.update(f"gap:{','.join(['None'] * len(traj.records))};".encode())
    return h.hexdigest()[:16]


def run_digest(problem, **cfg):
    """Digest of a run; a diverging run digests its partial trajectory and
    the abort index."""
    try:
        return trajectory_digest(run(problem, OptimizerConfig(**cfg)))
    except DivergenceError as exc:
        return f"{trajectory_digest(exc.trajectory)}@{exc.t}"


@pytest.fixture(scope="module")
def problems():
    return {name: make() for name, make in PROBLEMS.items()}


def grid_config(problem, method, preset):
    return dict(method=method, T=25, seed=11, gamma=2e-3,
                scaling=scaling_preset(preset, problem.d_x, problem.d_y))


GRID = {
    ("quadratic", "extragrad", "identity"): "c2eb61b74366e0c6",
    ("quadratic", "extragrad", "rmsprop"): "253b80a2afba364a",
    ("quadratic", "extragrad", "adahessian"): "7c490fbf323772eb",
    ("quadratic", "extragrad", "oasis"): "a4241719e86066a2",
    ("quadratic", "single-call-momentum", "identity"): "99a6f0d6b7fb00c5",
    ("quadratic", "single-call-momentum", "rmsprop"): "958d4e73ad6ad2ba",
    ("quadratic", "single-call-momentum", "adahessian"): "87f9da95d49c85da",
    ("quadratic", "single-call-momentum", "oasis"): "bb4902abfd15bac2",
    ("quadratic", "sgda", "identity"): "958f56fc9b4d314e",
    ("quadratic", "sgda", "rmsprop"): "d709ca51b2b19699",
    ("quadratic", "sgda", "adahessian"): "482a292c212b3350",
    ("quadratic", "sgda", "oasis"): "f0ecb32c41cfbf9d",
    ("bilinear", "extragrad", "identity"): "69c67fae33ebdad0",
    ("bilinear", "extragrad", "rmsprop"): "75b772990c64489a",
    ("bilinear", "extragrad", "adahessian"): "fed66bd4c9799917",
    ("bilinear", "extragrad", "oasis"): "fed66bd4c9799917",
    ("bilinear", "single-call-momentum", "identity"): "fb7853b3df616847",
    ("bilinear", "single-call-momentum", "rmsprop"): "c29b3e9b8e0134b8",
    ("bilinear", "single-call-momentum", "adahessian"): "0b2520c3dd7d0dca",
    ("bilinear", "single-call-momentum", "oasis"): "0b2520c3dd7d0dca",
    ("bilinear", "sgda", "identity"): "623d61592fa61a43",
    ("bilinear", "sgda", "rmsprop"): "b9942866d4119c04",
    ("bilinear", "sgda", "adahessian"): "7d44762fdc2a9455",
    ("bilinear", "sgda", "oasis"): "7d44762fdc2a9455",
    ("minty", "extragrad", "identity"): "e93e7fbf3a9d14d0",
    ("minty", "extragrad", "rmsprop"): "37a8afea4703b7d8",
    ("minty", "extragrad", "adahessian"): "09d26c97fe73b1f6",
    ("minty", "extragrad", "oasis"): "205d0cbf81344f65",
    ("minty", "single-call-momentum", "identity"): "b123ef15407ed409",
    ("minty", "single-call-momentum", "rmsprop"): "7b0d8c6a0ded6578",
    ("minty", "single-call-momentum", "adahessian"): "366f67ded2de7aa0",
    ("minty", "single-call-momentum", "oasis"): "2c7be8b4ca501834",
    ("minty", "sgda", "identity"): "0af48d10a1427a6f",
    ("minty", "sgda", "rmsprop"): "0fb503bc596f96c7",
    ("minty", "sgda", "adahessian"): "3fae231230b9fcf7",
    ("minty", "sgda", "oasis"): "3029ab5a33d66db1",
}


@pytest.mark.parametrize("pname", list(PROBLEMS))
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("preset", PRESETS)
def test_grid_digest(problems, pname, method, preset):
    p = problems[pname]
    got = run_digest(p, **grid_config(p, method, preset))
    assert got == GRID[(pname, method, preset)]


def _variant_configs(problems):
    q = problems["quadratic"]
    m = problems["minty"]
    return {
        "update-prob": (q, dict(
            method="extragrad", T=40, seed=3, gamma=1e-3,
            scaling=scaling_preset("adam", 3, 2, update_prob=0.4))),
        "update-every-k": (q, dict(
            method="single-call-momentum", T=40, seed=4, gamma=1e-3,
            scaling=scaling_preset("oasis", 3, 2, update_every_k=3))),
        "eta": (q, dict(
            method="single-call-momentum", T=40, seed=5, gamma=1e-3,
            eta=2e-3, anchor_prob=0.5,
            scaling=scaling_preset("rmsprop", 3, 2))),
        "batch": (m, dict(
            method="extragrad", T=40, seed=6, gamma=1e-2, batch=4,
            scaling=scaling_preset("adahessian", 1, 1))),
        "full-form-add-clip": (q, dict(
            method="sgda", T=40, seed=8, gamma=5e-3, ema_lambda=0.9,
            scaling=ScalingState.create(
                rule="additive-ema", source="grad-square",
                schedule="adam-debias", beta=0.9, floor_e=0.05,
                update_prob=1.0, d_x=3, d_y=2, clip_variant="add"))),
        "default-gamma-z0": (q, dict(
            method="extragrad", T=30, seed=9, gamma=None,
            scaling=scaling_preset("oasis", 3, 2),
            z0=PointPair([1.0, -2.0, 0.5], [0.25, 3.0]))),
        "diverging-sgda": (
            SaddleProblem.bilinear_from_matrix([[1.0]]),
            dict(method="sgda", T=10_000, seed=0, gamma=0.5,
                 scaling=scaling_preset("identity", 1, 1),
                 z0=PointPair([1.0], [1.0]))),
    }


VARIANTS = {
    "update-prob": "96dba9b14e41587a",
    "update-every-k": "356ded65053a04f2",
    "eta": "ebf16662ed6113f6",
    "batch": "32758beae4899419",
    "full-form-add-clip": "77d5e5b9c2fda43f",
    "default-gamma-z0": "f1d3f3badbcf1e8e",
    "diverging-sgda": "abee638157cd2408@245",
}


@pytest.mark.parametrize("case", list(VARIANTS))
def test_variant_digest(problems, case):
    p, cfg = _variant_configs(problems)[case]
    assert run_digest(p, **cfg) == VARIANTS[case]


def test_diverging_prefix_is_partial(problems):
    p, cfg = _variant_configs(problems)["diverging-sgda"]
    with pytest.raises(DivergenceError) as info:
        run(p, OptimizerConfig(**cfg))
    assert 0 < info.value.t < cfg["T"]


# ---------------------------------------------------------------------------
# CLI output and resolved config

SUITE = {
    "name": "golden",
    "master_seed": 123,
    "repeats": 2,
    "problems": [
        {"kind": "quadratic", "d_x": 3, "d_y": 2, "mu": 0.5, "L": 2,
         "sigma": 0.3, "seed": 4},
        {"kind": "bilinear", "d": 2, "L": 1.0, "noise_bound": 0.5},
        {"kind": "minty-example", "sigma": 0},
    ],
    "optimizers": [
        {"method": "extragrad", "T": 30, "gamma": 1e-3,
         "scaling": {"preset": "oasis", "update_prob": 0.5},
         "averaging": "ema", "ema_lambda": 0.9},
        {"method": "single-call-momentum", "T": 30, "gamma": None,
         "eta": 1e-4, "anchor_prob": 0.5, "batch": 2, "label": "sc",
         "scaling": {"rule": "squared-ema", "source": "hutchinson",
                     "schedule": "adam-debias", "beta": 0.99,
                     "floor_e": 0.01, "clip_variant": "add",
                     "update_every_k": 2}},
        {"method": "sgda", "T": 30, "gamma": 0.05, "theory_safe": False,
         "expect_divergence": False},
    ],
}

RESOLVED_DIGEST = "cccd751b5a93b4f8"
CELL_CSV_DIGEST = "a84f2ae66144dd6a"


def test_resolved_config_digest():
    resolved = bench.resolve_config(json.loads(json.dumps(SUITE)))
    blob = json.dumps(resolved).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == RESOLVED_DIGEST


def test_cell_csv_bytes(tmp_path):
    cfg = dict(SUITE, output_dir=str(tmp_path / "out"))
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert bench.main(["run", str(path)]) == 0
    data = (tmp_path / "out" / "golden" / "cell_0_1_1.csv").read_bytes()
    assert data.splitlines()[-1].startswith(b"# suite_digest=")
    assert hashlib.sha256(data).hexdigest()[:16] == CELL_CSV_DIGEST
