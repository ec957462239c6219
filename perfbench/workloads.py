"""The benchmark's workloads and the inputs each one derives from its seed.

Only numpy is imported here: the orchestrator generates inputs and checks
outputs without loading the program, and the round process builds the
program's objects from these plain values.

* ``solve-small``: library ``run`` calls on a noisy d = 20 quadratic, the
  three methods under ``rmsprop`` and ``oasis``.  Per-iteration Python and
  allocation overhead dominates at this size.
* ``solve-large``: library ``run`` calls on a noisy d = 1000 quadratic.
  The exact field GEMVs (8 MB of matrices per evaluation) dominate.
* ``suite-grid``: ``saddle-scale run`` on one suite of many small cells at
  the default worker count; drives config resolution, thread-pool
  dispatch, CSV writing and the restricted gap.
* ``verify-desk``: ``saddle-scale verify`` on four desk-scale checks that
  trace the scaling for 1e4-step runs and audit it.
"""

import numpy as np

WORKLOADS = ("solve-small", "solve-large", "suite-grid", "verify-desk")

# Problem and run make-up of the two library workloads.  Every run gets an
# explicit z0 so that its first record can be checked against the reference.
SOLVE = {
    "solve-small": {
        "key": 1,
        "d_x": 10, "d_y": 10, "mu": 1.0, "L": 2.0, "sigma": 0.5,
        "batch": 8, "T": 2000,
        # label, method, preset, gamma, eta
        "runs": [
            ("extragrad-rmsprop", "extragrad", "rmsprop", 1e-3, 0.0),
            ("extragrad-oasis", "extragrad", "oasis", 1.25e-3, 0.0),
            ("single-call-rmsprop", "single-call-momentum", "rmsprop",
             1e-3, 0.0),
            ("single-call-oasis", "single-call-momentum", "oasis",
             5e-4, 2.5e-3),
            ("sgda-rmsprop", "sgda", "rmsprop", 1e-3, 0.0),
            ("sgda-oasis", "sgda", "oasis", 1.25e-3, 0.0),
        ],
        # untimed checks: noise-free identity runs against the reference
        # loops, and one oasis run at update_prob 0.5 that counts fires
        "identity_T": 20,
        "skip_T": 200,
    },
    "solve-large": {
        "key": 2,
        "d_x": 500, "d_y": 500, "mu": 1.0, "L": 2.0, "sigma": 0.5,
        "batch": 8, "T": 400,
        "runs": [
            ("extragrad-rmsprop", "extragrad", "rmsprop", 1e-3, 0.0),
            ("extragrad-oasis", "extragrad", "oasis", 1.25e-3, 0.0),
            ("single-call-adahessian", "single-call-momentum", "adahessian",
             1.25e-3, 0.0),
        ],
        "identity_T": 10,
        "skip_T": 40,
    },
}

# The rmsprop runs of the solve workloads keep the preset's rule, source,
# schedule and beta but clip at 0.01 instead of the preset's 1e-8.  With
# the 1e-8 floor, a gradient entry near 0 at the first scaling update makes
# the next extragradient step that entry's |g| / 1e-7 times gamma: on about
# 1 seed in 60, a d = 20 or d = 1000 run ends farther from z* than it
# started (seed 1130384430 of solve-large: dist2 1758 -> 106738).  At 0.01,
# gamma = 1e-3 is within extragradient's floor_e / (4 L) step cap.
RMSPROP_FLOOR = 1e-2

IDENTITY_GAMMA = 0.1
SKIP_PROB = 0.5

# descent-ascent on f = xy: ||z_T||^2 = (1 + gamma^2)^T ||z_0||^2
XY_Z0 = (1.0, 1.0)
XY_GAMMA = 0.1
XY_T = 100

VERIFY_CHECKS = ("scaling-range", "scaling-growth", "sc-contraction",
                 "divergence-split")


def solve_inputs(workload, seed):
    """Problem seed, shared start point z0 and one run seed per run."""
    spec = SOLVE[workload]
    rng = np.random.default_rng([seed, spec["key"]])
    d = spec["d_x"] + spec["d_y"]
    return {
        "problem_seed": int(rng.integers(2**31)),
        "z0": rng.standard_normal(d).tolist(),
        "run_seeds": [int(s) for s in rng.integers(2**31,
                                                   size=len(spec["runs"]))],
        "check_seed": int(rng.integers(2**31)),
    }


# Step 2.5 makes plain descent-ascent expand every direction of all three
# problems (|1 - 2.5 lambda| > 1 for each field eigenvalue lambda, and for
# the linear growth of the minty field), so these cells always diverge.
DIVERGE_GAMMA = 2.5
SUITE_T = 400
SUITE_REPEATS = 2


def suite_config(seed, output_dir):
    """One suite: three small problems crossed with six optimizers, two
    repeats each; the last optimizer is expected to diverge."""
    rng = np.random.default_rng([seed, 3])
    ps = [int(s) for s in rng.integers(2**31, size=3)]
    T = SUITE_T
    return {
        "name": "grid",
        "master_seed": int(seed),
        "output_dir": output_dir,
        "repeats": SUITE_REPEATS,
        "problems": [
            {"kind": "quadratic", "d_x": 10, "d_y": 10, "mu": 1.0, "L": 2.0,
             "seed": ps[0], "sigma": 0.5},
            {"kind": "bilinear", "d": 10, "L": 2.0, "seed": ps[1],
             "sigma": 0.1},
            {"kind": "minty-example", "seed": ps[2], "sigma": 0.1},
        ],
        "optimizers": [
            {"label": "eg-rmsprop", "method": "extragrad", "T": T,
             "gamma": 1e-3, "scaling": {"preset": "rmsprop"}, "batch": 8},
            {"label": "eg-oasis", "method": "extragrad", "T": T,
             "gamma": 8e-4, "scaling": {"preset": "oasis"}, "batch": 8},
            {"label": "sc-oasis-momentum", "method": "single-call-momentum",
             "T": T, "gamma": 5e-4, "eta": 2.5e-3,
             "scaling": {"preset": "oasis"}},
            {"label": "sc-adahessian-p0.5", "method": "single-call-momentum",
             "T": T, "gamma": 5e-4,
             "scaling": {"preset": "adahessian", "update_prob": 0.5}},
            {"label": "sgda-rmsprop-ema", "method": "sgda", "T": T,
             "gamma": 1e-3, "scaling": {"preset": "rmsprop"},
             "averaging": "ema"},
            {"label": "sgda-diverges", "method": "sgda", "T": T,
             "gamma": DIVERGE_GAMMA, "expect_divergence": True},
        ],
    }


def verify_argv(seed):
    return ["verify", "--only", ",".join(VERIFY_CHECKS), "--seed", str(seed)]
