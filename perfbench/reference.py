"""Independent numpy reference for the benchmark's correctness checks.

Everything here is computed from a quadratic problem's raw coefficients
``A, B, C, a, c`` with plain numpy, without importing the program:

* the saddle point z*, from the block stationarity system;
* the field F(z) = (A x + B y + a, C y - B'x + c);
* plain identity-scaling extragradient and descent-ascent loops for
  noise-free runs;
* the closed-form growth of descent-ascent on f(x, y) = xy, where every
  step multiplies ||z||^2 by exactly 1 + gamma^2.
"""

import numpy as np


def saddle_point(A, B, C, a, c):
    """z* = [x*; y*] solving A x + B y + a = 0 and -B'x + C y + c = 0."""
    M = np.block([[A, B], [-B.T, C]])
    return np.linalg.solve(M, -np.concatenate([a, c]))


def field(A, B, C, a, c, z):
    """Exact field F(z) of the quadratic saddle function."""
    dx = A.shape[0]
    x, y = z[:dx], z[dx:]
    return np.concatenate([A @ x + B @ y + a, C @ y - B.T @ x + c])


def extragrad_identity(coef, z0, gamma, T):
    """Half iterates z_{t+1/2} (rows) and z_T of unscaled extragradient."""
    z = np.array(z0, dtype=np.float64)
    halves = np.empty((T, z.shape[0]))
    for t in range(T):
        halves[t] = z - gamma * field(*coef, z)
        z = z - gamma * field(*coef, halves[t])
    return halves, z


def sgda_identity(coef, z0, gamma, T):
    """Iterates z_1..z_T (rows) and z_T of unscaled descent-ascent."""
    z = np.array(z0, dtype=np.float64)
    steps = np.empty((T, z.shape[0]))
    for t in range(T):
        z = z - gamma * field(*coef, z)
        steps[t] = z
    return steps, z


def sgda_xy_norm2(z0, gamma, T):
    """||z_T||^2 of descent-ascent on f = xy: (1 + gamma^2)^T ||z_0||^2."""
    z0 = np.asarray(z0, dtype=np.float64)
    return (1.0 + gamma * gamma) ** T * float(z0 @ z0)


def rel_err(got, want):
    """||got - want|| / ||want|| (absolute when want is zero)."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    scale = float(np.linalg.norm(want))
    diff = float(np.linalg.norm(got - want))
    return diff / scale if scale > 0.0 else diff
