"""Oracles of the paper's two identities, for the tests.

phi and optimal_lambda state the half-variation identity
||x||_1^2 = min over the simplex of sum_i phi(x_i, lambda_i), with
phi(s, t) = s^2 / t, attained at lambda = |x| / ||x||_1.  The value u that
sparsq.proxops.prox_sq_l1 returns is tested against them: it is the rescaling
lambda_i x_i / (lambda_i + 2 alpha) of x with lambda = optimal_lambda(u).

eval_surrogate is the quadratic majorizer of eval_D that a projected-gradient
step of sparsq.solvers.solve_pg_sf minimizes over the l1 ball; the step is
tested against it.
"""

import math

import numpy as np

from sparsq.regfun import eval_D


def eval_surrogate(A, ydelta, omega, x, beta, gamma):
    """Quadratic majorizer of eval_D around x, evaluated at omega.

    Equals eval_D(omega) plus (gamma/2)*||x - omega||^2 - 0.5*||A(x - omega)||^2,
    so it coincides with eval_D(omega) when x == omega.  Requires gamma > 2*beta
    for strict convexity in omega.
    """
    if not gamma > 2.0 * beta:
        raise ValueError("gamma must exceed 2 * beta")
    omega = np.asarray(omega, dtype=float)
    x = np.asarray(x, dtype=float)
    d = x - omega
    ad = A.apply(x) - A.apply(omega)
    return (
        eval_D(A, ydelta, omega, beta)
        + 0.5 * gamma * float(d @ d)
        - 0.5 * float(ad @ ad)
    )


def phi(s, t):
    """Quotient s^2 / t extended to the closure: 0 at (0, 0), +inf elsewhere off t > 0."""
    if t > 0:
        return s * s / t
    if s == 0 and t == 0:
        return 0.0
    return math.inf


def optimal_lambda(x):
    """Simplex weights |x_i| / ||x||_1 attaining sum_i phi(x_i, lambda_i) = ||x||_1^2.

    Returns the uniform vector 1/n when x is the zero vector.
    """
    x = np.asarray(x, dtype=float)
    l1 = np.sum(np.abs(x))
    if l1 == 0.0:
        return np.full(x.shape, 1.0 / x.size)
    return np.abs(x) / l1
