"""Penalty, objective and gradient evaluations shared by all solvers.  The
half-variation identity and the pg surrogate are test oracles, in tests/."""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RegParams:
    """Regularization weights: alpha on the squared l1 term, beta on the squared l2 term.

    Requires a finite alpha > 0 and 0 <= beta <= alpha, so eta = beta / alpha
    lies in [0, 1].
    beta = 0 gives the pure squared-l1 penalty.
    """

    alpha: float
    beta: float = 0.0

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not 0 <= self.beta <= self.alpha:
            raise ValueError("beta must satisfy 0 <= beta <= alpha")

    @property
    def eta(self):
        return self.beta / self.alpha


def eval_R(x, p):
    """Penalty alpha * ||x||_1^2 - beta * ||x||_2^2; nonnegative when alpha >= beta."""
    x = np.asarray(x, dtype=float)
    l1 = np.sum(np.abs(x))
    return p.alpha * l1 * l1 - p.beta * float(x @ x)


def eval_J(A, ydelta, x, p, r=None):
    """Penalized objective 0.5 * ||Ax - y||^2 + eval_R(x, p); r, if given, is Ax - y."""
    r = A.apply(x) - ydelta if r is None else r
    return 0.5 * float(r @ r) + eval_R(x, p)


def eval_D(A, ydelta, x, beta, r=None):
    """Constrained objective 0.5 * ||Ax - y||^2 - beta * ||x||_2^2; r, if given, is Ax - y."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    x = np.asarray(x, dtype=float)
    r = A.apply(x) - ydelta if r is None else r
    return 0.5 * float(r @ r) - beta * float(x @ x)


def _gradient(A, ydelta):
    """x -> A*(Ax - y), computed as N x - A*y with the normal operator N = A*A.

    Every solver builds its gradient here once per solve, so this is where a
    non-finite ydelta is rejected.  Each call writes its value into the same
    array, which the next call overwrites.  The function's aty attribute is
    A*y, for solve_pg_sf's residual bound."""
    if not np.all(np.isfinite(ydelta)):
        raise ValueError("ydelta must be finite")
    normal, aty = A.normal, A.apply_adjoint(ydelta)
    out = np.empty(A.domain_dim)

    def grad(x):
        return np.subtract(normal.apply(x), aty, out=out)

    grad.aty = aty
    return grad


def grad_f(A, ydelta, x, beta):
    """Gradient of the smooth part: A*(Ax - y) - 2 * beta * x, from _gradient."""
    x = np.asarray(x, dtype=float)
    return _gradient(A, ydelta)(x) - 2.0 * beta * x
