"""Reference forms of the projected-gradient solve and the two searches.

pg_solve_reference is solve_pg_sf's iteration written plainly: each step
projects (gamma x - A*(Ax - y)) / (gamma - 2 beta) with the public
project_l1_ball_sort into a new array, and the step norm is np.linalg.norm.
search_radius_reference is the discrepancy bisection with one solve per trial
radius.  The library's in-place step, warm-started projection and reuse of
unprojected trials must return the same bits.  select_alpha_reference is the
alpha search written as its own loop, with one more midpoint solved after it,
returning (alpha, residual, bracketed); the library's alpha search must return
its alpha and residual, and its bracketed flag wherever that last midpoint's
residual misses the band.
_soft_threshold_iteration is the ISTA/FISTA body, with its objective
_l1_objective, that kept FISTA's extrapolation in a state dict of its step
closure and ran the engine without momentum; solve_ista and solve_fista,
whose engine forms that point, must return its bits.  solve_st_l1_l2 and
solve_ht_half are those solvers as they were before they shared the ISTA body:
the library's ht must return their bits at every step constant and its st at
L = 1, where dividing by L and multiplying by its inverse agree.  solve_hv
is the paper's solver as it was before it ran that body,
then named _prox_gradient: the library's hv must return its bits at L = 1,
where dividing by L and multiplying by its inverse agree, and stay within
rounding of it elsewhere.
"""

import math
import warnings
from dataclasses import replace

import numpy as np

from sparsq.proxops import (
    RadiusSpec,
    half_threshold,
    project_l1_ball_sort,
    prox_sq_l1,
    soft_threshold,
)
from sparsq.regfun import RegParams, eval_J
from sparsq.solvers import (
    PENALIZED,
    SolverOptions,
    Termination,
    _gradient,
    _iterate,
    fista_momentum_next,
)


def pg_solve_reference(A, ydelta, beta, gamma, r, max_iter, step_tol, x0):
    """(x_final, iterations, termination, ||A x_final - y||) of the plain pg iteration."""
    normal, aty = A.normal, A.apply_adjoint(ydelta)
    x = np.array(x0, dtype=float)
    termination = Termination.MAX_ITER
    for k in range(1, max_iter + 1):
        u = (gamma * x - (normal.apply(x) - aty)) / (gamma - 2.0 * beta)
        x_next = project_l1_ball_sort(u, r)
        step_norm = float(np.linalg.norm(x_next - x))
        x = x_next
        if not math.isfinite(step_norm):
            termination = Termination.NONFINITE
            break
        if step_norm == 0.0:
            termination = Termination.STAGNATION
            break
        if step_norm < step_tol:
            termination = Termination.STEP_TOL
            break
    return x, k, termination, float(np.linalg.norm(A.apply(x) - ydelta))


def search_radius_reference(A, ydelta, beta, gamma, mdp, max_iter, step_tol, x0, x_true):
    """(radius, bracketed, path, solve) of the bisection, solving every trial.

    path holds (j, radius_sq, residual_norm, rerror) per trial, and solve is
    pg_solve_reference's tuple at the returned radius."""
    r_min, r_max = mdp.r_min, mdp.r_max
    path = []
    bracketed = False
    true_norm = float(np.linalg.norm(x_true))
    for j in range(1, mdp.max_outer + 1):
        r_j = 0.5 * (r_max + r_min)
        radius = RadiusSpec.from_sq(r_j)
        solve = pg_solve_reference(A, ydelta, beta, gamma, radius, max_iter, step_tol, x0)
        residual = solve[3]
        path.append((j, r_j, residual, float(np.linalg.norm(solve[0] - x_true)) / true_norm))
        if residual < mdp.tau1 * mdp.delta:
            r_max = r_j
        elif residual > mdp.tau2 * mdp.delta:
            r_min = r_j
        else:
            bracketed = True
            break
    return radius, bracketed, path, solve


def select_alpha_reference(
    A,
    ydelta,
    delta,
    eta,
    solver="hv",
    opts: SolverOptions = SolverOptions(),
    alpha_bracket=(1e-8, 1e-1),
    max_steps=60,
    band=1.05,
    x0=None,
):
    """(alpha, residual, bracketed): alpha so the solve residual lands in
    [delta, band * delta].

    The residual grows with alpha, so a log-scale bisection applies.  If even
    the bracket endpoints cannot reach the band (residual above it at the low
    end, or below it at the high end) the nearer endpoint is returned with
    bracketed=False.  The inner solves run untraced.  solver is a key of
    PENALIZED; any other raises ValueError, as do a delta, bracket or band
    that is not finite, and a band below 1, which no residual can land in.
    """
    if not 0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    lo, hi = alpha_bracket
    if not 0 < lo < hi < math.inf:
        raise ValueError("alpha_bracket must be positive, increasing and finite")
    if not 1 <= band < math.inf:
        raise ValueError("band must be finite and at least 1")
    if x0 is None:
        x0 = np.full(A.domain_dim, 0.01)
    opts = replace(opts, record_trace=False)

    if solver not in PENALIZED:
        raise ValueError(f"unknown solver {solver!r}")

    def solve_at(alpha):
        return PENALIZED[solver](A, ydelta, alpha, eta, opts, x0).residual_norm

    res_lo = solve_at(lo)
    if res_lo > band * delta:
        return lo, res_lo, False
    if res_lo >= delta:
        return lo, res_lo, True
    res_hi = solve_at(hi)
    if res_hi < delta:
        return hi, res_hi, False
    if res_hi <= band * delta:
        return hi, res_hi, True

    for _ in range(max_steps):
        mid = float(np.sqrt(lo * hi))
        res_mid = solve_at(mid)
        if delta <= res_mid <= band * delta:
            return mid, res_mid, True
        if res_mid < delta:
            lo = mid
        else:
            hi = mid
    mid = float(np.sqrt(lo * hi))
    return mid, solve_at(mid), False


def _l1_objective(alpha):
    def objective(x, r):
        return 0.5 * float(r @ r) + alpha * float(np.sum(np.abs(x)))

    return objective


def _soft_threshold_iteration(A, ydelta, alpha, opts, x0, x_true, momentum):
    """Body of both, so neither public solver calls the other."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    t = 1.0 / opts.L
    grad = _gradient(A, ydelta)
    state = {"t": 1.0, "x_prev": None}

    def step(x):  # a prox-gradient step from the extrapolated point z
        z = x
        if momentum and state["x_prev"] is not None:
            t_k = state["t"]
            t_next = fista_momentum_next(t_k)
            z = x + ((t_k - 1.0) / t_next) * (x - state["x_prev"])
            state["t"] = t_next
        state["x_prev"] = x
        return soft_threshold(z - t * grad(z), alpha * t)

    return _iterate(A, ydelta, x0, step, _l1_objective(alpha), opts, x_true)


def solve_st_l1_l2(A, ydelta, alpha, beta, opts: SolverOptions, x0, x_true=None):
    """Soft-threshold iteration for 0.5||Ax-y||^2 + alpha||x||_1 - beta||x||_2.

    The l2 term enters through x / ||x||_2, so the iterate norm is floored at
    1e-12 to keep the step defined; beta = 0 reduces the step to ISTA's.
    """
    RegParams(alpha, beta)  # checks alpha > 0 and 0 <= beta <= alpha
    gamma = opts.L
    grad = _gradient(A, ydelta)

    def step(x):
        norm_x = max(float(np.linalg.norm(x)), 1e-12)
        u = x + (beta / (gamma * norm_x)) * x - grad(x) / gamma
        return soft_threshold(u, alpha / gamma)

    def objective(x, r):
        return (
            0.5 * float(r @ r)
            + alpha * float(np.sum(np.abs(x)))
            - beta * float(np.linalg.norm(x))
        )

    return _iterate(A, ydelta, x0, step, objective, opts, x_true)


def solve_ht_half(A, ydelta, lam, opts: SolverOptions, x0, x_true=None):
    """Iterative half thresholding for 0.5||Ax-y||^2 + lam * sum_i |x_i|^(1/2)."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    t = 1.0 / opts.L
    grad = _gradient(A, ydelta)

    def step(x):
        return half_threshold(x - t * grad(x), lam, t)

    def objective(x, r):
        return 0.5 * float(r @ r) + lam * float(np.sum(np.sqrt(np.abs(x))))

    return _iterate(A, ydelta, x0, step, objective, opts, x_true)


def solve_hv(A, ydelta, p: RegParams, opts: SolverOptions, x0, x_true=None):
    """Prox-gradient solve of 0.5||Ax-y||^2 + alpha||x||_1^2 - beta||x||_2^2.

    One step maps x to the squared-l1 prox (weight alpha/L) of
    x + (2 beta / L) x - (1/L) A*(Ax - y).  A step constant L at or below
    half the gradient Lipschitz bound forfeits the descent guarantee; that
    case is reported as a warning, not an error.
    """
    alpha, beta = p.alpha, p.beta
    lk = opts.L
    r_hat = A.opnorm_sq
    if lk <= 0.5 * r_hat + beta:
        warnings.warn(
            f"L={lk:g} is not above half the smoothness bound "
            f"({0.5 * (r_hat + 2 * beta):g}); descent is not guaranteed",
            RuntimeWarning,
            stacklevel=2,
        )

    grad = _gradient(A, ydelta)

    def step(x):
        u = x + (2.0 * beta / lk) * x - grad(x) / lk
        return prox_sq_l1(u, alpha / lk)

    return _iterate(
        A, ydelta, x0, step, lambda x, r: eval_J(A, ydelta, x, p, r), opts, x_true
    )

