"""Reference forms of the projected-gradient solve and the radius search.

pg_solve_reference is solve_pg_sf's iteration written plainly: each step
projects (gamma x - A*(Ax - y)) / (gamma - 2 beta) with the public
project_l1_ball_sort into a new array, and the step norm is np.linalg.norm.
search_radius_reference is the discrepancy bisection with one solve per trial
radius.  The library's in-place step, warm-started projection and reuse of
unprojected trials must return the same bits.
"""

import math

import numpy as np

from sparsq.proxops import RadiusSpec, project_l1_ball_sort
from sparsq.solvers import Termination


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
