"""Iterative solvers.

Two first-class algorithms share the package's penalty:

* solve_hv      prox-gradient iteration built on the squared-l1 prox,
                minimizing 0.5||Ax - y||^2 + alpha ||x||_1^2 - beta ||x||_2^2.
* solve_pg_sf   projected-gradient iteration over an l1 ball, derived from a
                quadratic surrogate of 0.5||Ax - y||^2 - beta ||x||_2^2.

Both discrepancy-principle searches run the one bisection loop _bisect:
search_radius_mdp on the squared ball radius of solve_pg_sf at linear
midpoints, select_alpha_discrepancy on alpha of a PENALIZED solver at
geometric midpoints.  Every trial runs untraced and returns its residual and
its solve, and each search returns the solve it landed on; a caller who
wants that solve traced runs it again.  Each search keeps its own policy in
the trial function it passes.  The radius search records one MdpRecord per
trial, and reuses an earlier solve that did not project for a trial that
would not project either, since neither depends on the radius.  Its trials
pass the band [tau1 * delta, tau2 * delta] to solve_pg_sf.  Every
_BOUND_EVERY steps a solve bounds its residual from the gradient and step
norm it has just formed: from below over the whole ball by a Lasso dual
bound, and, where the step map is a contraction (A*A's eigenvalues strictly
between 2 beta and 2 gamma - 2 beta, which needs m >= n), from both sides
over every iterate it can still reach: from below by the contraction's
drift, from above by the descent of pg's objective 0.5||Ax - y||^2 -
beta ||x||^2, which can raise the residual only through the small beta term.
A trial ends once its full solve's residual is certain to lie above the band
(ABOVE_BAND) or below it (BELOW_BAND), and turns the bisection as its full
solve would.  The alpha
search solves both bracket ends before it bisects.  The remaining solvers
(ISTA, FISTA, a soft-threshold l1-minus-l2 iteration, and iterative half
thresholding) are comparison baselines.  They and solve_hv run one
proximal-gradient body, _prox_gradient, with step 1 / opts.L: a gradient
step on the penalty's concave part where it has one, a gradient step on the
data term, then the prox of the rest of the penalty.  FISTA is ISTA's step
taken from an extrapolated point, which the iteration engine _iterate forms.
solve_pg_sf keeps its own step, which works in place and warm-starts its
projection.  All six warn (_check_descent) at a step constant, opts.L or
pg's gamma, at or below 0.5 ||A*A|| + beta, and solve on.

Every solver is deterministic given its inputs, stops when the step norm
falls below opts.step_tol, is exactly 0 (stagnation), turns non-finite, or
hits the iteration cap (solve_pg_sf also when its residual is certain to
end outside its band), and can record a per-iteration trace.  The gradient
step uses the descent sign x - t * A*(Ax - y) throughout, with the gradient
formed as N x - A*y from the operator's normal operator N = A*A: one
operator call per iteration.  The engine forms the residual Ax - y only for
a traced record and once at the end, for SolveResult.residual_norm.  The
gradient and the step x_next - x are written into arrays made once per
solve, never into a result.
"""

import math
import numbers
import time
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .proxops import (
    RadiusSpec,
    _project_l1_ball,
    half_threshold,
    project_l1_ball_sort,  # unused here: perfbench/spans.py's SOLVER_IMPORTS reads it
    prox_sq_l1,
    soft_threshold,
)
from .regfun import RegParams, _gradient, eval_D, eval_J

# solve_pg_sf passes this multiple of the last step's l1-ball threshold to the
# next projection as a lower-bound guess (proxops._sort_threshold's cut).  On
# deblurring searches the threshold moves by less than 1e-5 (relative) in most
# steps; on the n=125 benchmark search (noise seed 0) the guess held in 98% of
# the projections.
_CUT_FACTOR = 0.98
# solve_pg_sf with a band bounds the residual at steps 1, 1 + _BOUND_EVERY,
# 1 + 2 _BOUND_EVERY, ...  A bound costs two dot products, a max and a min,
# and one more dot product where the contraction bound is on.
_BOUND_EVERY = 8


class Termination(str, Enum):
    STEP_TOL = "step_tol"
    MAX_ITER = "max_iter"
    STAGNATION = "stagnation"
    NONFINITE = "nonfinite"
    ABOVE_BAND = "above_band"  # solve_pg_sf's band: the residual is certain to end above it
    BELOW_BAND = "below_band"  # solve_pg_sf's band: the residual is certain to end below it


def _check_count(name, value):
    """ValueError unless value is an integer (np.int64 too) of at least 1."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1")


@dataclass(frozen=True)
class SolverOptions:
    """Shared iteration controls.  Defaults follow the benchmark settings."""

    max_iter: int = 1500
    step_tol: float = 1e-5
    L: float = 1.0  # the step constant: every proximal-gradient step is 1 / L
    record_trace: bool = True

    def __post_init__(self):
        _check_count("max_iter", self.max_iter)
        if not 0 < self.step_tol < math.inf:
            raise ValueError("step_tol must be positive and finite")
        if not 0 < self.L < math.inf:
            raise ValueError("L must be positive and finite")
        if not 1.0 / float(self.L) < math.inf:  # the step 1 / L
            raise ValueError(f"L = {self.L!r} is too small: 1 / L overflows")


@dataclass(frozen=True)
class IterateRecord:
    k: int
    objective: float
    residual_norm: float
    step_norm: float
    rerror: Optional[float]
    elapsed_s: float


@dataclass(frozen=True)
class SolveResult:
    x_final: np.ndarray
    iterations: int
    termination: Termination
    trace: list
    residual_norm: float  # ||A x_final - y||
    # solve_pg_sf only: the largest ||u||_1 over the points u its steps
    # project.  At or below the radius, no projection moved its point.
    peak_l1: Optional[float] = None
    # solve_pg_sf with a band only: the last lower bound on ||As - y|| over
    # the ball that a step certified (0.0 before one does).
    residual_floor: Optional[float] = None
    # solve_pg_sf with a band, when it ended ABOVE_BAND or BELOW_BAND: the
    # bound that ended it, on the residual_norm of the solve run in full, and
    # whether that bound was the ball floor, which holds at this radius only.
    # A contraction bound reads nothing but the steps the solve took.
    stop_bound: Optional[float] = None
    stop_on_floor: bool = False


@dataclass(frozen=True)
class MdpOptions:
    """Outer bisection controls for the radius search (radii in squared units)."""

    r_min: float
    r_max: float
    tau1: float
    tau2: float
    delta: float
    max_outer: int = 40

    def __post_init__(self):
        if not 0 < self.r_min < self.r_max < math.inf:
            raise ValueError("need 0 < r_min < r_max < inf")
        if not 1 < self.tau1 <= self.tau2 < math.inf:
            raise ValueError("need 1 < tau1 <= tau2 < inf")
        if not 0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        _check_count("max_outer", self.max_outer)


@dataclass(frozen=True)
class MdpRecord:
    j: int
    radius_sq: float
    residual_norm: float
    rerror: Optional[float]


@dataclass(frozen=True)
class MdpResult:
    radius: RadiusSpec
    result: SolveResult
    bracketed: bool
    trace: list


@dataclass(frozen=True)
class AlphaSelection:
    alpha: float
    result: SolveResult  # the untraced solve at alpha
    bracketed: bool


def _rerror_fn(x_true):
    """x -> ||x - x_true|| / ||x_true||, or x -> None without a nonzero x_true."""
    x_true = None if x_true is None else np.asarray(x_true, dtype=float)
    norm = 0.0 if x_true is None else float(np.linalg.norm(x_true))
    if not norm:
        return lambda x: None
    return lambda x: float(np.linalg.norm(x - x_true)) / norm


def _norm(v):
    """np.linalg.norm(v) of a float vector: its formula, without its checks."""
    return math.sqrt(v.dot(v))


def fista_momentum_next(t):
    """Momentum update t -> (1 + sqrt(1 + 4 t^2)) / 2."""
    return 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))


def _iterate(A, ydelta, x0, step_fn, objective_fn, opts, x_true=None, momentum=False,
             stop=None):
    """Run x <- step_fn(z) from x0, with z = x, or with momentum FISTA's
    extrapolated point z = x + ((t_k - 1) / t_{k+1}) (x - x_prev) from the
    second step on (t_1 = 1, t_{k+1} = fista_momentum_next(t_k)).  The step
    norm is ||x_next - x||.  The residual r = Ax - y is formed for each traced
    record, which gets objective_fn(x, r) and ||r||, and once at the end for
    the result's residual_norm.  stop, if given, is called as
    stop(k, step_norm) after every finite step k, before the step norm's
    exits; a Termination it returns ends the solve."""
    x = np.array(x0, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    rerror = _rerror_fn(x_true)
    trace = []
    diff = np.empty_like(x)  # x_next - x, which is x - x_prev at the next step
    t_k = 1.0
    start = time.perf_counter()
    termination = Termination.MAX_ITER
    k = 0
    # A diverging solve overflows on its way to a non-finite step norm, which
    # ends it NONFINITE: numpy's warnings about that are off.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, opts.max_iter + 1):
            z = x
            if momentum and k > 1:
                t_next = fista_momentum_next(t_k)
                z = x + ((t_k - 1.0) / t_next) * diff
                t_k = t_next
            x_next = step_fn(z)
            step_norm = _norm(np.subtract(x_next, x, out=diff))
            x = x_next
            if opts.record_trace:
                r = A.apply(x) - ydelta
                trace.append(
                    IterateRecord(
                        k=k,
                        objective=objective_fn(x, r),
                        residual_norm=float(np.linalg.norm(r)),
                        step_norm=step_norm,
                        rerror=rerror(x),
                        elapsed_s=time.perf_counter() - start,
                    )
                )
            if not math.isfinite(step_norm):
                termination = Termination.NONFINITE
                break
            if stop is not None and (reason := stop(k, step_norm)) is not None:
                termination = reason
                break
            if step_norm == 0.0:
                termination = Termination.STAGNATION
                break
            if step_norm < opts.step_tol:
                termination = Termination.STEP_TOL
                break
        residual_norm = float(np.linalg.norm(A.apply(x) - ydelta))
    return SolveResult(x, k, termination, trace, residual_norm)


def solve_hv(A, ydelta, p: RegParams, opts: SolverOptions, x0, x_true=None):
    """Prox-gradient solve of 0.5||Ax-y||^2 + alpha||x||_1^2 - beta||x||_2^2.

    One step maps x to the squared-l1 prox (weight alpha / L) of
    x + (2 beta / L) x - (1 / L) A*(Ax - y), with L = opts.L.
    """
    alpha, beta = p.alpha, p.beta
    return _prox_gradient(A, ydelta, lambda u, t: prox_sq_l1(u, alpha * t),
                          lambda x, r: eval_J(A, ydelta, x, p, r), beta, opts, x0, x_true,
                          lift=lambda z, t: 2.0 * beta * t)


def solve_pg_sf(A, ydelta, beta, gamma, r: RadiusSpec, opts: SolverOptions, x0, x_true=None, *,
                band=None):
    """Projected-gradient solve of 0.5||Ax-y||^2 - beta||x||_2^2 over an l1 ball.

    One step projects u = (gamma x - A*(Ax - y)) / (gamma - 2 beta) onto the
    ball, a projected-gradient step of 1 / (gamma - 2 beta).  Requires gamma >
    2 beta.  _check_descent warns unless gamma - 2 beta > (||A*A|| - 2 beta) / 2,
    the descent lemma's bound, which is hv's.  The result's peak_l1 is the
    largest ||u||_1 of the solve.

    With band = (low, high), every _BOUND_EVERY-th step also bounds the
    residual, from the point it started from, the gradient it formed there
    and its step norm (_band_bounds): from below over the whole ball (the
    floor), and, where the step map contracts, from both sides over every
    iterate the solve can still reach (the range).  Once the residual of the
    solve's result is certain to lie above high, the solve ends ABOVE_BAND;
    below low, BELOW_BAND; even at a step whose step norm would end it.  The
    last floor is the result's residual_floor, and the bound that ended the
    solve its stop_bound; above the band, the range is tried before the
    floor.  The floor holds for every beta and gamma, the range wherever it
    is on, and neither changes an iterate.  A band needs 0 <= low <= high;
    high may be inf.
    """
    if band is not None and not 0.0 <= band[0] <= band[1]:
        raise ValueError(f"band must satisfy 0 <= low <= high, got {band!r}")
    denom = _pg_denominator(beta, gamma)
    grad = _gradient(A, ydelta)
    _check_descent(A, "gamma", gamma, beta)
    cut = 0.0  # a guess at the next projection's threshold, from below
    peak_l1 = 0.0
    if band is not None:
        low, high = band
        bounds = _band_bounds(A, ydelta, grad.aty, beta, gamma, r.radius_l1, x0, opts.max_iter)
    last = None  # the last step's point x and its gradient, in grad's array
    floor = 0.0  # the last ball floor
    ended = None, False  # the bound that ended the solve; whether it was the floor

    def step(x):
        # u and the projection are computed in place, with the operations of
        # project_l1_ball_sort((gamma * x - grad(x)) / denom, r)
        nonlocal cut, peak_l1, last
        g = grad(x)
        last = x, g
        u = gamma * x
        u -= g
        u /= denom
        value, threshold, l1 = _project_l1_ball(u, r.radius_l1, cut)
        cut = _CUT_FACTOR * threshold
        peak_l1 = max(peak_l1, l1)
        return value

    def stop(k, step_norm):
        nonlocal floor, ended
        if (k - 1) % _BOUND_EVERY:
            return None
        near, far, floor = bounds(k, *last, step_norm)
        if near > high:
            ended = near, False
            return Termination.ABOVE_BAND
        if floor > high:
            ended = floor, True
            return Termination.ABOVE_BAND
        if far < low:
            ended = far, False
            return Termination.BELOW_BAND
        return None

    result = _iterate(
        A, ydelta, x0, step, lambda x, resid: eval_D(A, ydelta, x, beta, resid), opts, x_true,
        stop=None if band is None else stop,
    )
    if band is None:
        return replace(result, peak_l1=peak_l1)
    return replace(result, peak_l1=peak_l1, residual_floor=floor,
                   stop_bound=ended[0], stop_on_floor=ended[1])


def _band_bounds(A, ydelta, aty, beta, gamma, radius, x0, max_iter):
    """bounds(k, x, g, s) -> (near, far, floor) for a solve_pg_sf run from x0
    on the ball ||v||_1 <= radius, at its step k: x = x_i, i = k - 1, the
    point the step started from, g = A*(Ax - y) and s the step norm
    ||x_k - x_i||.  floor is a lower bound on ||Av - y|| over every v in the
    ball, 0.0 where the bound says nothing.  (near, far) bound the computed
    residual norm ||Ax_J - y|| of every iterate x_J, i < J <= K = max_iter,
    where the range is on, and are (0.0, inf), with no work for them, where
    it is off: where A gives no exact smallest or largest eigenvalue of A*A,
    where the step map does not contract, or at a step k too early for the
    rounding margin.  The rise attribute is X -> G E + lambda_max E^2 / 2
    below, the most one computed step between points of norm at most X can
    raise D above its exact value, or None where the range is off.

    The floor, by weak duality of least squares over the ball (the Lasso
    dual of Fercoq, Gramfort & Salmon 2015; SPGL1's Pareto-curve dual, van
    den Berg & Friedlander 2008): for every w and every v in the ball,
        0.5||Av - y||^2 >= w.(Av - y) - 0.5||w||^2
                        >= -w.y - radius ||A*w||_inf - 0.5||w||^2.
    At w = t (Ax - y), t > 0, the right side is t h - 0.5 t^2 ||r||^2 with
    ||r||^2 = x.g - x.A*y + ||y||^2 and h = (||y||^2 - x.A*y) - radius ||g||_inf.
    At its best t = h / ||r||^2 it gives ||Av - y|| >= h / ||r|| when h > 0.

    The drift.  A step maps x to P(M x + A*y / d), with P the projection onto
    the ball, d = gamma - 2 beta and M = (gamma I - A*A) / d.  P is
    nonexpansive and ||M|| = q = max(gamma - lambda_min, lambda_max - gamma) / d,
    so where q < 1 (lambda_min > gamma - d = 2 beta and lambda_max < gamma + d)
    every step contracts distances by q.  Then ||x_{j+1} - x_j|| <= q^(j-i) s
    and ||x_J - x_i|| <= s (1 - q^(K-i)) / (1 - q) for every J <= K,
    whichever exit ends the solve.  On an A with m < n, lambda_min = 0 and
    q >= 1.  near, the low end: ||Ax_J - y|| is within ||A|| times that drift of
    ||Ax_i - y||.

    far, the high end, from the descent of D(x) = 0.5 ||Ax - y||^2 - beta ||x||^2.  The
    step x+ minimizes over the ball the d-strongly convex model
    D(x) + grad D(x).(z - x) + (d / 2) ||z - x||^2, so grad D(x).(x+ - x)
    <= -d ||x+ - x||^2, and D's curvature is at most lambda_max - 2 beta:
    D(x+) <= D(x) - (d - (lambda_max - 2 beta) / 2) ||x+ - x||^2.  q < 1
    gives lambda_max - gamma < d, hence d > (lambda_max - 2 beta) / 2, which
    is _check_descent's condition: wherever the range is on, D(x_J) <= D(x_i).
    With ||Ax - y||^2 = 2 D(x) + 2 beta ||x||^2 and ||x_J|| <= ||x_i|| + Delta,
    Delta the drift,
        ||Ax_J - y||^2 <= ||Ax_i - y||^2 + 2 beta Delta (2 ||x_i|| + Delta),
    which at beta = 0 says the residual cannot rise.  The range reads only
    step k's quantities and the radius-free drift, so it holds at every
    radius whose solve takes the same steps up to k: search_radius_mdp's
    reuse of an unprojected trial that the range stopped stays valid.

    The rounding margins, with u = eps / 2 and rel = 8 (m + n) u.
    * The floor.  X_1 = max(radius, ||x0||_1) bounds ||x||_1, since every
      iterate after x0 is a projection onto the ball.  With
      F = X_1 (||g||_inf + ||A*y||_inf) + ||y||^2, each rounding the floor
      meets moves h or ||r||^2 by at most (m + n) u F:
      - each of the dot products x.g, x.A*y and ||y||^2, a sum of at most
        m + n products whose magnitudes add up to at most X_1 ||g||_inf,
        X_1 ||A*y||_inf and ||y||^2;
      - the product radius ||g||_inf, and the sums of the identity;
      - the rounding of g and of A*y (one apply each) seen through x or the
        radius, taking each to be within (m + n) u (||g||_inf + ||A*y||_inf)
        per entry, which holds when an apply's products do not cancel
        heavily;
      - a projection's l1 norm, which may exceed the radius by rounding.
      h and ||r||^2 each meet at most eight of these, so err = rel F covers
      them, and rr = ||r||^2 + err, rounded up, gives rr - 2 err <=
      ||Ax - y||^2 <= rr.  The floor is (h - err) / sqrt(rr), and the factor
      1 - rel covers the rounding of the norm ||Av - y|| it is compared with.
    * The spectrum.  Both ends are widened by e = (m + n)^2 u lambda_max, and
      q and ||A|| = sqrt(lambda_max) are taken at the widened ends, q rounded
      up by the factor 1 + rel.  e covers eigvalsh, whose eigenvalues are
      those of a matrix within a modest multiple of k u ||G|| of the Gram
      matrix G it is given (k <= min(m, n) its order), and the rounding in
      forming G and the normal operator the step applies, each within
      m n u ||A*A||, since || |E| ||^2 <= min(m, n) ||E||^2.
    * A step.  At the same point x_j, the computed step is within
      E = a X + b of the map's exact value, with a = rel (gamma + lambda_max) / d,
      b = rel ||A*y|| / d and X >= ||x_j||: the normal apply within
      (m + n) u lambda_max X (its products taken not to cancel heavily, as
      the floor takes them; a blur's are all nonnegative), A*y within
      (m + n) u ||A*y|| on the same terms, the four flops of u within 4 u of
      the scale of u, and the projection within (2n + 1) u ||u||: its
      threshold, a cumsum of rho entries of |u| over rho, is within
      2 u ||u||_1 <= 2 sqrt(n) u ||u||, and it moves at most n entries by
      that.  These sum to less than rel (gamma X + lambda_max X + ||A*y||) / d.
    * The accumulation.  The computed steps then obey d_{j+1} <= q d_j + 2E,
      so with S = s (1 + rel) (1 - q^(K-i)) / (1 - q), covering the rounding
      of s, and C = 2 (K - i) / (1 - q), ||x_J - x_i|| <= Delta = S + C E.
      Every x_j, j >= i, has ||x_j|| <= X = ||x_i|| + Delta, so E = a X + b
      gives Delta = (S + C (a ||x_i|| + b)) / (1 - C a), where C a < 1; at a
      step where it is not, the range is off.
    * The descent.  A computed step lands within E of the exact one, so it
      raises D above the exact step's value by at most G E + lambda_max E^2 / 2,
      with G = (lambda_max + 2 beta) X + ||A*y|| (1 + rel) >= ||grad D|| at
      the computed point (||A*y|| read from the rounded one) and lambda_max
      >= ||A*A - 2 beta I||.  Over at most K - i steps D(x_J) <= D(x_i) +
      (K - i) (G E + lambda_max E^2 / 2), which adds twice that to the
      squared far end.
    * The residual.  ||Ax_i - y|| lies in [sqrt(rr - 2 err), sqrt(rr)]; the
      computed norm of x_J's residual is within rel (||A|| X + ||y||) of the
      exact one (one apply and one norm), and the factors 1 -+ rel cover the
      rest: the flops here, the norm's relative rounding and that of ||x_i||.
    """
    ydelta = np.asarray(ydelta, dtype=float)
    yy = float(ydelta.dot(ydelta))
    m, n = A.range_dim, A.domain_dim
    u = 0.5 * float(np.finfo(float).eps)
    rel = 8.0 * (m + n) * u
    x_scale = max(radius, float(np.sum(np.abs(x0))))  # X_1
    data_scale = x_scale * float(np.max(np.abs(aty), initial=0.0)) + yy  # F less X_1 ||g||_inf
    rise = None
    if A.normal_spectrum is not None:
        lam_min, lam_max = A.normal_spectrum
        widen = (m + n) ** 2 * u * lam_max
        lam_min, lam_max = lam_min - widen, lam_max + widen
        denom = gamma - 2.0 * beta
        q = max(gamma - lam_min, lam_max - gamma) / denom * (1.0 + rel)
        if q < 1.0:
            norm_a, y_norm = math.sqrt(lam_max), math.sqrt(yy)
            aty_norm = _norm(aty)
            a = rel * (gamma + lam_max) / denom
            b = rel * aty_norm / denom
            grad_a, grad_b = lam_max + 2.0 * beta, aty_norm * (1.0 + rel)  # G = grad_a X + grad_b

            def rise(x_far):  # G E + lambda_max E^2 / 2 at X = x_far
                e = a * x_far + b
                return e * (grad_a * x_far + grad_b + 0.5 * lam_max * e)

    def bounds(k, x, g, s):  # in Python floats: cheaper than numpy scalars
        g_inf = max(float(g.max()), -float(g.min()))
        xa = float(x.dot(aty))
        err = rel * (x_scale * g_inf + data_scale)
        h = (yy - xa) - radius * g_inf - err
        rr = float(x.dot(g)) - xa + yy + err
        floor = (1.0 - rel) * h / math.sqrt(rr) if h > 0.0 and rr > 0.0 else 0.0
        if rise is None:
            return 0.0, math.inf, floor
        left = max_iter - k + 1  # K - i
        c = 2.0 * left / (1.0 - q)
        if not c * a < 1.0:
            return 0.0, math.inf, floor
        x_norm = _norm(x) * (1.0 + rel)
        span = s * (1.0 + rel) * (1.0 - q**left) / (1.0 - q)
        drift = (span + c * (a * x_norm + b)) / (1.0 - c * a)  # Delta
        x_far = x_norm + drift  # X
        far_sq = rr + 2.0 * beta * drift * (x_norm + x_far) + 2.0 * left * rise(x_far)
        rounding = rel * (norm_a * x_far + y_norm)
        near = (math.sqrt(max(rr - 2.0 * err, 0.0)) - (norm_a * drift + rounding)) * (1.0 - rel)
        return max(near, 0.0), (math.sqrt(far_sq) + rounding) * (1.0 + rel), floor

    bounds.rise = rise
    return bounds


def _pg_denominator(beta, gamma):
    """gamma - 2 beta, the pg step's divisor; ValueError unless beta >= 0 and
    a finite gamma > 2 beta."""
    if not 2.0 * beta < gamma < math.inf:
        raise ValueError("gamma must be finite and exceed 2 * beta")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    return gamma - 2.0 * beta


def _bisect(trial, small, large, band, steps, midpoint):
    """(p, solve, bracketed) of at most steps trials (residual, solve) =
    trial(p) at p = midpoint(small, large).

    A residual in band = (low, high) ends the loop; one below low moves small
    to p and any other moves large, so small is the small-residual end on
    either side of large.  The last trial is returned if none lands."""
    low, high = band
    for _ in range(steps):
        p = midpoint(small, large)
        residual, solve = trial(p)
        if low <= residual <= high:
            return p, solve, True
        if residual < low:
            small = p
        else:
            large = p
    return p, solve, False


def search_radius_mdp(
    A, ydelta, beta, gamma, mdp: MdpOptions, opts: SolverOptions, x0, x_true=None
):
    """Bisection on the squared l1-ball radius until the residual obeys the
    discrepancy band [tau1 * delta, tau2 * delta].

    Each trial radius runs a fresh untraced solve_pg_sf from x0 and adds one
    MdpRecord to the trace.  The residual is a decreasing function of the
    radius, so _bisect gets r_max as its small-residual end and splits the
    bracket at the linear midpoint.  The result holds the untraced solve of
    the trial the search landed on, or of the last trial, with
    bracketed=False, if max_outer trials never land in the band.

    A trial runs with the band.  One that stops, ABOVE_BAND or BELOW_BAND,
    has certified which side of the band its full solve's residual lies on,
    which is all the bisection reads from it: its record holds the bound that
    stopped it, its stop_bound, as residual_norm and None as rerror.  Every
    other record,
    and every decision, is the full solve's.  If the search ends on a
    stopped trial, it runs that trial in full for the result.

    A solve that never projected (its peak_l1 is at most its radius) follows
    the radius-free trajectory, and so does the solve at any radius at or
    above its peak_l1: every projection there returns its input.  Such trials
    reuse the first unprojected solve's result instead of solving again.  A
    solve that a contraction bound stopped is reused too, with its record's
    bound: its steps so far are those of every such radius, and the bound
    reads nothing else.  One that its ball floor stopped is not: its peak_l1
    covers only the steps it ran, and a larger ball has a lower floor.
    """
    opts = replace(opts, record_trace=False)
    trace = []
    rerror = _rerror_fn(x_true)
    band = (mdp.tau1 * mdp.delta, mdp.tau2 * mdp.delta)
    unprojected = None  # the first trial that never projected

    def trial(r_sq):
        nonlocal unprojected
        radius = RadiusSpec.from_sq(r_sq)
        if unprojected is not None and radius.radius_l1 >= unprojected.peak_l1:
            result = unprojected
        else:
            result = solve_pg_sf(A, ydelta, beta, gamma, radius, opts, x0, x_true, band=band)
        if (unprojected is None and result.peak_l1 <= radius.radius_l1
                and not result.stop_on_floor):
            unprojected = result
        if result.stop_bound is not None:
            trace.append(MdpRecord(len(trace) + 1, r_sq, result.stop_bound, None))
            return result.stop_bound, result
        trace.append(MdpRecord(len(trace) + 1, r_sq, result.residual_norm, rerror(result.x_final)))
        return result.residual_norm, result

    r_sq, result, bracketed = _bisect(
        trial, mdp.r_max, mdp.r_min, band, mdp.max_outer, lambda a, b: 0.5 * (a + b)
    )
    radius = RadiusSpec.from_sq(r_sq)
    if result.stop_bound is not None:
        result = solve_pg_sf(A, ydelta, beta, gamma, radius, opts, x0)
    return MdpResult(radius, result, bracketed, trace)


# select_alpha_discrepancy's policy: the bracket of alpha, the most midpoints
# it bisects at, and the band [delta, ALPHA_BAND * delta] it aims for
ALPHA_BRACKET = (1e-8, 1e-1)
ALPHA_MIDPOINTS = 61
ALPHA_BAND = 1.05


def select_alpha_discrepancy(A, ydelta, delta, eta, solver, opts: SolverOptions, x0):
    """Pick alpha in ALPHA_BRACKET so the solve residual lands in
    [delta, ALPHA_BAND * delta].

    The residual grows with alpha, so a log-scale bisection of up to
    ALPHA_MIDPOINTS midpoints applies.  If even the bracket endpoints cannot
    reach the band (residual above it at the low end, or below it at the high
    end) the nearer endpoint is returned with bracketed=False.  The result
    holds the untraced solve at the returned alpha.  solver is a key of
    PENALIZED; any other raises ValueError, as does a delta that is not
    positive and finite.
    """
    if not 0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    if solver not in PENALIZED:
        raise ValueError(f"unknown solver {solver!r}")
    opts = replace(opts, record_trace=False)
    lo, hi = ALPHA_BRACKET
    top = ALPHA_BAND * delta

    def trial(alpha):
        result = PENALIZED[solver](A, ydelta, alpha, eta, opts, x0)
        return result.residual_norm, result

    res_lo, low = trial(lo)
    if res_lo > top:
        return AlphaSelection(lo, low, False)
    if res_lo >= delta:
        return AlphaSelection(lo, low, True)
    res_hi, high = trial(hi)
    if res_hi < delta:
        return AlphaSelection(hi, high, False)
    if res_hi <= top:
        return AlphaSelection(hi, high, True)

    return AlphaSelection(*_bisect(
        trial, lo, hi, (delta, top), ALPHA_MIDPOINTS, lambda a, b: float(np.sqrt(a * b))
    ))


def solve_ista(A, ydelta, alpha, opts: SolverOptions, x0, x_true=None):
    """Iterative soft thresholding for 0.5||Ax-y||^2 + alpha ||x||_1."""
    return _prox_gradient(A, ydelta, *_l1_terms(alpha), 0.0, opts, x0, x_true)


def solve_fista(A, ydelta, alpha, opts: SolverOptions, x0, x_true=None):
    """ISTA's step taken from FISTA's extrapolated point, which the engine forms."""
    return _prox_gradient(A, ydelta, *_l1_terms(alpha), 0.0, opts, x0, x_true, momentum=True)


def solve_st_l1_l2(A, ydelta, alpha, beta, opts: SolverOptions, x0, x_true=None):
    """Soft-threshold iteration for 0.5||Ax-y||^2 + alpha||x||_1 - beta||x||_2.

    The l2 term enters through x / ||x||_2, so the iterate norm is floored at
    1e-12 to keep the step defined; beta = 0 reduces the step to ISTA's.
    """
    RegParams(alpha, beta)  # checks 0 < alpha < inf and 0 <= beta <= alpha
    shrink, l1_objective = _l1_terms(alpha)
    return _prox_gradient(A, ydelta, shrink,
                          lambda x, r: l1_objective(x, r) - beta * float(np.linalg.norm(x)),
                          0.0, opts, x0, x_true,
                          lift=lambda z, t: beta * t / max(float(np.linalg.norm(z)), 1e-12))


def solve_ht_half(A, ydelta, lam, opts: SolverOptions, x0, x_true=None):
    """Iterative half thresholding for 0.5||Ax-y||^2 + lam * sum_i |x_i|^(1/2)."""
    if not 0 < lam < math.inf:
        raise ValueError("lam must be positive and finite")
    return _prox_gradient(A, ydelta, lambda u, t: half_threshold(u, lam, t),
                          lambda x, r: 0.5 * float(r @ r) + lam * float(np.sum(np.sqrt(np.abs(x)))),
                          0.0, opts, x0, x_true)


def _l1_terms(alpha):
    """(shrink, objective) of alpha ||x||_1 for _prox_gradient; 0 < alpha < inf."""
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    return (lambda u, t: soft_threshold(u, alpha * t),
            lambda x, r: 0.5 * float(r @ r) + alpha * float(np.sum(np.abs(x))))


def _prox_gradient(A, ydelta, shrink, objective, beta, opts, x0, x_true, lift=None, momentum=False):
    """Body of solve_hv and the four baselines above, so no public solver
    calls another.

    A step is x <- shrink(w - t A*(Az - y), t), t = 1 / opts.L, from the
    engine's point z, with w = z + lift(z, t) z, the gradient step on the
    penalty's concave part, or w = z without a lift.  _check_descent gets
    beta: hv's, or 0 (st's -beta ||x||_2 adds no upward curvature).  A
    record's objective is objective(x, r).  The callers' shrinks and
    objectives look their prox, thresholds and eval_J up in this module when
    called, so a patched one is used.
    """
    grad = _gradient(A, ydelta)
    _check_descent(A, "L", opts.L, beta)
    t = 1.0 / opts.L

    def step(z):
        # a zero lift and t = 1 are skipped: for a finite z the bits are the same
        c = 0.0 if lift is None else lift(z, t)
        w = z + c * z if c else z
        g = grad(z)
        return shrink(w - (g if t == 1.0 else t * g), t)

    return _iterate(A, ydelta, x0, step, objective, opts, x_true, momentum)


def _check_descent(A, name, value, beta):
    """Warn, and go on, when the step constant name = value is at or below
    0.5 ||A*A|| + beta, half hv's smoothness bound ||A*A|| + 2 beta."""
    bound = 0.5 * A.opnorm_sq + beta
    if value <= bound:
        warnings.warn(f"{name}={value:g} is not above half the smoothness bound ({bound:g}); "
                      "descent is not guaranteed", RuntimeWarning, stacklevel=3)


# Penalized solvers by kind, each called as (A, ydelta, alpha, eta, opts, x0[, x_true]).
# The one place where alpha and eta = beta / alpha become a solver's weights; the
# rest passes through.  An entry looks its solver up when called, so a patched
# module attribute is used.
PENALIZED = {
    "hv": lambda A, y, alpha, eta, *rest: solve_hv(A, y, RegParams(alpha, eta * alpha), *rest),
    "ista": lambda A, y, alpha, eta, *rest: solve_ista(A, y, alpha, *rest),
    "fista": lambda A, y, alpha, eta, *rest: solve_fista(A, y, alpha, *rest),
    "st": lambda A, y, alpha, eta, *rest: solve_st_l1_l2(A, y, alpha, eta * alpha, *rest),
}
