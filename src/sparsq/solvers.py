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
pass stop_above = tau2 * delta to solve_pg_sf, which ends a solve once a
Lasso dual bound, formed every _BOUND_EVERY steps from the step's gradient,
puts the residual of every point of the ball above that level; such a trial
turns the bisection as its full solve would.  The alpha
search solves both bracket ends before it bisects.  The remaining solvers
(ISTA, FISTA, a soft-threshold l1-minus-l2 iteration, and iterative half
thresholding) are comparison baselines.  They and solve_hv run one
proximal-gradient body, _prox_gradient: a gradient step on the penalty's
concave part where it has one, a gradient step on the data term, then the
prox of the rest of the penalty.  FISTA is ISTA's step taken from an
extrapolated point, which the iteration engine _iterate forms.  solve_pg_sf
keeps its own step, which works in place and warm-starts its projection.

Every solver is deterministic given its inputs, stops when the step norm
falls below opts.step_tol, is exactly 0 (stagnation), turns non-finite, or
hits the iteration cap (solve_pg_sf also when its residual floor passes
stop_above), and can record a per-iteration trace.  The gradient
step uses the descent sign x - t * A*(Ax - y) throughout, with the gradient
formed as N x - A*y from the operator's normal operator N = A*A: one
operator call per iteration.  The engine forms the residual Ax - y only for
a traced record and once at the end, for SolveResult.residual_norm.  The
gradient and the step x_next - x are written into arrays made once per
solve, never into a result.
"""

import math
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
# solve_pg_sf with stop_above bounds the residual at steps 1, 1 + _BOUND_EVERY,
# 1 + 2 _BOUND_EVERY, ...  A bound costs two dot products, a max and a min.
_BOUND_EVERY = 8


class Termination(str, Enum):
    STEP_TOL = "step_tol"
    MAX_ITER = "max_iter"
    STAGNATION = "stagnation"
    NONFINITE = "nonfinite"
    ABOVE_BAND = "above_band"  # solve_pg_sf's stop_above: a residual floor passed it


@dataclass(frozen=True)
class SolverOptions:
    """Shared iteration controls.  Defaults follow the benchmark settings."""

    max_iter: int = 1500
    step_tol: float = 1e-5
    L_k: float = 1.0
    lambda_st: float = 1.0
    record_trace: bool = True

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0 < self.step_tol < math.inf:
            raise ValueError("step_tol must be positive and finite")
        for name in ("L_k", "lambda_st"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite")
            if not 1.0 / float(value) < math.inf:  # the step 1 / value
                raise ValueError(f"{name} = {value!r} is too small: 1 / {name} overflows")


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
    # solve_pg_sf with stop_above only: the last lower bound on ||As - y|| over
    # the ball that a step certified (0.0 before one does).  It exceeds
    # stop_above exactly when the solve ends ABOVE_BAND.
    residual_floor: Optional[float] = None


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
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")


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
    the result's residual_norm.  stop, if given, is called after every finite
    step, before the step norm's exits; a Termination it returns ends the solve."""
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
            if stop is not None and (reason := stop()) is not None:
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

    One step maps x to the squared-l1 prox (weight alpha/L_k) of
    x + (2 beta / L_k) x - (1/L_k) A*(Ax - y).  A step constant L_k at or below
    half the gradient Lipschitz bound forfeits the descent guarantee; that
    case is reported as a warning, not an error.
    """
    alpha, beta = p.alpha, p.beta
    lk = opts.L_k
    r_hat = A.opnorm_sq
    if lk <= 0.5 * r_hat + beta:
        warnings.warn(
            f"L_k={lk:g} is not above half the smoothness bound "
            f"({0.5 * (r_hat + 2 * beta):g}); descent is not guaranteed",
            RuntimeWarning,
            stacklevel=2,
        )
    return _prox_gradient(A, ydelta, lambda u, t: prox_sq_l1(u, alpha * t),
                          lambda x, r: eval_J(A, ydelta, x, p, r), 1.0 / lk, opts, x0, x_true,
                          lift=lambda z, t: 2.0 * beta * t)


def solve_pg_sf(A, ydelta, beta, gamma, r: RadiusSpec, opts: SolverOptions, x0, x_true=None, *,
                stop_above=None):
    """Projected-gradient solve of 0.5||Ax-y||^2 - beta||x||_2^2 over an l1 ball.

    One step projects u = (gamma x - A*(Ax - y)) / (gamma - 2 beta) onto the
    ball.  Requires gamma > 2 * beta.  The result's peak_l1 is the largest
    ||u||_1 of the solve.

    With stop_above, every _BOUND_EVERY-th step also bounds ||As - y|| from
    below over the whole ball (_residual_floor), from the gradient it forms.
    Once that floor exceeds stop_above, the solve ends ABOVE_BAND, even at a
    step whose step norm would end it: every point of the ball, the one a
    full solve would return included, has a larger residual.  The floor is
    the result's residual_floor.  The bound holds for every beta and gamma,
    and it changes no iterate.
    """
    denom = _pg_denominator(beta, gamma)
    grad = _gradient(A, ydelta)
    cut = 0.0  # a guess at the next projection's threshold, from below
    peak_l1 = 0.0
    floor_at = None
    if stop_above is not None:
        floor_at = _residual_floor(A, ydelta, grad.aty, r.radius_l1, x0)
    floor, steps = 0.0, 0  # the last residual floor; the steps taken

    def step(x):
        # u and the projection are computed in place, with the operations of
        # project_l1_ball_sort((gamma * x - grad(x)) / denom, r)
        nonlocal cut, peak_l1, floor, steps
        g = grad(x)
        if floor_at is not None and steps % _BOUND_EVERY == 0:
            floor = floor_at(x, g)
        steps += 1
        u = gamma * x
        u -= g
        u /= denom
        value, threshold, l1 = _project_l1_ball(u, r.radius_l1, cut)
        cut = _CUT_FACTOR * threshold
        peak_l1 = max(peak_l1, l1)
        return value

    def above():
        return Termination.ABOVE_BAND if floor > stop_above else None

    result = _iterate(
        A, ydelta, x0, step, lambda x, resid: eval_D(A, ydelta, x, beta, resid), opts, x_true,
        stop=None if floor_at is None else above,
    )
    return replace(result, peak_l1=peak_l1, residual_floor=None if floor_at is None else floor)


def _residual_floor(A, ydelta, aty, radius, x0):
    """(x, g) -> a lower bound on ||As - y|| over every s with ||s||_1 <= radius,
    from any x and g = A*(Ax - y); 0.0 where the bound says nothing.

    Weak duality of least squares over the ball (the Lasso dual of Fercoq,
    Gramfort & Salmon 2015; SPGL1's Pareto-curve dual, van den Berg &
    Friedlander 2008): for every w and every s in the ball,
        0.5||As - y||^2 >= w.(As - y) - 0.5||w||^2
                        >= -w.y - radius ||A*w||_inf - 0.5||w||^2.
    At w = t (Ax - y), t > 0, the right side is t b - 0.5 t^2 ||r||^2 with
    ||r||^2 = x.g - x.A*y + ||y||^2 and b = (||y||^2 - x.A*y) - radius ||g||_inf.
    At its best t = b / ||r||^2 it gives ||As - y|| >= b / ||r|| when b > 0.

    The rounding margin.  X = max(radius, ||x0||_1) bounds ||x||_1, since
    every iterate after x0 is a projection onto the ball.  With u = eps / 2
    and E = X (||g||_inf + ||A*y||_inf) + ||y||^2, each rounding the bound
    meets moves b or ||r||^2 by at most (m + n) u E:
    * each of the dot products x.g, x.A*y and ||y||^2, a sum of at most
      m + n products whose magnitudes add up to at most X ||g||_inf,
      X ||A*y||_inf and ||y||^2;
    * the product radius ||g||_inf, and the sums of the identity;
    * the rounding of g and of A*y (one apply each) seen through x or the
      radius, taking each to be within (m + n) u (||g||_inf + ||A*y||_inf)
      per entry, which holds when an apply's products do not cancel heavily;
    * a projection's l1 norm, which may exceed the radius by rounding.
    b and ||r||^2 each meet at most eight of these, so err = rel E with
    rel = 8 (m + n) u covers them.  The floor is (b - err) / sqrt(||r||^2 + err),
    and the factor 1 - rel covers the rounding of the norm ||As - y|| that
    it is compared with.
    """
    ydelta = np.asarray(ydelta, dtype=float)
    yy = float(ydelta.dot(ydelta))
    rel = 4.0 * (A.range_dim + A.domain_dim) * float(np.finfo(float).eps)  # 8 (m + n) u
    x_scale = max(radius, float(np.sum(np.abs(x0))))  # X
    data_scale = x_scale * float(np.max(np.abs(aty), initial=0.0)) + yy  # E less X ||g||_inf

    def floor_at(x, g):  # in Python floats: cheaper than numpy scalars
        g_inf = max(float(g.max()), -float(g.min()))
        xa = float(x.dot(aty))
        err = rel * (x_scale * g_inf + data_scale)
        b = (yy - xa) - radius * g_inf - err
        rr = float(x.dot(g)) - xa + yy + err
        if b > 0.0 and rr > 0.0:
            return (1.0 - rel) * b / math.sqrt(rr)
        return 0.0

    return floor_at


def _pg_denominator(beta, gamma):
    """gamma - 2 beta, the pg step's divisor; ValueError unless beta >= 0 and
    a finite gamma > 2 beta."""
    if not 2.0 * beta < gamma < math.inf:
        raise ValueError("gamma must be finite and exceed 2 * beta")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    return gamma - 2.0 * beta


def pg_fixed_point_defect(A, ydelta, beta, gamma, r, x):
    """||x - x_1|| for x_1 one solve_pg_sf step from x (stationarity check):
    the step norm solve_pg_sf reports at x."""
    x = np.asarray(x, dtype=float)
    step = solve_pg_sf(A, ydelta, beta, gamma, r, SolverOptions(max_iter=1, record_trace=False), x)
    return float(np.linalg.norm(x - step.x_final))


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

    A trial runs with stop_above = tau2 * delta.  One that stops (ABOVE_BAND)
    has certified that its full solve's residual lies above the band, which
    is all the bisection reads from it: its record holds that floor as
    residual_norm and None as rerror.  Every other record, and every
    decision, is the full solve's.  If the search ends on a stopped trial, it
    runs that trial in full for the result.

    A solve that never projected (its peak_l1 is at most its radius) follows
    the radius-free trajectory, and so does the solve at any radius at or
    above its peak_l1: every projection there returns its input.  Such trials
    reuse the first unprojected solve's result instead of solving again.  A
    stopped solve is never reused: its peak_l1 covers only the steps it ran.
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
            result = solve_pg_sf(
                A, ydelta, beta, gamma, radius, opts, x0, x_true, stop_above=band[1]
            )
            if result.termination is Termination.ABOVE_BAND:
                trace.append(MdpRecord(len(trace) + 1, r_sq, result.residual_floor, None))
                return result.residual_floor, result
            if unprojected is None and result.peak_l1 <= radius.radius_l1:
                unprojected = result
        trace.append(MdpRecord(len(trace) + 1, r_sq, result.residual_norm, rerror(result.x_final)))
        return result.residual_norm, result

    r_sq, result, bracketed = _bisect(
        trial, mdp.r_max, mdp.r_min, band, mdp.max_outer, lambda a, b: 0.5 * (a + b)
    )
    radius = RadiusSpec.from_sq(r_sq)
    if result.termination is Termination.ABOVE_BAND:
        result = solve_pg_sf(A, ydelta, beta, gamma, radius, opts, x0)
    return MdpResult(radius, result, bracketed, trace)


# select_alpha_discrepancy's default bracket of alpha
ALPHA_BRACKET = (1e-8, 1e-1)


def select_alpha_discrepancy(
    A,
    ydelta,
    delta,
    eta,
    solver="hv",
    opts: SolverOptions = SolverOptions(),
    alpha_bracket=ALPHA_BRACKET,
    max_steps=60,
    band=1.05,
    x0=None,
):
    """Pick alpha so the solve residual lands in [delta, band * delta].

    The residual grows with alpha, so a log-scale bisection of up to
    max_steps + 1 midpoints applies.  If even the bracket endpoints cannot
    reach the band (residual above it at the low end, or below it at the high
    end) the nearer endpoint is returned with bracketed=False.  The result
    holds the untraced solve at the returned alpha.  solver is a key of PENALIZED; any other raises
    ValueError, as do a delta, bracket or band that is not finite, a band
    below 1, which no residual can land in, and a negative max_steps.
    """
    if not 0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    lo, hi = alpha_bracket
    if not 0 < lo < hi < math.inf:
        raise ValueError("alpha_bracket must be positive, increasing and finite")
    if not 1 <= band < math.inf:
        raise ValueError("band must be finite and at least 1")
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    if x0 is None:
        x0 = np.full(A.domain_dim, 0.01)
    opts = replace(opts, record_trace=False)

    if solver not in PENALIZED:
        raise ValueError(f"unknown solver {solver!r}")

    def trial(alpha):
        result = PENALIZED[solver](A, ydelta, alpha, eta, opts, x0)
        return result.residual_norm, result

    res_lo, low = trial(lo)
    if res_lo > band * delta:
        return AlphaSelection(lo, low, False)
    if res_lo >= delta:
        return AlphaSelection(lo, low, True)
    res_hi, high = trial(hi)
    if res_hi < delta:
        return AlphaSelection(hi, high, False)
    if res_hi <= band * delta:
        return AlphaSelection(hi, high, True)

    return AlphaSelection(*_bisect(
        trial, lo, hi, (delta, band * delta), max_steps + 1, lambda a, b: float(np.sqrt(a * b))
    ))


def solve_ista(A, ydelta, alpha, opts: SolverOptions, x0, x_true=None):
    """Iterative soft thresholding for 0.5||Ax-y||^2 + alpha ||x||_1."""
    return _prox_gradient(A, ydelta, *_l1_terms(alpha), 1.0 / opts.lambda_st, opts, x0, x_true)


def solve_fista(A, ydelta, alpha, opts: SolverOptions, x0, x_true=None):
    """ISTA's step taken from FISTA's extrapolated point, which the engine forms."""
    return _prox_gradient(A, ydelta, *_l1_terms(alpha), 1.0 / opts.lambda_st, opts, x0, x_true,
                          momentum=True)


def solve_st_l1_l2(A, ydelta, alpha, beta, opts: SolverOptions, x0, x_true=None):
    """Soft-threshold iteration for 0.5||Ax-y||^2 + alpha||x||_1 - beta||x||_2.

    The l2 term enters through x / ||x||_2, so the iterate norm is floored at
    1e-12 to keep the step defined; beta = 0 reduces the step to ISTA's.
    """
    RegParams(alpha, beta)  # checks 0 < alpha < inf and 0 <= beta <= alpha
    shrink, l1_objective = _l1_terms(alpha)
    return _prox_gradient(A, ydelta, shrink,
                          lambda x, r: l1_objective(x, r) - beta * float(np.linalg.norm(x)),
                          1.0 / opts.lambda_st, opts, x0, x_true,
                          lift=lambda z, t: beta * t / max(float(np.linalg.norm(z)), 1e-12))


def solve_ht_half(A, ydelta, lam, opts: SolverOptions, x0, x_true=None):
    """Iterative half thresholding for 0.5||Ax-y||^2 + lam * sum_i |x_i|^(1/2)."""
    if not 0 < lam < math.inf:
        raise ValueError("lam must be positive and finite")
    return _prox_gradient(A, ydelta, lambda u, t: half_threshold(u, lam, t),
                          lambda x, r: 0.5 * float(r @ r) + lam * float(np.sum(np.sqrt(np.abs(x)))),
                          1.0 / opts.lambda_st, opts, x0, x_true)


def _l1_terms(alpha):
    """(shrink, objective) of alpha ||x||_1 for _prox_gradient; 0 < alpha < inf."""
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    return (lambda u, t: soft_threshold(u, alpha * t),
            lambda x, r: 0.5 * float(r @ r) + alpha * float(np.sum(np.abs(x))))


def _prox_gradient(A, ydelta, shrink, objective, t, opts, x0, x_true, lift=None, momentum=False):
    """Body of solve_hv and the four baselines above, so no public solver
    calls another.

    A step is x <- shrink(w - t A*(Az - y), t) from the engine's point z, with
    w = z + lift(z, t) z, the gradient step on the penalty's concave part, or
    w = z without a lift.  A record's objective is objective(x, r).  The
    callers' shrinks and objectives look their prox, thresholds and eval_J up
    in this module when called, so a patched one is used.
    """
    grad = _gradient(A, ydelta)

    def step(z):
        # a zero lift and t = 1 are skipped: for a finite z the bits are the same
        c = 0.0 if lift is None else lift(z, t)
        w = z + c * z if c else z
        g = grad(z)
        return shrink(w - (g if t == 1.0 else t * g), t)

    return _iterate(A, ydelta, x0, step, objective, opts, x_true, momentum)


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
