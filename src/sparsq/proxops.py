"""Thresholding, proximal, and projection operators.

The central primitive is the proximal operator of alpha * ||.||_1^2, which
returns only its value: soft thresholding of x at tau = 2 alpha ||prox||_1.
tau is found exactly in O(n log n) by sorting |x|, the same
sort-and-threshold step as the exact l1-ball projection; both call one
private kernel.  psi below is the optimality condition in the paper's
variable mu = tau^2 / (4 alpha): its root is alpha ||prox||_1^2.

Two l1-ball projections are provided.  The sort-based one is the exact
O(n log n) method and is used on solver hot paths; the prox-based one finds
the alpha at which the prox output has the requested l1 norm by exact Newton
steps, at most nnz(x) + 1 prox calls and no tolerance, and exists as an
independent cross-check of the first.  The solvers call
the sort-based one through its private body, which also returns the threshold
and ||x||_1 and takes a guess at the threshold (a cut) that narrows the sort:
an iterate's threshold moves little from one step to the next.  The guess
only changes the work, never the bits of the result.

Its callers sort the survivors; per call the kernel builds their cumulative
sum, one product and one comparison.  The projection's ranks 1..n are a view
of one cached read-only vector, the prox's ranks shifted by 1 / (2 alpha) come
from a one-entry cache (a solve's prox calls share n and alpha), and rho, the
last index where the comparison holds, comes from an argmax over the reversed
comparison, so no index array is built.  Below the prefilter's size the prox
skips the l1 sum wherever n max|x| bounds it far from overflow.  On a radius
search's large-support projections (5,000 to 13,000 of 15,625 entries
survive) the sort and the cumulative sum, whose order fixes the bits, take
most of the time.
"""

import math
from dataclasses import dataclass

import numpy as np

_TINY = np.finfo(float).tiny  # the smallest positive normal float
# Below this size a full sort is as fast as the prefilter plus a sort of the
# survivors (measured on l1-ball projections of deblurring iterates, n = 128
# to 15625, one BLAS thread: even at 512, 19% faster at 1024, 47% at 15625).
_PREFILTER_MIN_SIZE = 512
# Rounding margin of the prefilter, relative to |sum| + |offset|: it covers the
# error of a sum over the entries and of one candidate t_k.
_MARGIN_EPS = 64 * np.finfo(float).eps
# prox_sq_l1 skips the l1 sum's overflow check while max|x| n (1 + ridge) is below this.
_SUM_BOUND = 2.0**1000


@dataclass(frozen=True)
class RadiusSpec:
    """l1-ball radius.  radius_sq is the squared value used in reports."""

    radius_l1: float

    def __post_init__(self):
        if not self.radius_l1 > 0:
            raise ValueError("radius_l1 must be positive")

    @property
    def radius_sq(self):
        return self.radius_l1 * self.radius_l1

    @classmethod
    def from_sq(cls, radius_sq):
        if not radius_sq > 0:
            raise ValueError("radius_sq must be positive")
        return cls(float(np.sqrt(radius_sq)))


def _vector(x):
    """x as a float vector; ValueError that names the shape otherwise."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"x must be a vector, not an array of shape {x.shape}")
    return x


def _shrink(absx, t, x):
    """copysign(max(absx - t, 0), x), written over absx (|x|, or a multiple
    of it): the one shrink of the soft threshold, the prox and the projection."""
    absx -= t
    np.maximum(absx, 0.0, out=absx)
    return np.copysign(absx, x, out=absx)


def soft_threshold(x, t):
    """Entrywise sign(x) * max(|x| - t, 0)."""
    if not t >= 0:
        raise ValueError("threshold must be nonnegative")
    x = np.asarray(x, dtype=float)
    return _shrink(np.abs(x, out=np.empty_like(x)), t, x)  # an array even for a 0-d x


def half_threshold(x, lam, step):
    """Entrywise proximal map of (lam * step) * |u|^(1/2) for the 0.5*(u-a)^2 fit.

    Entries at or below the jump threshold 1.5 * (lam*step)^(2/3) map to zero;
    above it the minimizer has the closed trigonometric form below (largest
    root of the depressed cubic in sqrt(u)).  A NaN entry maps to NaN.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    if not step > 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    t = lam * step
    thresh = 1.5 * t ** (2.0 / 3.0)
    out = np.zeros_like(x)
    mask = ~(np.abs(x) <= thresh)  # a NaN entry is kept, so it stays NaN
    if np.any(mask):
        a = x[mask]
        arg = (t * 3.0**1.5 / 4.0) * np.abs(a) ** -1.5
        arg = np.minimum(arg, 1.0)
        out[mask] = (2.0 / 3.0) * a * (1.0 + np.cos((2.0 / 3.0) * np.arccos(-arg)))
    return out


def psi(mu, x, alpha):
    """sum_i [sqrt(alpha)|x_i|/sqrt(mu) - 2 alpha]_+ - 1, nonincreasing in mu.

    This is the optimality condition of the prox of alpha * ||.||_1^2: for
    x != 0 its root is alpha * ||prox_sq_l1(x, alpha)||_1^2.
    """
    if not mu > 0:
        raise ValueError("mu must be positive")
    x = np.asarray(x, dtype=float)
    brackets = np.sqrt(alpha) * np.abs(x) / np.sqrt(mu) - 2.0 * alpha
    return float(np.sum(np.maximum(brackets, 0.0))) - 1.0


def _sort_threshold(absx, offset, ridge, total, cut=None):
    """Threshold of the sort-and-shift step shared by the prox and the projection.

    With u = |x| sorted in descending order and partial sums S_k = u_1 + ... + u_k,
    the candidates are t_k = (S_k - offset) / (k + ridge), and the threshold is
    t_rho for the last rho with u_rho > t_rho.  offset = r, ridge = 0 gives the
    shift of the projection onto the l1 ball of radius r (Condat 2016);
    offset = 0, ridge = 1 / (2 alpha) gives the soft threshold of the prox of
    alpha * ||.||_1^2 (Kowalski 2009).  rho = 1 qualifies whenever ||x||_1 > r
    (projection) or x != 0 (prox), which the callers ensure.

    total is sum(absx).  From _PREFILTER_MIN_SIZE entries on, only a leading
    part of the sorted array is formed, so the partial sums, rho and the
    threshold are the same bits as with a full sort, provided no support entry
    is left out:

    * cut, when given, is a guess at a lower bound of the threshold.  The
      entries above it are sorted, and their threshold t is kept if it
      exceeds cut by more than a margin for rounding.  Then, for every k past
      the sorted part, u_k (k + ridge) > S_k - offset fails by at least
      t - cut, so no entry at or below cut is in the support.  The threshold
      of any subset of the entries bounds the full one from below (Michelot
      1986), so a cut just below the last threshold of a slowly moving
      iterate usually holds.
    * Otherwise t_n = (total - offset) / (n + ridge), the last candidate,
      bounds the threshold from below, and the entries above t_n less the
      margin are sorted.
    """
    if absx.size >= _PREFILTER_MIN_SIZE:
        margin = _MARGIN_EPS * (abs(total) + abs(offset)) + _TINY
        if cut is not None:
            top = absx.compress(absx > cut)
            if top.size:
                threshold = _sorted_threshold(np.sort(top)[::-1], offset, ridge)
                if threshold > cut + margin:
                    return threshold
        absx = absx.compress(absx > (total - offset) / (absx.size + ridge) - margin)
    return _sorted_threshold(np.sort(absx)[::-1], offset, ridge)


def _sorted_threshold(u, offset, ridge):
    """t_rho over all of u (nonempty, sorted in descending order), by one cumsum."""
    n = u.size
    partial = u.cumsum()  # the method: np.cumsum's wrapper costs 1-2 us a call
    if offset:
        partial -= offset
    k = _ranks(n) if ridge == 0.0 else _shifted_ranks(n, ridge)
    above = u * k > partial
    # Exact for rho = 1, but lost in rounding when offset or ridge * u_1 is
    # below the precision of u_1.
    above[0] = True
    rho = n - 1 - above[::-1].argmax()  # the last True
    return partial[rho] / k[rho]


_rank_cache = np.arange(1.0, 1.0)


def _ranks(n):
    """The ranks 1.0, ..., n, read-only: a view of one cached vector that is
    rebuilt only when a larger n is asked for, so most calls build none."""
    global _rank_cache
    ranks = _rank_cache  # read once: another thread's rebuild cannot shorten it
    if ranks.size < n:
        ranks = np.arange(1.0, n + 1.0)
        ranks.flags.writeable = False
        _rank_cache = ranks
    return ranks[:n]


_shifted_cache = (0, 0.0, _rank_cache)


def _shifted_ranks(n, ridge):
    """_ranks(n) + ridge, read-only, from a one-entry cache keyed on (n, ridge):
    the prox calls of one solve share both."""
    global _shifted_cache
    cached_n, cached_ridge, k = _shifted_cache  # read once, as in _ranks
    if cached_n != n or cached_ridge != ridge:
        k = _ranks(n) + ridge
        k.flags.writeable = False
        _shifted_cache = (n, ridge, k)
    return k


def _l1(absx):
    """sum(absx), inf when it overflows.  np.einsum, unlike np.sum, emits no
    overflow warning, so the callers' fallbacks run under warnings-as-errors."""
    return float(np.einsum("i->", absx.ravel()))


def prox_sq_l1(x, alpha):
    """Proximal operator of alpha * ||.||_1^2, i.e. argmin 0.5||u - x||^2 + alpha ||u||_1^2.

    For x = 0 the prox is 0.  Otherwise it is soft thresholding at
    tau = 2 alpha S_rho / (1 + 2 alpha rho), where S_rho is the sum of the rho
    largest |x_i| and rho is the last index at which the sorted magnitude
    exceeds that ratio.  Raises ValueError if alpha is not positive and
    finite, or x is not a vector or has a NaN or infinite entry.
    """
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    ridge = 0.5 / float(alpha)
    if not math.isfinite(ridge):
        raise ValueError(f"alpha = {alpha!r} is too small: 0.5 / alpha overflows")
    x = _vector(x)
    absx = np.abs(x)
    n = absx.size
    u = np.sort(absx)[::-1] if 0 < n < _PREFILTER_MIN_SIZE else None
    # On a huge finite x the l1 sum or the kernel's u_k (k + ridge), which
    # l1 (1 + ridge) bounds, overflows.  Since l1 <= n max|x|, neither can when
    # the product below (in Python floats: no warning) is under 2**1000, and
    # the l1 sum is not needed.
    if u is not None and float(u[0]) * n * (1.0 + ridge) < _SUM_BOUND:
        nonzero = u[0] > 0.0
        tau = _sorted_threshold(u, 0.0, ridge) if nonzero else 0.0
    else:
        l1 = _l1(absx)
        nonzero = l1 != 0.0
        summable = nonzero and math.isfinite(l1 * (1.0 + ridge))
        tau = _sort_threshold(absx, 0.0, ridge, l1) if summable else 0.0
    if not nonzero:
        return np.zeros_like(x)

    # tau is subnormal or 0 on tiny x, where |x| / tau loses precision, or 0
    # where the sum overflowed; the prox is positively homogeneous, so in
    # these cases redo the step on x / max|x|
    scale = 1.0
    if not tau >= _TINY:
        if not np.all(np.isfinite(absx)):
            raise ValueError("x must be finite")
        scale = float(np.max(absx))
        absx = absx / scale
        tau = _sort_threshold(absx, 0.0, ridge, _l1(absx))
    value = _shrink(absx, tau, x)
    if scale != 1.0:
        value *= scale
    return value


def project_l1_ball_sort(x, r):
    """Euclidean projection onto {u : ||u||_1 <= r.radius_l1} by sort and shift.

    Raises ValueError if x is not a vector or has a NaN or infinite entry.
    """
    x = _vector(x)
    value = _project_l1_ball(x, r.radius_l1)[0]
    return x.copy() if value is x else value


def _project_l1_ball(x, radius, cut=None):
    """project_l1_ball_sort's body for the solvers: (value, threshold, ||x||_1).

    x is a float array.  Inside the ball the value is x itself, not a copy,
    and the threshold is 0.  cut is passed to _sort_threshold; any value is
    safe, and the result's bits do not depend on it.
    """
    absx = np.abs(x)
    l1 = _l1(absx)
    if not math.isfinite(l1):
        if not np.all(np.isfinite(absx)):
            raise ValueError("x must be finite")
        # Only the sum overflowed.  Shift |x|/m by -1 (m = max|x|; this shifts the
        # threshold by -1) so a radius below the entries' precision survives.
        m = float(np.max(absx))
        shifted = absx / m - 1.0
        theta = _sort_threshold(shifted, radius / m, 0.0, float(np.sum(shifted)))
        return _shrink(shifted, theta, x) * m, (theta + 1.0) * m, l1
    if l1 <= radius:
        return x, 0.0, l1
    theta = _sort_threshold(absx, radius, 0.0, l1, cut)
    return _shrink(absx, theta, x), theta, l1


def project_l1_ball_hv(x, r):
    """l1-ball projection computed through prox_sq_l1, by exact Newton steps on alpha.

    While the support of prox_alpha(x) stays fixed, with rho entries summing
    to S in |x|, its l1 norm is S / (1 + 2 alpha rho): 1 / ||prox_alpha(x)||_1
    is piecewise linear, increasing and concave in alpha (the support and the
    slope 2 rho / S shrink as alpha grows).  A Newton step solves the current
    piece for the radius r: alpha = (S - r) / r / (2 rho), positive whenever
    S > r, with no 2 rho r to overflow.  The first piece, on the full support,
    lies above the whole function, so the steps start at or below the root
    and climb until alpha stops increasing (the support stops changing) or the
    support is empty.  Each support is met once: at most nnz(x) + 1 prox calls
    and no tolerance.  Returns the last prox output; inside the ball, a copy
    of x.  ValueError if x is not a vector, has a NaN or infinite entry, or
    ||x||_1 overflows.
    """
    x = _vector(x)
    radius = r.radius_l1
    absx = np.abs(x)
    s = _l1(absx)
    if not math.isfinite(s):
        if not np.all(np.isfinite(absx)):
            raise ValueError("x must be finite")
        raise ValueError("||x||_1 overflows: scale x and the radius down together")
    if radius < 1e-300 * s:
        # alpha would overflow in prox_sq_l1; 0 is within r of the projection
        return np.zeros_like(x)
    alpha, value, support = 0.0, x.copy(), absx != 0.0
    while np.any(support):
        step = (_l1(absx[support]) - radius) / radius / (2.0 * np.count_nonzero(support))
        if not step > alpha:
            break
        alpha = step
        value = prox_sq_l1(x, alpha)
        support = value != 0.0
    return value
