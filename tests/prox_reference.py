"""Reference implementations for the tests.

prox_sq_l1_bisect is the prox of alpha * ||.||_1^2 by bisection on psi, and
prox_sq_l1_newton the same prox by Newton's method on psi in s = mu^(-1/2).
Both find mu* by root-finding and share no code with the library's
sort-and-threshold kernel, so tests compare the library's prox against the
bisection, and the prox-based l1-ball projection run through the Newton form
is an independent check of the sort-based projection.

sort_threshold_full is that kernel with a full sort of every entry, the form
the library's prefiltered kernel must match bit for bit.  prox_sq_l1_plain is
the library's prox written plainly on that kernel: one l1 sum and one full
sort per call, no cached ranks, and mu* in numpy arithmetic.  The library's
prox, which skips the sum where it cannot overflow, sorts before its kernel
and caches the shifted ranks, must return its value, mu* and weights bit for
bit.
"""

import math

import numpy as np

from sparsq.proxops import ProxResult, psi


def prox_sq_l1_bisect(x, alpha, tol=1e-12, max_iters=200):
    """Prox of alpha * ||.||_1^2 from the root mu* of psi, found by bisection.

    For x = 0 the prox is 0.  Otherwise the lower end of the bracket starts at
    alpha * min_nz^2 / (||x||_1 + 2 alpha n)^2 and is shrunk geometrically until
    psi > 0; the upper end max_i x_i^2 / (4 alpha) makes every bracket vanish,
    so psi = -1 there.  Bisection stops when |psi(mu)| <= tol.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    x = np.asarray(x, dtype=float)
    if not np.any(x):
        zeros = np.zeros_like(x)
        return ProxResult(zeros, 0.0, zeros.copy())

    absx = np.abs(x)
    l1 = float(np.sum(absx))
    n = x.size
    min_nz = float(np.min(absx[absx > 0]))

    lo = alpha * min_nz**2 / (l1 + 2.0 * alpha * n) ** 2
    while psi(lo, x, alpha) <= 0.0:
        lo *= 0.25
        if lo < 1e-300:
            raise RuntimeError("failed to bracket the psi root from below")
    hi = max(float(np.max(absx)) ** 2 / (4.0 * alpha), 2.0 * lo)

    root = None
    for _ in range(max_iters):
        mid = 0.5 * (lo + hi)
        val = psi(mid, x, alpha)
        if abs(val) <= tol:
            root = mid
            break
        if val > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-17 * hi:
            root = 0.5 * (lo + hi)
            break
    if root is None:
        raise RuntimeError("psi bisection did not converge within the iteration cap")

    lam = np.maximum(np.sqrt(alpha) * absx / np.sqrt(root) - 2.0 * alpha, 0.0)
    value = lam * x / (lam + 2.0 * alpha)
    return ProxResult(value, root, lam)


def prox_sq_l1_newton(x, alpha):
    """Prox of alpha * ||.||_1^2 from the root of psi, found by Newton's method.

    In s = mu^(-1/2), g(s) = sum_i [sqrt(alpha) |x_i| s - 2 alpha]_+ - 1 is
    convex, piecewise linear and nondecreasing.  At s0 = (1 + 2 alpha n) /
    min_i sqrt(alpha) |x_i| (nonzero x_i) every bracket is at least 1, so
    g(s0) >= 0, and Newton's method from there descends monotonically to the
    root, each step leaving at least one bracket behind: at most n + 1 steps
    in exact arithmetic.  It stops where g(s) <= 0 or s stops falling.  For
    x = 0 the prox is 0.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    x = np.asarray(x, dtype=float)
    if not np.any(x):
        zeros = np.zeros_like(x)
        return ProxResult(zeros, 0.0, zeros.copy())

    a = np.sqrt(alpha) * np.abs(x)
    s = (1.0 + 2.0 * alpha * x.size) / float(np.min(a[a > 0]))
    for _ in range(2 * x.size + 10):
        brackets = a * s - 2.0 * alpha
        active = brackets > 0.0
        g = float(np.sum(brackets[active])) - 1.0
        s_next = s - g / float(np.sum(a[active]))
        if not (g > 0.0 and s_next < s):
            break
        s = s_next
    else:
        raise RuntimeError("psi Newton iteration did not stop within the iteration cap")

    lam = np.maximum(a * s - 2.0 * alpha, 0.0)
    value = lam * x / (lam + 2.0 * alpha)
    return ProxResult(value, 1.0 / (s * s), lam)


def sort_threshold_full(absx, offset, ridge):
    """Threshold t_rho of the candidates t_k = (S_k - offset) / (k + ridge) over
    all of sorted |x|, rho being the last k with u_k > t_k (rho >= 1)."""
    u = np.sort(absx)[::-1]
    partial = np.cumsum(u)
    partial -= offset
    k = np.arange(1.0, absx.size + 1.0)
    k += ridge
    above = u * k > partial
    above[0] = True
    rho = np.nonzero(above)[0][-1]
    return partial[rho] / k[rho]


def prox_sq_l1_plain(x, alpha):
    """prox_sq_l1 for a finite x and a positive alpha whose 0.5 / alpha is
    finite: tau from sort_threshold_full when ||x||_1 (1 + 1 / (2 alpha)) is
    finite and tau is normal, else from the same step on x / max|x|."""
    ridge = 0.5 / float(alpha)
    x = np.asarray(x, dtype=float)
    absx = np.abs(x)
    l1 = float(np.einsum("i->", absx.ravel()))  # inf, with no warning, on overflow
    if l1 == 0.0:
        zeros = np.zeros_like(x)
        return ProxResult(zeros, 0.0, np.full_like(zeros, 1.0 / max(x.size, 1)))
    tau = sort_threshold_full(absx, 0.0, ridge) if math.isfinite(l1 * (1.0 + ridge)) else 0.0
    scale = 1.0
    if not tau >= np.finfo(float).tiny:
        scale = float(np.max(absx))
        absx = absx / scale
        tau = sort_threshold_full(absx, 0.0, ridge)
    absx -= tau
    np.maximum(absx, 0.0, out=absx)
    total = float(absx.sum())
    if total > 0.0:
        lam = absx / total
    else:
        peak = np.abs(x) == np.max(np.abs(x))
        lam = peak / float(np.count_nonzero(peak))
    if scale != 1.0:
        absx *= scale
    value = np.copysign(absx, x, out=absx)
    with np.errstate(over="ignore"):  # tau^2 may overflow to inf
        mu_star = float(tau * tau / (4.0 * alpha)) * scale * scale
    return ProxResult(value, mu_star, lam)
