"""Linear operators with adjoints: dense matrices and a separable banded blur.

The blur operator is the Kronecker product of a banded symmetric Toeplitz
factor with itself, scaled by the Gaussian kernel normalization.  It is never
materialized at full size; applying it to a vector reshapes the vector to an
image (column-major) and multiplies by the factor on both sides.  Both
products run over blocks of BLUR_BLOCK rows and read only the factor's band,
so a factor of half-bandwidth h costs about (BLUR_BLOCK + 2h) / n of a dense
product.  Where blocks would not cut the work there is one block of all n rows.

Every operator carries its normal operator A*A (`normal`), built once and of
the same class where the structure allows, so a gradient A*(Ax - y) costs one
operator call.  It carries the spectral norm ||A*A|| (`opnorm_sq`) too, also
computed once: exact for those classes and a power-iteration estimate
otherwise.
"""

import math
import sys
from functools import cached_property
from typing import NamedTuple

import numpy as np

DENSIFY_GUARD = 10**7

# Rows per block of the blur apply.  At n=125, on one OpenBLAS thread of a
# 2-core AVX-512 Xeon VM, one N apply (half-bandwidth 4) took 78 us at 32
# rows against 230 us dense; 16 to 48 rows took 81 to 98 us.
BLUR_BLOCK = 32


class OpNormEstimate(NamedTuple):
    """Result of the power-iteration spectral estimate of the normal operator."""

    value: float
    iterations: int
    converged: bool


class LinearOperator:
    """A real linear map from R^domain_dim to R^range_dim with an adjoint."""

    domain_dim: int
    range_dim: int

    def apply(self, x):
        raise NotImplementedError

    def apply_adjoint(self, y):
        raise NotImplementedError

    @cached_property
    def normal(self):
        """The normal operator A*A, built on first use."""
        return NormalOperator(self)

    @cached_property
    def opnorm_sq(self):
        """||A*A||, computed on first use: exact_opnorm_sq() where the structure
        gives it, else the estimate_opnorm_sq value."""
        exact = self.exact_opnorm_sq()
        return estimate_opnorm_sq(self).value if exact is None else exact

    def exact_opnorm_sq(self):
        """||A*A|| where the structure gives it directly, else None."""
        return None


def _vector(v, size):
    """v as a float vector of the given length; ValueError otherwise."""
    v = np.asarray(v, dtype=float)
    if v.shape != (size,):
        raise ValueError(f"expected a vector of length {size}, got shape {v.shape}")
    return v


class NormalOperator(LinearOperator):
    """A*A of an operator without a cheaper form: one apply, then one adjoint."""

    def __init__(self, op):
        self.op = op
        self.domain_dim = self.range_dim = op.domain_dim

    def apply(self, x):
        return self.op.apply_adjoint(self.op.apply(x))

    def apply_adjoint(self, y):
        return self.apply(y)


class DenseMatrix(LinearOperator):
    """Explicit m-by-n matrix with a positive scalar multiplier applied at evaluation."""

    def __init__(self, entries, scale=1.0):
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 2:
            raise ValueError("entries must be a 2-d array")
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries must be finite")
        if not scale > 0:
            raise ValueError("scale must be positive")
        self.entries = entries
        self.scale = float(scale)
        self.range_dim, self.domain_dim = entries.shape

    def apply(self, x):
        # the gemv of scale * (entries @ x), scaled in place: one array, same bits
        out = np.dot(self.entries, _vector(x, self.domain_dim))
        out *= self.scale
        return out

    def apply_adjoint(self, y):
        out = np.dot(self.entries.T, _vector(y, self.range_dim))
        out *= self.scale
        return out

    @cached_property
    def normal(self):
        """The Gram matrix E^T E with scale^2, unless it would exceed DENSIFY_GUARD entries."""
        if self.domain_dim**2 > DENSIFY_GUARD:
            return NormalOperator(self)
        return DenseMatrix(self.entries.T @ self.entries, self.scale**2)

    def exact_opnorm_sq(self):
        """scale^2 times the largest eigenvalue of the smaller of E E^T and E^T E."""
        e = self.entries
        if min(e.shape) ** 2 > DENSIFY_GUARD:
            return None
        gram = e @ e.T if e.shape[0] <= e.shape[1] else e.T @ e
        return self.scale**2 * max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)


class KroneckerBlur(LinearOperator):
    """Separable Gaussian blur on n-by-n images, stored through its 1-d factor.

    The factor T is the n-by-n symmetric banded Toeplitz matrix whose first
    row is exp(-j^2 / (2 sigma^2)) for j < band and zero beyond.  The full
    operator is scale * (T kron T) with scale = 1 / (2 pi sigma^2); it acts on
    length n^2 vectors identified with images in column-major order, and it is
    symmetric, so apply and apply_adjoint coincide.
    """

    def __init__(self, n, band, sigma):
        n = int(n)
        band = int(band)
        if n < 1:
            raise ValueError("n must be at least 1")
        if not 1 <= band <= n:
            raise ValueError("band must satisfy 1 <= band <= n")
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        if not 2.0 * math.pi * sigma * sigma > 1.0 / sys.float_info.max:
            raise ValueError(f"sigma = {sigma!r} is too small: 1 / (2 pi sigma^2) overflows")
        if not 2.0 * math.pi * sigma * sigma < math.inf:  # the scale would be 0
            raise ValueError(f"sigma = {sigma!r} is too large: 2 pi sigma^2 overflows")
        self.n = n
        self.band = band
        self.sigma = float(sigma)
        self.scale = 1.0 / (2.0 * math.pi * sigma * sigma)
        row = np.zeros(n)
        j = np.arange(band)
        row[:band] = np.exp(-(j.astype(float) ** 2) / (2.0 * sigma * sigma))
        offs = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        self._factor = row[offs]
        self.domain_dim = n * n
        self.range_dim = n * n

    @classmethod
    def _kronecker_square(cls, factor, scale):
        """scale * (factor kron factor) for a symmetric factor, with no Gaussian
        parameters: band and sigma are None."""
        op = cls.__new__(cls)
        op.n = factor.shape[0]
        op.band = op.sigma = None
        op.scale = scale
        op._factor = factor
        op.domain_dim = op.range_dim = op.n * op.n
        return op

    @cached_property
    def _row_blocks(self):
        """(rows, band, T[rows, band].T, T[band, rows].T) for each block of
        BLUR_BLOCK rows, where band is rows widened by the factor's
        half-bandwidth h on both sides; one block of all n rows where blocks
        would not cut the work (BLUR_BLOCK + 2h >= n)."""
        n, factor = self.n, self._factor
        i, j = np.nonzero(factor)
        h = int(np.max(np.abs(i - j)))
        size = BLUR_BLOCK if BLUR_BLOCK + 2 * h < n else n
        blocks = []
        for i0 in range(0, n, size):
            rows = slice(i0, min(i0 + size, n))
            band = slice(max(i0 - h, 0), min(rows.stop + h, n))
            blocks.append((rows, band, factor[rows, band].T.copy(), factor[band, rows].T.copy()))
        return blocks

    def apply(self, x):
        """scale * T X T for the column-major image X of x.

        It computes Z^T = T^T X^T T^T: X^T is x read row-major and Z's
        column-major vector is Z^T's row-major one, so every array is
        row-major and no copy is made.  Each entry is the dense product's dot
        product with its zero terms left out; BLAS kernels chosen by block
        shape and thread count may round it differently in the last bits."""
        n, blocks = self.n, self._row_blocks
        xt = _vector(x, self.domain_dim).reshape(n, n)
        half = np.empty((n, n))  # X^T T^T = (T X)^T
        for rows, band, rows_t, _ in blocks:
            np.matmul(xt[:, band], rows_t, out=half[:, rows])
        out = np.empty((n, n))  # T^T (T X)^T = Z^T
        for rows, band, _, cols_t in blocks:
            np.matmul(cols_t, half[band], out=out[rows])
        out *= self.scale
        return out.reshape(-1)

    def apply_adjoint(self, y):
        return self.apply(y)

    @cached_property
    def normal(self):
        """scale^2 * (T^2 kron T^2): one apply's cost, since T is symmetric."""
        return KroneckerBlur._kronecker_square(self._factor @ self._factor, self.scale**2)

    def exact_opnorm_sq(self):
        """(scale * lambda_max(T)^2)^2: the eigenvalues of T kron T are the
        products of T's, and ||A*A|| = ||A||^2."""
        lam = float(np.max(np.abs(np.linalg.eigvalsh(self._factor))))
        return (self.scale * lam * lam) ** 2


class ScaledOperator(LinearOperator):
    """A positive multiple of another operator, used to rescale ill-scaled problems."""

    def __init__(self, inner, factor):
        if not factor > 0:
            raise ValueError("factor must be positive")
        self.inner = inner
        self.factor = float(factor)
        self.domain_dim = inner.domain_dim
        self.range_dim = inner.range_dim

    def apply(self, x):
        return self.factor * self.inner.apply(x)

    def apply_adjoint(self, y):
        return self.factor * self.inner.apply_adjoint(y)

    @cached_property
    def normal(self):
        return ScaledOperator(self.inner.normal, self.factor**2)

    def exact_opnorm_sq(self):
        inner = self.inner.exact_opnorm_sq()
        return None if inner is None else self.factor**2 * inner


def densify(op):
    """Materialize an operator as a DenseMatrix with the scale folded in.

    Guarded against accidental huge allocations: the product of the
    dimensions must not exceed DENSIFY_GUARD.
    """
    if op.range_dim * op.domain_dim > DENSIFY_GUARD:
        raise ValueError(
            f"refusing to densify a {op.range_dim}x{op.domain_dim} operator "
            f"(guard: {DENSIFY_GUARD} entries)"
        )
    if isinstance(op, DenseMatrix):
        return DenseMatrix(op.scale * op.entries, 1.0)
    if isinstance(op, KroneckerBlur):
        return DenseMatrix(op.scale * np.kron(op._factor, op._factor), 1.0)
    cols = np.empty((op.range_dim, op.domain_dim))
    basis = np.zeros(op.domain_dim)
    for j in range(op.domain_dim):
        basis[j] = 1.0
        cols[:, j] = op.apply(basis)
        basis[j] = 0.0
    return DenseMatrix(cols, 1.0)


def estimate_opnorm_sq(op, max_iters=500, tol=1e-10, seed=0):
    """Estimate the spectral norm of A*A by power iteration.

    Starts from a seeded positive random vector so the estimate is
    deterministic.  Returns an OpNormEstimate; the convergence flag records
    whether the Rayleigh quotient stabilized to within tol relative change.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.1, 1.0, op.domain_dim)
    v /= np.linalg.norm(v)
    estimate = 0.0
    converged = False
    iters = 0
    for iters in range(1, max_iters + 1):
        w = op.apply_adjoint(op.apply(v))
        new_estimate = float(v @ w)
        wnorm = np.linalg.norm(w)
        if wnorm == 0.0:
            return OpNormEstimate(0.0, iters, True)
        if abs(new_estimate - estimate) <= tol * max(abs(new_estimate), 1e-300):
            estimate = new_estimate
            converged = True
            break
        estimate = new_estimate
        v = w / wnorm
    return OpNormEstimate(estimate, iters, converged)


def dump_operator_csv(op, path):
    """Write the densified matrix as CSV, one row per line, full precision."""
    dense = densify(op)
    with open(path, "w") as fh:
        for row in dense.entries:
            fh.write(",".join(f"{v:.17g}" for v in row))
            fh.write("\n")
