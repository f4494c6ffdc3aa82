"""Reference implementation of the Kronecker blur apply for the tests.

dense_apply is KroneckerBlur.apply without row blocks: both products run
over the whole n-by-n factor, zeros included.  The library's banded block
apply leaves out only those zero terms, so tests compare it against this
one, exactly where the library uses one block and to rounding elsewhere.
"""

import numpy as np

from sparsq.linops import KroneckerBlur, ScaledOperator


def dense_apply(op, x):
    """op.apply(x) for a KroneckerBlur, or a ScaledOperator around one, with
    dense factor products."""
    if isinstance(op, ScaledOperator):
        return op.factor * dense_apply(op.inner, x)
    assert isinstance(op, KroneckerBlur)
    n = op.n
    image = np.asarray(x, dtype=float).reshape(n, n, order="F")
    out = op._factor @ image @ op._factor
    return op.scale * out.reshape(-1, order="F")


def rounding_bound(op, x):
    """An entrywise bound on the difference between two evaluations of
    dense_apply(op, x) that differ only in summation order.  Each lies within
    about 2 (n + 2) eps scale |T| |X| |T| of the exact value: n terms in each
    of the two products, plus the scalings."""
    if isinstance(op, ScaledOperator):
        return op.factor * rounding_bound(op.inner, x)
    n = op.n
    absf = np.abs(op._factor)
    image = np.abs(np.asarray(x, dtype=float)).reshape(n, n, order="F")
    mags = (absf @ image @ absf).reshape(-1, order="F")
    return 4.0 * (n + 2) * np.finfo(float).eps * op.scale * mags
