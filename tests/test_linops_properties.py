"""Operator identities on random dense, blur and scaled operators.

The blur sizes reach past BLUR_BLOCK + 2h, so both the one-block and the
row-block apply are drawn, for A and for its normal operator.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsq.linops import DenseMatrix, KroneckerBlur, ScaledOperator, estimate_opnorm_sq


@st.composite
def dense_ops(draw):
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.floats(0.1, 3.0))
    return DenseMatrix(np.random.default_rng(seed).standard_normal((m, n)), scale)


@st.composite
def blur_ops(draw):
    n = draw(st.integers(1, 48))
    band = draw(st.integers(1, min(n, 6)))
    return KroneckerBlur(n, band, draw(st.floats(0.3, 3.0)))


def operators():
    base = st.one_of(dense_ops(), blur_ops())
    scaled = st.builds(ScaledOperator, base, st.floats(0.05, 20.0))
    return st.one_of(base, scaled)


def _norm(op):
    return float(np.sqrt(op.normal_spectrum[1]))


@given(operators(), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_adjoint_identity(op, seed):
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal(op.domain_dim), rng.standard_normal(op.range_dim)
    lhs, rhs = float(op.apply(x) @ y), float(x @ op.apply_adjoint(y))
    size = op.domain_dim + op.range_dim
    tol = 4 * size * np.finfo(float).eps * _norm(op) * np.linalg.norm(x) * np.linalg.norm(y)
    assert abs(lhs - rhs) <= tol


@given(operators(), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_normal_is_adjoint_after_apply(op, seed):
    x = np.random.default_rng(seed).standard_normal(op.domain_dim)
    direct = op.apply_adjoint(op.apply(x))
    tol = 8 * op.domain_dim * np.finfo(float).eps * _norm(op) ** 2 * np.linalg.norm(x)
    assert np.linalg.norm(op.normal.apply(x) - direct) <= tol


@given(operators())
@settings(max_examples=50, deadline=None)
def test_exact_opnorm_bounds_power_iteration(op):
    # A Rayleigh quotient never exceeds ||A*A||; from the seeded positive
    # start, 5000 steps bring it within 0.1% below.
    exact = op.normal_spectrum[1]
    est = estimate_opnorm_sq(op, max_iters=5000, tol=1e-13)
    assert est.value <= exact * (1 + 1e-9) + 1e-300
    assert est.value >= exact * (1 - 1e-3)
