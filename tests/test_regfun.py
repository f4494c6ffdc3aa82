import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsq.linops import DenseMatrix, KroneckerBlur, ScaledOperator, estimate_opnorm_sq
from sparsq.regfun import RegParams, eval_D, eval_J, eval_R, grad_f
from paper_reference import eval_surrogate, optimal_lambda, phi

vectors = st.lists(
    st.floats(-100.0, 100.0, allow_nan=False), min_size=1, max_size=12
).map(lambda v: np.array(v))


def test_regparams_validation():
    with pytest.raises(ValueError):
        RegParams(0.0, 0.0)
    with pytest.raises(ValueError):
        RegParams(1.0, 2.0)
    assert RegParams(2.0, 1.0).eta == 0.5
    assert RegParams(1.0, 0.0).eta == 0.0  # pure squared-l1 limit allowed
    for beta in (0.0, 1.0, np.inf):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            RegParams(np.inf, beta)


def test_eval_R_zero():
    assert eval_R(np.zeros(3), RegParams(1.0, 1.0)) == 0.0


def test_eval_R_direct_arithmetic():
    assert eval_R(np.array([1.0, 1.0]), RegParams(1.0, 1.0)) == pytest.approx(2.0)


def test_eval_R_single_spike_vanishes_at_eta_one():
    p = RegParams(1.0, 1.0)
    for height in (0.1, 1.0, 57.0):
        x = np.zeros(5)
        x[2] = height
        assert eval_R(x, p) == pytest.approx(0.0, abs=1e-12)


@given(vectors, st.floats(0.01, 10.0), st.floats(0.0, 1.0))
@settings(max_examples=100)
def test_eval_R_coercivity_bound(x, alpha, eta):
    p = RegParams(alpha, eta * alpha)
    assert eval_R(x, p) >= (p.alpha - p.beta) * float(x @ x) - 1e-9 * max(1.0, x @ x)


def test_eval_J_cases():
    I2 = DenseMatrix(np.eye(2))
    p = RegParams(1.0, 0.5)
    assert eval_J(I2, np.zeros(2), np.zeros(2), p) == 0.0
    assert eval_J(I2, np.array([1.0, 0.0]), np.zeros(2), p) == pytest.approx(0.5)
    I1 = DenseMatrix(np.eye(1))
    val = eval_J(I1, np.array([1.0]), np.array([1.0]), RegParams(0.25, 0.1))
    assert val == pytest.approx(0.15)
    # a residual passed in is used as given
    assert eval_J(I2, np.zeros(2), np.zeros(2), p, r=np.array([1.0, 0.0])) == 0.5


def test_eval_D_cases():
    I2 = DenseMatrix(np.eye(2))
    y = np.array([1.0, 1.0])
    assert eval_D(I2, y, np.zeros(2), 0.0) == pytest.approx(0.5 * 2.0)
    I1 = DenseMatrix(np.eye(1))
    assert eval_D(I1, np.zeros(1), np.array([1.0]), 0.5) == pytest.approx(0.0)
    assert eval_D(I2, y, np.array([1.0, 0.0]), 0.25) == pytest.approx(0.25)
    assert eval_D(I2, y, np.array([1.0, 0.0]), 0.25, r=np.array([0.0, -1.0])) == 0.25


def test_surrogate_identity_at_omega():
    rng = np.random.default_rng(0)
    A = DenseMatrix(rng.standard_normal((4, 3)))
    y = rng.standard_normal(4)
    w = rng.standard_normal(3)
    s = eval_surrogate(A, y, w, w.copy(), beta=0.1, gamma=1.0)
    assert s == pytest.approx(eval_D(A, y, w, 0.1), rel=1e-12)


def test_surrogate_scalar_case():
    A = DenseMatrix(np.eye(1))
    val = eval_surrogate(A, np.zeros(1), np.zeros(1), np.array([1.0]), beta=0.0, gamma=1.0)
    assert val == pytest.approx(0.0)


def test_surrogate_rejects_small_gamma():
    A = DenseMatrix(np.eye(2))
    with pytest.raises(ValueError):
        eval_surrogate(A, np.zeros(2), np.zeros(2), np.zeros(2), beta=0.5, gamma=1.0)


def test_surrogate_majorizes_objective():
    rng = np.random.default_rng(1)
    A = DenseMatrix(rng.standard_normal((5, 3)), scale=0.4)
    gamma = estimate_opnorm_sq(A).value + 1e-6
    y = rng.standard_normal(5)
    beta = 0.25 * gamma
    for _ in range(50):
        w = rng.standard_normal(3)
        x = rng.standard_normal(3)
        assert eval_surrogate(A, y, w, x, beta, gamma) >= eval_D(A, y, w, beta) - 1e-10


def _finite_difference_gradient(A, y, x, beta, h=1e-6):
    def f(z):
        r = A.apply(z) - y
        return 0.5 * float(r @ r) - beta * float(z @ z)

    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def test_grad_f_cancellation():
    I2 = DenseMatrix(np.eye(2))
    x = np.array([1.0, 2.0])
    assert np.allclose(grad_f(I2, np.zeros(2), x, 0.5), np.zeros(2), atol=1e-14)
    assert np.allclose(grad_f(I2, np.zeros(2), x, 0.0), x)


def test_grad_f_matches_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(20):
        A = DenseMatrix(rng.standard_normal((5, 4)), scale=0.6)
        y = rng.standard_normal(5)
        x = rng.standard_normal(4)
        beta = rng.uniform(0.0, 0.5)
        g = grad_f(A, y, x, beta)
        fd = _finite_difference_gradient(A, y, x, beta)
        assert np.linalg.norm(g - fd) <= 1e-5 * max(np.linalg.norm(g), 1e-3)


@pytest.mark.parametrize(
    "A",
    [KroneckerBlur(8, 3, 0.7), ScaledOperator(KroneckerBlur(8, 3, 0.7), 0.4),
     ScaledOperator(DenseMatrix(np.random.default_rng(3).standard_normal((6, 9))), 2.5)],
    ids=["blur", "scaled_blur", "scaled_dense"],
)
def test_grad_f_matches_finite_differences_on_special_normal_forms(A):
    # these operators apply their own normal operator, not A* after A
    rng = np.random.default_rng(4)
    y = rng.standard_normal(A.range_dim)
    x = rng.standard_normal(A.domain_dim)
    g = grad_f(A, y, x, 0.3)
    fd = _finite_difference_gradient(A, y, x, 0.3)
    assert np.linalg.norm(g - fd) <= 1e-6 * np.linalg.norm(g)


def test_phi_table():
    assert phi(2.0, 1.0) == 4.0
    assert phi(0.0, 0.0) == 0.0
    assert phi(1.0, 0.0) == math.inf
    assert phi(1.0, -1.0) == math.inf
    assert phi(0.0, -2.0) == math.inf


def test_optimal_lambda_example():
    lam = optimal_lambda(np.array([3.0, 1.0]))
    assert np.allclose(lam, [0.75, 0.25])
    total = sum(phi(x, l) for x, l in zip([3.0, 1.0], lam))
    assert total == pytest.approx(16.0)


def test_optimal_lambda_zero_vector():
    assert np.allclose(optimal_lambda(np.zeros(4)), 0.25)


def test_optimal_lambda_with_zero_entry():
    lam = optimal_lambda(np.array([-2.0, 0.0]))
    assert np.allclose(lam, [1.0, 0.0])
    assert phi(0.0, 0.0) == 0.0  # convention keeps the sum finite


@given(vectors)
@settings(max_examples=100)
def test_optimal_lambda_lies_on_simplex(x):
    lam = optimal_lambda(x)
    assert np.all(lam >= 0)
    assert np.sum(lam) == pytest.approx(1.0, abs=1e-12)


def test_variational_tightness_and_minimality():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(5)
        lam = optimal_lambda(x)
        total = sum(phi(s, t) for s, t in zip(x, lam))
        l1sq = np.sum(np.abs(x)) ** 2
        assert abs(total - l1sq) <= 1e-12 * l1sq
        # random simplex points never do better
        for _ in range(20):
            other = rng.dirichlet(np.ones(5))
            other_total = sum(phi(s, t) for s, t in zip(x, other))
            assert other_total >= l1sq - 1e-9 * l1sq
