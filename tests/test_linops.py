import numpy as np
import pytest

import sparsq.linops
from linops_reference import dense_apply, rounding_bound
from sparsq.linops import (
    BLUR_BLOCK,
    DenseMatrix,
    KroneckerBlur,
    NormalOperator,
    ScaledOperator,
    densify,
    estimate_opnorm_sq,
)


def test_dense_identity_apply():
    op = DenseMatrix(np.eye(2))
    assert np.array_equal(op.apply([1.0, 2.0]), [1.0, 2.0])


def test_dense_adjoint_is_transpose():
    op = DenseMatrix([[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(op.apply_adjoint([1.0, 0.0]), [0.0, 1.0])


def test_dense_scale_applied_at_evaluation():
    op = DenseMatrix(np.eye(3), scale=2.5)
    assert np.allclose(op.apply([1.0, -1.0, 0.0]), [2.5, -2.5, 0.0])


@pytest.mark.parametrize("order", ["C", "F"])
def test_dense_apply_has_the_bits_of_the_scaled_product(order):
    # apply and apply_adjoint scale the product in place; the bits stay those
    # of scale * (entries @ x) and scale * (entries.T @ y)
    rng = np.random.default_rng(31)
    for m, n in ((80, 200), (200, 200), (1, 7), (9, 1)):
        entries = np.asarray(rng.standard_normal((m, n)), order=order)
        for scale in (1.0, 0.04, 0.0016, 3.7):
            op = DenseMatrix(entries, scale)
            x, y = rng.standard_normal(n), rng.standard_normal(m)
            assert op.apply(x).tobytes() == (scale * (entries @ x)).tobytes()
            assert op.apply_adjoint(y).tobytes() == (scale * (entries.T @ y)).tobytes()


def test_dense_dimension_mismatch():
    op = DenseMatrix(np.ones((3, 2)))
    with pytest.raises(ValueError):
        op.apply([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        op.apply_adjoint([1.0, 2.0])


def test_dense_rejects_bad_inputs():
    with pytest.raises(ValueError):
        DenseMatrix([[np.inf, 0.0]])
    with pytest.raises(ValueError):
        DenseMatrix(np.eye(2), scale=0.0)


def test_adjoint_identity_random_dense():
    rng = np.random.default_rng(7)
    op = DenseMatrix(rng.standard_normal((5, 3)), scale=0.7)
    for _ in range(100):
        x = rng.standard_normal(3)
        y = rng.standard_normal(5)
        lhs = op.apply(x) @ y
        rhs = x @ op.apply_adjoint(y)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_adjoint_identity_blur():
    rng = np.random.default_rng(8)
    op = KroneckerBlur(16, 3, 0.7)
    for _ in range(100):
        x = rng.standard_normal(256)
        y = rng.standard_normal(256)
        lhs = op.apply(x) @ y
        rhs = x @ op.apply_adjoint(y)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_blur_band_one_is_scaled_identity():
    sigma = 1.3
    op = KroneckerBlur(4, 1, sigma)
    x = np.arange(16.0)
    assert np.allclose(op.apply(x), x / (2.0 * np.pi * sigma**2), atol=1e-15)


def test_blur_self_adjoint():
    op = KroneckerBlur(5, 2, 0.9)
    x = np.random.default_rng(0).standard_normal(25)
    assert np.array_equal(op.apply(x), op.apply_adjoint(x))


def test_blur_first_row_definition():
    op = KroneckerBlur(6, 3, 0.7)
    expected = np.zeros(6)
    expected[:3] = np.exp(-np.arange(3.0) ** 2 / (2 * 0.7**2))
    assert np.allclose(op._factor[0], expected)


def test_blur_matches_explicit_kronecker_product():
    # densify oracle: build T kron T by hand and compare columns
    op = KroneckerBlur(3, 2, 0.7)
    row = np.zeros(3)
    row[:2] = np.exp(-np.arange(2.0) ** 2 / (2 * 0.7**2))
    T = np.array([[row[abs(i - j)] for j in range(3)] for i in range(3)])
    full = op.scale * np.kron(T, T)
    e1 = np.zeros(9)
    e1[0] = 1.0
    assert np.allclose(op.apply(e1), full[:, 0], atol=1e-14)
    dense = densify(op)
    assert np.allclose(dense.entries, full, atol=1e-14)


@pytest.mark.parametrize("n", [2, 5, 16])
def test_blur_apply_matches_densify(n):
    op = KroneckerBlur(n, min(3, n), 0.7)
    dense = densify(op)
    rng = np.random.default_rng(n)
    for _ in range(5):
        x = rng.standard_normal(n * n)
        assert np.max(np.abs(op.apply(x) - dense.apply(x))) <= 1e-12


def _blur_band(op):
    """The rows each block reads beyond its own, from _row_blocks."""
    rows, band = op._row_blocks[1][:2]
    return rows.start - band.start


@pytest.mark.parametrize("sigma", [0.7, 3.0])
@pytest.mark.parametrize("band", ["1", "3", "n"])
def test_blur_blocks_match_dense_reference(band, sigma):
    # Row blocks, one block of all rows included, compute the dense product's
    # dot products minus their zero terms, but BLAS picks its kernels by shape
    # and thread count, which can round a dot product differently in the last
    # bits; a rounding bound applies.  At n = 8 and 16, the selftest's and the
    # desk's sizes, the one block is pinned to the dense product's bits.
    rng = np.random.default_rng(int(10 * sigma) + len(band))
    blocked = 0
    for n in range(1, 91):
        blur = KroneckerBlur(n, {"1": 1, "3": min(3, n), "n": n}[band], sigma)
        for op in (blur, blur.normal, ScaledOperator(blur, 0.3), ScaledOperator(blur, 2.0).normal):
            x = rng.standard_normal(n * n)
            got, want = op.apply(x), dense_apply(op, x)
            if n in (8, 16):
                assert got.tobytes() == want.tobytes(), (n, op)
            else:
                assert np.all(np.abs(got - want) <= rounding_bound(op, x)), (n, op)
            blocked += len(getattr(op, "inner", op)._row_blocks) > 1
            assert op.apply_adjoint(x).tobytes() == got.tobytes()
    assert blocked > 0 or (band, sigma) == ("n", 3.0)  # a band that wide keeps one block


def test_blur_blocks_follow_the_band():
    full = slice(0, BLUR_BLOCK - 1)
    assert [b[:2] for b in KroneckerBlur(BLUR_BLOCK - 1, 3, 0.7)._row_blocks] == [(full, full)]
    assert len(KroneckerBlur(BLUR_BLOCK + 4, 3, 0.7)._row_blocks) == 1  # B + 2h >= n
    blur = KroneckerBlur(90, 3, 0.7)
    assert _blur_band(blur) == 2 and _blur_band(blur.normal) == 4
    assert len(blur._row_blocks) == -(-90 // BLUR_BLOCK)
    assert _blur_band(KroneckerBlur(90, 1, 0.7)) == 0
    # entries that underflow to zero narrow the band below band - 1
    assert _blur_band(KroneckerBlur(90, 90, 0.7)) < 89


def test_densify_blur_band_one():
    op = KroneckerBlur(2, 1, 0.5)
    dense = densify(op)
    assert np.allclose(dense.entries, op.scale * np.eye(4))


def test_densify_dense_folds_scale():
    op = DenseMatrix(np.diag([2.0, 3.0]), scale=2.0)
    dense = densify(op)
    assert dense.scale == 1.0
    assert np.allclose(dense.entries, np.diag([4.0, 6.0]))


def test_densify_guard():
    op = KroneckerBlur(60, 3, 0.7)  # (60^2)^2 > 1e7 entries
    with pytest.raises(ValueError):
        densify(op)


def test_densify_generic_fallback():
    inner = DenseMatrix(np.arange(6.0).reshape(2, 3))
    op = ScaledOperator(inner, 0.5)
    dense = densify(op)
    assert np.allclose(dense.entries, 0.5 * inner.entries)


def test_opnorm_diag():
    op = DenseMatrix(np.diag([3.0, 1.0]))
    est = estimate_opnorm_sq(op, max_iters=500, tol=1e-12)
    assert est.converged
    assert abs(est.value - 9.0) <= 1e-8


def test_opnorm_identity():
    est = estimate_opnorm_sq(DenseMatrix(np.eye(4)), max_iters=50, tol=1e-12)
    assert abs(est.value - 1.0) <= 1e-12


def test_opnorm_blur_near_one():
    est = estimate_opnorm_sq(KroneckerBlur(16, 3, 0.7), max_iters=2000, tol=1e-12)
    assert 0.8 <= est.value <= 1.2


def test_opnorm_matches_dense_svd_within_one_percent():
    rng = np.random.default_rng(3)
    for trial in range(4):
        op = DenseMatrix(rng.standard_normal((8, 12)))
        est = estimate_opnorm_sq(op, max_iters=5000, tol=1e-13, seed=trial)
        exact = np.linalg.svd(op.entries, compute_uv=False)[0] ** 2
        assert abs(est.value - exact) <= 0.01 * exact


def test_opnorm_deterministic():
    op = DenseMatrix(np.random.default_rng(5).standard_normal((6, 6)))
    a = estimate_opnorm_sq(op, max_iters=100, tol=1e-10, seed=42)
    b = estimate_opnorm_sq(op, max_iters=100, tol=1e-10, seed=42)
    assert a == b


def test_opnorm_zero_operator():
    est = estimate_opnorm_sq(DenseMatrix(np.zeros((3, 3))), max_iters=10, tol=1e-8)
    assert est.value == 0.0 and est.converged


def _dense_opnorm_sq(op):
    entries = densify(op).entries
    return float(np.linalg.eigvalsh(entries.T @ entries)[-1])


def test_exact_opnorm_blur_matches_densified():
    op = KroneckerBlur(16, 3, 0.7)
    assert op.normal_spectrum[1] == pytest.approx(_dense_opnorm_sq(op), rel=1e-12)
    # ||A*A|| = (scale * lambda_max(T)^2)^2; (scale * lambda_max(T))^2 would give 0.3247
    assert KroneckerBlur(125, 3, 0.7).normal_spectrum[1] == pytest.approx(0.9994299, abs=1e-7)


def test_exact_opnorm_dense_matches_eigvalsh():
    rng = np.random.default_rng(21)
    for m, n in ((8, 12), (12, 8), (5, 5), (1, 7), (80, 200)):
        op = DenseMatrix(rng.standard_normal((m, n)), scale=float(rng.uniform(0.1, 3.0)))
        assert op.normal_spectrum[1] == pytest.approx(_dense_opnorm_sq(op), rel=1e-12)


def test_exact_opnorm_scaled_and_generic():
    inner = KroneckerBlur(8, 3, 0.7)
    op = ScaledOperator(inner, 0.3)
    assert op.normal_spectrum[1] == pytest.approx(0.09 * inner.normal_spectrum[1], rel=1e-15)
    assert op.normal_spectrum[1] == pytest.approx(_dense_opnorm_sq(op), rel=1e-12)
    assert ScaledOperator(NormalOperator(inner), 2.0).normal_spectrum is None


def test_exact_lambda_min_matches_the_densified_normal():
    # the smallest eigenvalue of A*A, against eigvalsh of the densified normal
    # operator: 0 for a dense E with more columns than rows
    def dense_min(op):
        return float(np.linalg.eigvalsh(densify(op.normal).entries)[0])

    rng = np.random.default_rng(5)
    ops = [KroneckerBlur(n, band, 0.7) for n, band in ((1, 1), (6, 3), (12, 2), (16, 3))]
    ops += [DenseMatrix(rng.standard_normal((m, n)), scale=float(rng.uniform(0.1, 3.0)))
            for m, n in ((12, 8), (8, 8), (8, 12), (1, 7))]
    ops += [ScaledOperator(op, 0.3) for op in (ops[3], ops[4], ops[6])]
    for op in ops:
        low, high = op.normal_spectrum
        assert low == pytest.approx(dense_min(op), rel=1e-9, abs=1e-12 * high)
        assert 0.0 <= low <= high
    assert DenseMatrix(np.ones((2, 3))).normal_spectrum[0] == 0.0
    assert ScaledOperator(NormalOperator(ops[1]), 2.0).normal_spectrum is None


def test_both_ends_share_one_eigendecomposition(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    blur = KroneckerBlur(16, 3, 0.7)
    scaled = ScaledOperator(DenseMatrix(np.arange(12.0).reshape(4, 3)), 0.5)
    for op in (blur, scaled):
        op.opnorm_sq, op.normal_spectrum
    assert calls == [(16, 16), (3, 3)]


def test_opnorm_sq_is_exact_where_known(monkeypatch):
    def no_estimate(*args, **kwargs):
        raise AssertionError("power iteration ran")

    monkeypatch.setattr(sparsq.linops, "estimate_opnorm_sq", no_estimate)
    op = KroneckerBlur(16, 3, 0.7)
    assert op.opnorm_sq == op.normal_spectrum[1]
    with pytest.raises(AssertionError, match="power iteration"):
        NormalOperator(op).opnorm_sq


def test_opnorm_sq_is_computed_once(monkeypatch):
    dense = DenseMatrix(np.arange(6.0).reshape(2, 3), scale=0.5)
    normal = NormalOperator(dense)  # no exact norm: the power iteration's value
    values = (dense.opnorm_sq, normal.opnorm_sq)
    assert values == (dense.normal_spectrum[1], estimate_opnorm_sq(normal).value)

    def again(*args):
        raise AssertionError("computed again")

    # a data descriptor, so reading it raises even where a value is cached
    monkeypatch.setattr(DenseMatrix, "normal_spectrum", property(again))
    monkeypatch.setattr(sparsq.linops, "estimate_opnorm_sq", again)
    assert (dense.opnorm_sq, normal.opnorm_sq) == values


def test_normal_operator_classes():
    # each N = A*A keeps its operator's class, built once
    blur = KroneckerBlur(6, 3, 0.7)
    dense = DenseMatrix(np.arange(12.0).reshape(3, 4), scale=0.5)
    for op in (blur, dense, ScaledOperator(blur, 0.5), ScaledOperator(dense, 2.0)):
        assert type(op.normal) is type(op)
        assert op.normal is op.normal
        assert np.allclose(densify(op.normal).entries, densify(op).entries.T @ densify(op).entries)
    assert type(NormalOperator(dense).normal) is NormalOperator


def test_dense_normal_falls_back_above_the_guard(monkeypatch):
    monkeypatch.setattr(sparsq.linops, "DENSIFY_GUARD", 10)
    op = DenseMatrix(np.ones((2, 4)))
    assert type(op.normal) is NormalOperator
    assert op.normal_spectrum[1] == 8.0  # the 2x2 Gram side stays under the guard

