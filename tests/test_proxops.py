import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsq import proxops
from sparsq.proxops import (
    _PREFILTER_MIN_SIZE,
    RadiusSpec,
    _l1,
    _sort_threshold,
    half_threshold,
    project_l1_ball_hv,
    project_l1_ball_sort,
    prox_sq_l1,
    psi,
    soft_threshold,
)
from paper_reference import optimal_lambda, phi
from prox_reference import (
    prox_sq_l1_bisect,
    prox_sq_l1_newton,
    prox_sq_l1_plain,
    sort_threshold_full,
)

vectors = st.lists(
    st.floats(-50.0, 50.0, allow_nan=False), min_size=1, max_size=10
).map(lambda v: np.array(v))


# ---------------------------------------------------------------- thresholds


def test_soft_threshold_example():
    out = soft_threshold(np.array([3.0, -1.0, 0.2]), 0.5)
    assert np.allclose(out, [2.5, -0.5, 0.0])


def test_soft_threshold_zero_t_is_identity():
    x = np.array([1.0, -2.0, 0.0])
    assert np.array_equal(soft_threshold(x, 0.0), x)


def test_soft_threshold_rejects_negative_t():
    with pytest.raises(ValueError):
        soft_threshold(np.ones(2), -0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        soft_threshold(np.ones(2), np.nan)


def _scalar_grid_min(objective, lo, hi, points=20001):
    grid = np.linspace(lo, hi, points)
    vals = objective(grid)
    return grid[np.argmin(vals)], float(np.min(vals))


def test_soft_threshold_is_scalar_prox_of_l1():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = float(rng.uniform(-4, 4))
        t = float(rng.uniform(0, 2))
        out = float(soft_threshold(np.array([a]), t)[0])
        _, best = _scalar_grid_min(lambda u: 0.5 * (u - a) ** 2 + t * np.abs(u), -5, 5)
        mine = 0.5 * (out - a) ** 2 + t * abs(out)
        assert mine <= best + 1e-7


def test_half_threshold_zero_in_zero_out():
    assert np.array_equal(half_threshold(np.zeros(3), 1.0, 1.0), np.zeros(3))


def test_half_threshold_kills_small_entries():
    lam, step = 0.8, 1.0
    thresh = 1.5 * (lam * step) ** (2.0 / 3.0)
    x = np.array([0.5 * thresh, -0.99 * thresh, thresh])
    assert np.array_equal(half_threshold(x, lam, step), np.zeros(3))


def test_half_threshold_matches_scalar_grid_oracle():
    rng = np.random.default_rng(1)
    for _ in range(12):
        lam = float(rng.uniform(0.05, 1.5))
        step = float(rng.uniform(0.3, 2.0))
        t = lam * step
        a = float(rng.uniform(1.01, 4.0)) * 1.5 * t ** (2.0 / 3.0)
        out = float(half_threshold(np.array([a]), lam, step)[0])

        def objective(u):
            return 0.5 * (u - a) ** 2 + t * np.sqrt(np.abs(u))

        _, best = _scalar_grid_min(objective, -0.5 * a, 1.5 * a, 40001)
        assert objective(np.array([out]))[0] <= best + 1e-7
        # odd symmetry
        out_neg = float(half_threshold(np.array([-a]), lam, step)[0])
        assert out_neg == pytest.approx(-out)


def test_half_threshold_keeps_nan():
    # a NaN iterate must reach the engine's non-finite stop
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = half_threshold(np.array([np.nan, 1.0, -np.nan, 0.01]), 0.1, 1.0)
    assert np.isnan(out[0]) and np.isnan(out[2]) and out[3] == 0.0
    assert out[1] == half_threshold(np.array([1.0]), 0.1, 1.0)[0]


def test_half_threshold_rejects_bad_params():
    with pytest.raises(ValueError):
        half_threshold(np.ones(2), 0.0, 1.0)
    with pytest.raises(ValueError):
        half_threshold(np.ones(2), 1.0, -1.0)


# ----------------------------------------------------------------------- psi


def test_psi_requires_positive_mu():
    with pytest.raises(ValueError):
        psi(0.0, np.ones(2), 0.5)


def test_psi_scalar_root_closed_form():
    a, alpha = 2.0, 0.5
    mu_star = alpha * a**2 / (1 + 2 * alpha) ** 2
    assert psi(mu_star, np.array([a]), alpha) == pytest.approx(0.0, abs=1e-12)


def test_psi_limit_is_minus_one():
    x = np.array([1.0, 2.0])
    assert psi(1e12, x, 0.3) == pytest.approx(-1.0)


def test_psi_nonincreasing():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.standard_normal(6)
        alpha = float(rng.uniform(0.05, 2.0))
        mus = np.sort(rng.uniform(1e-4, 10.0, size=8))
        vals = [psi(m, x, alpha) for m in mus]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------- prox


def _half_variation_rescaling(x, alpha, value):
    """The paper's rescaling lambda_i x_i / (lambda_i + 2 alpha) with the simplex
    weights lambda = optimal_lambda(value), and those weights: the prox value
    is its own fixed point."""
    lam = optimal_lambda(value)
    return lam * x / (lam + 2.0 * alpha), lam


def test_prox_zero_input():
    out = prox_sq_l1(np.zeros(4), 0.7)
    assert np.array_equal(out, np.zeros(4))
    # psi's root alpha ||prox||_1^2 is 0, as the root-finding reference's mu*
    assert 0.7 * np.sum(np.abs(out)) ** 2 == prox_sq_l1_newton(np.zeros(4), 0.7).mu_star == 0.0
    # all four |x_i| tie at the largest, so each gets 1/4, a point of the simplex
    rescaled, lam = _half_variation_rescaling(np.zeros(4), 0.7, out)
    assert np.array_equal(lam, np.full(4, 0.25))
    assert np.array_equal(out, rescaled)
    empty = prox_sq_l1(np.zeros(0), 0.7)
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


def test_prox_scalar_closed_form():
    out = prox_sq_l1(np.array([2.0, 0.0, 0.0]), 0.5)
    assert np.allclose(out, [1.0, 0.0, 0.0], atol=1e-12)


def test_prox_symmetric_closed_form():
    out = prox_sq_l1(np.array([1.0, 1.0]), 0.25)
    assert np.allclose(out, [0.5, 0.5], atol=1e-12)


def test_prox_lambda_simplex_property():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.standard_normal(rng.integers(1, 8))
        alpha = float(rng.uniform(0.01, 5.0))
        out = prox_sq_l1(x, alpha)
        rescaled, lam = _half_variation_rescaling(x, alpha, out)
        assert np.all(lam >= 0)
        assert np.sum(lam) == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(out, rescaled)


def test_prox_soft_threshold_reparametrization():
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = rng.standard_normal(rng.integers(1, 8))
        alpha = float(rng.uniform(0.01, 5.0))
        out = prox_sq_l1(x, alpha)
        # mu* from an independent root of psi
        mu_star = prox_sq_l1_newton(x, alpha).mu_star
        shrunk = soft_threshold(x, 2.0 * np.sqrt(alpha * mu_star))
        assert np.max(np.abs(out - shrunk)) <= 1e-10 * max(1.0, np.max(np.abs(x)))


def test_prox_optimality_against_perturbations():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        x = 3.0 * rng.standard_normal(n)
        alpha = float(rng.uniform(0.02, 3.0))
        out = prox_sq_l1(x, alpha)

        def objective(u):
            return 0.5 * np.sum((u - x) ** 2) + alpha * np.sum(np.abs(u)) ** 2

        base = objective(out)
        for scale in (1e-3, 1e-2, 0.1, 1.0):
            perturbed = out[None, :] + scale * rng.standard_normal((100, n))
            vals = 0.5 * np.sum((perturbed - x) ** 2, axis=1) + alpha * np.sum(
                np.abs(perturbed), axis=1
            ) ** 2
            assert np.min(vals) >= base - 1e-9


def test_prox_l1_norm_monotone_in_alpha_with_limits():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(8)
    alphas = np.logspace(-4, 3, 15)
    norms = [np.sum(np.abs(prox_sq_l1(x, a))) for a in alphas]
    assert all(a >= b - 1e-10 for a, b in zip(norms, norms[1:]))
    l1 = np.sum(np.abs(x))
    assert np.sum(np.abs(prox_sq_l1(x, 1e-8))) == pytest.approx(l1, rel=1e-4)
    assert np.sum(np.abs(prox_sq_l1(x, 1e8))) <= 1e-3 * l1


def test_prox_rejects_bad_params():
    with pytest.raises(ValueError):
        prox_sq_l1(np.ones(2), 0.0)
    with pytest.raises(ValueError):
        prox_sq_l1_bisect(np.ones(2), 1.0, tol=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_prox_and_projection_reject_nonfinite(bad):
    x = np.array([1.0, bad, -2.0])
    with pytest.raises(ValueError, match="x must be finite"):
        prox_sq_l1(x, 0.5)
    with pytest.raises(ValueError, match="x must be finite"):
        project_l1_ball_sort(x, RadiusSpec(1.0))
    # the same, next to finite entries whose l1 sum overflows, with no warning
    # on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="x must be finite"):
            prox_sq_l1(np.array([1e308, bad, 1e308]), 0.5)
        with pytest.raises(ValueError, match="x must be finite"):
            project_l1_ball_sort(np.array([1e308, bad, 1e308]), RadiusSpec(1.0))


def test_prox_subnormal_input():
    # tau = 2 alpha S_1 / (1 + 2 alpha) underflows to 0 on this x
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = prox_sq_l1(np.array([5e-324, 0.0]), 1e-6)
        rescaled, lam = _half_variation_rescaling(np.array([5e-324, 0.0]), 1e-6, out)
    assert np.all(np.isfinite(out)) and np.all(np.isfinite(lam))
    assert np.sum(lam) == 1.0
    assert np.array_equal(out, rescaled)


def test_prox_rejects_alpha_whose_ridge_overflows():
    # 0.5 / alpha is inf for a subnormal alpha, which would make the value nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="alpha"):
            prox_sq_l1(np.array([1.0, 2.0]), 5e-324)


def test_prox_subnormal_threshold():
    # tau = 2 alpha S_2 / (1 + 4 alpha) is about 6e-320 here, and |x| / tau
    # loses precision in the subnormal range
    out = prox_sq_l1(np.array([1e-300, 2e-300]), 1e-20)
    rescaled, lam = _half_variation_rescaling(np.array([1e-300, 2e-300]), 1e-20, out)
    assert abs(np.sum(lam) - 1.0) <= 1e-12
    assert np.all(np.isfinite(out))
    assert np.allclose(out, rescaled, rtol=1e-12, atol=0.0)


def test_prox_finite_input_whose_sum_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = prox_sq_l1(np.array([1e308, 1e308]), 1.0)
        rescaled, lam = _half_variation_rescaling(np.array([1e308, 1e308]), 1.0, out)
    # on c * (1, 1) the prox is c / (1 + 4 alpha) * (1, 1), with lambda = (1/2, 1/2)
    assert out == pytest.approx([2e307, 2e307], rel=1e-15)
    assert lam == pytest.approx([0.5, 0.5], rel=1e-15)
    assert rescaled == pytest.approx(out, rel=1e-15)


def test_prox_near_overflow_with_a_small_alpha():
    # the sum fits, but the kernel's u_k (k + ridge), here 33 * 1.6e308, would
    # not: the step is redone on x / max|x|.  On (a, b) with both in the
    # support the threshold is (a + b) / (2 + ridge) = 5e306.
    x = np.array([1.6e308, 1e307])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = prox_sq_l1(x, 0.015625)
        projected = project_l1_ball_hv(x, RadiusSpec(1.6e308))
    assert out == pytest.approx([1.55e308, 5e306], rel=1e-15)
    assert projected == pytest.approx([1.55e308, 5e306], rel=1e-15)


@pytest.mark.parametrize("x", [3.0, np.ones((2, 3)), np.ones((1, 600))], ids=["0-d", "2-d", "2-d-large"])
def test_prox_rejects_an_input_that_is_not_a_vector(x):
    # on either side of the prefilter's size
    with pytest.raises(ValueError, match=re.escape(f"not an array of shape {np.shape(x)}")):
        prox_sq_l1(x, 0.1)


@pytest.mark.parametrize("x", [3.0, np.ones((2, 3)), np.ones((1, 600))], ids=["0-d", "2-d", "2-d-large"])
def test_projection_rejects_an_input_that_is_not_a_vector(x):
    with pytest.raises(ValueError, match=re.escape(f"not an array of shape {np.shape(x)}")):
        project_l1_ball_sort(x, RadiusSpec(0.5))


@pytest.mark.parametrize("radius", [0.5, 10.0], ids=["outside", "inside"])
@pytest.mark.parametrize("x", [3.0, np.ones((2, 2))], ids=["0-d", "2-d"])
def test_hv_projection_rejects_an_input_that_is_not_a_vector(x, radius):
    # a 2-d x inside the ball used to come back as it was
    with pytest.raises(ValueError, match=re.escape(f"not an array of shape {np.shape(x)}")):
        project_l1_ball_hv(x, RadiusSpec(radius))


@pytest.mark.parametrize("alpha", [np.inf, np.nan, 0.0, -1.0])
def test_prox_rejects_alpha_that_is_not_positive_and_finite(alpha):
    # 0.5 / inf is 0, a finite ridge, but the prox of a finite alpha is not
    # the identity
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="alpha"):
            prox_sq_l1(np.array([1.0, 2.0]), alpha)


def test_sort_threshold_matches_full_sort():
    # The prefilter and the cut drop only entries outside the support, so the
    # kernel's threshold equals the full sort's bit for bit, in both modes, on
    # sizes on both sides of the cut-over and for any cut
    rng = np.random.default_rng(12)
    prefiltered = 0
    for case in range(3200):
        small = case % 4 == 0
        n = int(rng.integers(1, 64) if small else rng.integers(_PREFILTER_MIN_SIZE, 1600))
        shape = case % 5
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300)
        if shape == 1:  # tied magnitudes
            x = np.round(x / np.max(np.abs(x)) * 4.0)
        elif shape == 2:  # subnormal entries
            x = rng.integers(-50, 50, n) * 5e-324
        elif shape == 3:  # one entry far above the rest, as [1e20] against radius 1
            x = rng.standard_normal(n)
            x[rng.integers(n)] = 1e20
        if shape == 4:  # equal magnitudes, normal or subnormal: every entry sits
            # next to the lower bound t_n when offset or ridge is small
            c = 10.0 ** rng.uniform(-300, 300) if case % 3 else int(rng.integers(1, 9)) * 5e-324
            x = c * rng.choice([-1.0, 1.0], n)
        else:
            x[rng.random(n) < 0.3] = 0.0
        if not np.any(x):
            x[0] = 1.0
        absx = np.abs(x)
        total = _l1(absx)
        if case % 2:  # prox: offset 0, ridge 1 / (2 alpha)
            offset, ridge = 0.0, 0.5 / 10.0 ** rng.uniform(-6, 6)
        elif shape == 3:
            offset, ridge = 1.0, 0.0
        else:  # projection onto a ball the input is outside of, down to radii
            # below the precision of the sum
            offset, ridge = total * 10.0 ** rng.uniform(-20, 0), 0.0
        want = sort_threshold_full(absx, offset, ridge)
        assert _sort_threshold(absx, offset, ridge, total) == want, (case, n, shape)
        for cut in () if small else _cuts(absx, want):
            assert _sort_threshold(absx, offset, ridge, total, cut) == want, (case, n, shape, cut)
        prefiltered += not small and np.count_nonzero(absx > (total - offset) / (n + ridge)) < n
    assert prefiltered >= 1000
    # n = 1 stays exact: 1e20 - 1 rounds to 1e20
    assert _sort_threshold(np.array([1e20]), 1.0, 0.0, 1e20) == sort_threshold_full(
        np.array([1e20]), 1.0, 0.0
    )

    # Entries tied at the cut c, with offset or ridge set so that the exact
    # threshold is c: the sorted part's threshold then equals the cut up to
    # rounding, where the full sort's rho may reach into the ties.  Only the
    # margin of the cut's acceptance check keeps the two apart.
    for case in range(2000):
        n = int(rng.integers(_PREFILTER_MIN_SIZE, 1600))
        c = 10.0 ** rng.uniform(-3, 3)
        k = int(rng.integers(1, 60))
        top = c * (1.0 + rng.random(k) * 10.0 ** rng.uniform(-12, 1))
        ties = int(rng.integers(1, 300))
        absx = np.concatenate([top, np.full(ties, c), c * rng.random(n - k - ties)])
        rng.shuffle(absx)
        if case % 2:  # prox: (sum(top) - 0) / (k + ridge) = c
            offset, ridge = 0.0, float(np.sum(top)) / c - k
        else:  # projection: (sum(top) - offset) / k = c
            offset, ridge = float(np.sum(top - c)), 0.0
        if not (offset > 0 or ridge > 0):
            continue
        want = sort_threshold_full(absx, offset, ridge)
        for cut in (c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf)):
            assert _sort_threshold(absx, offset, ridge, _l1(absx), cut) == want, (case, cut)


def _cuts(absx, t):
    """Lower-bound guesses for the threshold t: below it (as solve_pg_sf
    guesses, and within the rounding margin), at it, just and far above it,
    and at the largest entry at or below it, where ties sit."""
    cuts = [0.98 * t, t * (1.0 - 1e-14), np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf)]
    cuts += [2.0 * t + float(np.max(absx)), -1.0]
    below = absx[absx <= t]
    if below.size:
        cuts.append(float(np.max(below)))
    return cuts


def _kernel_agrees(absx, offset, ridge):
    """The kernel's threshold, with no cut and with each of _cuts, equals the
    full sort's; returns it."""
    want = sort_threshold_full(absx, offset, ridge)
    total = _l1(absx)
    assert _sort_threshold(absx, offset, ridge, total) == want
    for cut in _cuts(absx, want):
        assert _sort_threshold(absx, offset, ridge, total, cut) == want, cut
    return want


def test_sort_threshold_whole_support():
    # Large inputs whose survivors are all in the support, so rho is the last
    # sorted entry: every entry, or a top block with everything else below
    # the cut, as in the radius search's large-support projections
    rng = np.random.default_rng(21)
    for n in (13000, 15625, 16001):
        block = 1.0 + 0.01 * rng.random(n)
        gap = _l1(block) - n * float(np.min(block))  # t_n is below min(block) past this
        small = 1e-3 * rng.random(2000)
        for absx in (block, rng.permutation(np.concatenate([block, small]))):
            # projection: t = (S_n - offset) / n; prox: t = S_n / (n + ridge)
            for offset, ridge in ((1.5 * gap, 0.0), (0.0, 1.5 * gap / float(np.min(block)))):
                want = _kernel_agrees(absx, offset, ridge)
                assert np.max(small) < want < np.min(block)


def test_sort_threshold_single_entry_support():
    # rho = 1: one entry far above the rest, on both sides of the prefilter's size
    rng = np.random.default_rng(22)
    for n in (1, 2, 40, _PREFILTER_MIN_SIZE, 5000):
        absx = rng.random(n)
        absx[rng.integers(n)] = 100.0
        assert _kernel_agrees(absx, 50.0, 0.0) == 50.0  # t_1 = u_1 - offset
        assert _kernel_agrees(absx, 0.0, 1.0) == 50.0  # t_1 = u_1 / (1 + ridge)


def test_sort_threshold_prox_at_large_sizes():
    # ridge != 0 (the prox) past the prefilter's size
    rng = np.random.default_rng(23)
    for n in (_PREFILTER_MIN_SIZE, 513, 2048, 15625):
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        x[rng.random(n) < 0.3] = 0.0
        for alpha in (1e-6, 1e-3, 1.0, 1e3):
            _kernel_agrees(np.abs(x), 0.0, 0.5 / alpha)


def test_sort_threshold_rank_cache_grows_and_shrinks(monkeypatch):
    # The projection reads its ranks from one cached vector: a call larger
    # than any before rebuilds it, a smaller one reads a prefix, and no caller
    # can write into it
    monkeypatch.setattr(proxops, "_rank_cache", np.arange(1.0, 1.0))
    rng = np.random.default_rng(24)
    for n in (3, 600, 20000, 700, 1, 16000, 20001, 50):
        absx = np.abs(rng.standard_normal(n))
        _kernel_agrees(absx, 0.5 * _l1(absx), 0.0)
    assert proxops._rank_cache.size == 20001
    assert proxops._ranks(7).tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    with pytest.raises(ValueError):
        proxops._ranks(5)[0] = 0.0


@given(
    st.lists(st.floats(0.0, 1e6), min_size=1, max_size=40),
    st.integers(0, 1000),
    st.floats(1e-9, 1.0),
    st.floats(0.0, 2.0),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_sort_threshold_cut_property(values, extra, share, guess, prox):
    # Any cut, from far below the threshold to above every entry, gives the
    # full sort's threshold bit for bit.  The values repeat cyclically up to
    # the prefilter's size, so most magnitudes are tied.
    absx = np.resize(np.array(values), _PREFILTER_MIN_SIZE + extra)
    total = _l1(absx)
    if not total > 0:
        return
    offset, ridge = (0.0, 1.0 / share) if prox else (share * total, 0.0)
    want = sort_threshold_full(absx, offset, ridge)
    assert _sort_threshold(absx, offset, ridge, total, guess * want) == want


def test_prox_matches_bisection_reference():
    rng = np.random.default_rng(10)
    worst_value = 0.0
    worst_mu = 0.0
    for case in range(2400):
        n = 1 if case % 8 == 0 else int(rng.integers(2, 300))
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        x[rng.random(n) < 0.2] = 0.0
        if case % 3 == 0:  # tied magnitudes
            x = np.round(x / np.max(np.abs(x), initial=1e-300) * 4.0)
        alpha = float(10.0 ** rng.uniform(-6, 2))
        out = prox_sq_l1(x, alpha)
        ref = prox_sq_l1_bisect(x, alpha)
        # psi's root is alpha ||prox||_1^2: the value's mu* against the bisection's
        mu_star = alpha * float(np.sum(np.abs(out))) ** 2
        if not np.any(x):
            assert np.array_equal(out, ref.value) and mu_star == ref.mu_star == 0.0
            continue
        gap = float(np.max(np.abs(out - ref.value))) / float(np.max(np.abs(x)))
        worst_value = max(worst_value, gap)
        worst_mu = max(worst_mu, abs(mu_star - ref.mu_star) / ref.mu_star)
    assert worst_value <= 1e-11
    assert worst_mu <= 1e-11


def test_newton_reference_matches_bisection_reference():
    # The two root-finding references for criterion 2's prox-based projection
    # agree with each other, apart from the library's kernel
    rng = np.random.default_rng(11)
    for case in range(300):
        n = int(rng.integers(1, 40))
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 2)
        x[rng.random(n) < 0.2] = 0.0
        alpha = float(10.0 ** rng.uniform(-4, 1))
        newton, bisect = prox_sq_l1_newton(x, alpha), prox_sq_l1_bisect(x, alpha)
        scale = max(float(np.max(np.abs(x))), 1e-300)
        assert np.max(np.abs(newton.value - bisect.value)) <= 1e-11 * scale
        assert newton.mu_star == pytest.approx(bisect.mu_star, rel=1e-10, abs=0.0)


@given(vectors, st.floats(1e-3, 1e2))
@settings(max_examples=200, deadline=None)
def test_prox_properties(x, alpha):
    out = prox_sq_l1(x, alpha)
    scale = max(1.0, float(np.max(np.abs(x))))
    lam = _half_variation_rescaling(x, alpha, out)[1]
    assert np.all(lam >= 0)
    assert np.sum(lam) == pytest.approx(1.0, abs=1e-9)
    # soft thresholding at 2 sqrt(alpha mu*), with psi's root mu* = alpha ||prox||_1^2
    mu_star = alpha * float(np.sum(np.abs(out))) ** 2
    shrunk = soft_threshold(x, 2.0 * np.sqrt(alpha * mu_star))
    assert np.max(np.abs(out - shrunk)) <= 1e-10 * scale

    def objective(u):
        return 0.5 * np.sum((u - x) ** 2, axis=-1) + alpha * np.sum(np.abs(u), axis=-1) ** 2

    base = objective(out)
    rng = np.random.default_rng(0)
    for step in (1e-3, 1e-2, 0.1, 1.0):
        perturbed = out + step * scale * rng.standard_normal((50, x.size))
        assert np.min(objective(perturbed)) >= base - 1e-9 * max(1.0, base)


def _same_bits(out, want):
    """Two prox values are arrays of one shape, byte-equal."""
    assert isinstance(out, np.ndarray) and out.shape == want.shape
    assert out.tobytes() == want.tobytes()


def test_prox_value_is_finite_where_tau_squared_overflows():
    # tau is about 2.6e192: psi's root tau^2 / (4 alpha) is beyond the float
    # range, the value and its weights are not
    x = np.array([1e200, 3e199, -2e199])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = prox_sq_l1(x, 1e-8)
        rescaled, lam = _half_variation_rescaling(x, 1e-8, out)
    assert np.all(np.isfinite(out)) and np.sum(lam) == pytest.approx(1.0)
    assert rescaled == pytest.approx(out, rel=1e-15)
    _same_bits(out, prox_sq_l1_plain(x, 1e-8))


@given(
    st.one_of(st.integers(0, 40), st.integers(_PREFILTER_MIN_SIZE - 2, _PREFILTER_MIN_SIZE + 90)),
    st.integers(0, 2**32 - 1),
    st.floats(-320.0, 300.0),
    st.sampled_from(["normal", "ties", "sparse", "zero"]),
    st.floats(-300.0, 300.0),
)
@settings(max_examples=300, deadline=None)
@example(0, 0, 0.0, "normal", 0.0)  # empty
@example(200, 0, 0.0, "zero", -4.0)  # all zero
@example(_PREFILTER_MIN_SIZE, 1, 0.0, "ties", -4.0)  # ties at the maximum, at the size cut
@example(_PREFILTER_MIN_SIZE - 1, 2, 0.0, "ties", 2.0)
@example(200, 3, 295.0, "normal", -8.0)  # max|x| n (1 + ridge) >= 2**1000, a finite sum
@example(600, 3, 295.0, "normal", -8.0)
@example(200, 4, 307.0, "normal", -4.0)  # the sum overflows
@example(200, 3, 300.0, "normal", -8.0)  # l1 (1 + ridge) overflows, max|x| (1 + ridge) does not
@example(30, 5, -315.0, "normal", -4.0)  # subnormal x: tau below tiny
@example(600, 5, -315.0, "sparse", 2.0)
def test_prox_keeps_the_plain_forms_bits(n, seed, log_mag, shape, log_alpha):
    # The library's prox skips the l1 sum below 2**1000, sorts before its
    # kernel and caches the shifted ranks; none of it moves a bit of the
    # value
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0**log_mag
    if shape == "ties" and n:
        x[rng.random(n) < 0.3] = np.copysign(np.max(np.abs(x)), rng.standard_normal())
    elif shape == "sparse":
        x[rng.random(n) < 0.8] = 0.0
    elif shape == "zero":
        x[:] = 0.0
    alpha = 10.0**log_alpha
    _same_bits(prox_sq_l1(x, alpha), prox_sq_l1_plain(x, alpha))


def _check_half_variation_weights(x, alpha, rng):
    """The prox value against the paper's identity: with the weights
    lambda = optimal_lambda(u) at u = prox_sq_l1(x), u is the rescaling
    lambda_i x_i / (lambda_i + 2 alpha) of x, and lambda attains
    ||u||_1^2 = sum_i phi(u_i, lambda_i), which no Dirichlet point of the
    simplex beats.  When u is 0 (x = 0, or u rounded to 0) the weights are
    optimal_lambda's limit in alpha, on the largest |x_i|."""
    out = prox_sq_l1(x, alpha)
    absx = np.abs(x)
    u = out if np.any(out) else (absx == np.max(absx)).astype(float)
    lam = optimal_lambda(u)
    # The weight ratio first, so x is rounded once, with no lam * x to
    # underflow.  At subnormal scale both sides are rounded to multiples of
    # the spacing 2**-1074, and lam, read off the rounded u, moves the
    # oracle by up to (n + 1) / 2 of them: allow (n + 3) / 2 spacings.
    want = x * (lam / (lam + 2.0 * alpha))
    spacing = np.finfo(float).smallest_subnormal
    assert np.max(np.abs(out - want)) <= 1e-12 * np.max(absx) + 0.5 * (x.size + 3) * spacing
    # phi is homogeneous of degree 2 in u: on u / max|u| no square underflows
    u = u / np.max(np.abs(u))
    l1sq = np.sum(np.abs(u)) ** 2
    total = sum(phi(s, t) for s, t in zip(u, lam))
    assert abs(total - l1sq) <= 1e-12 * l1sq
    for other in rng.dirichlet(np.ones(u.size), size=10):
        assert sum(phi(s, t) for s, t in zip(u, other)) >= l1sq - 1e-9 * l1sq


def test_prox_weights_attain_the_half_variation_identity():
    rng = np.random.default_rng(17)
    # tau rounds up to max|x| here, so the prox rounds to 0
    _check_half_variation_weights(np.arange(1.0, 21.0), 1e300, rng)
    for trial in range(500):
        n = int(rng.integers(1, 30))
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        x[rng.random(n) < 0.2] = 0.0
        if trial % 4 == 0:  # tied magnitudes
            x = np.round(x * 2.0 / np.max(np.abs(x) + 1e-300)) * 3.0
        alpha = float(10.0 ** rng.uniform(-4, 300))
        _check_half_variation_weights(x, alpha, rng)


@given(vectors, st.floats(1e-4, 1e300))
@example(np.array([5e-324, 5e-324]), 0.125)  # the prox is 2/3 of the smallest subnormal
@settings(max_examples=200, deadline=None)
def test_prox_weights_half_variation_properties(x, alpha):
    _check_half_variation_weights(x, alpha, np.random.default_rng(0))


def test_prox_at_subnormal_scale_is_correctly_rounded():
    # x = (a, a), alpha = 1/8: rho = 2 and tau = 2 alpha (2 a) / (1 + 2 alpha 2)
    # = a / 3, so each entry of the prox is exactly 2 a / 3.  At a = 5e-324,
    # the smallest subnormal, its nearest float is a, not 0.
    a, alpha = Fraction(5e-324), Fraction(1, 8)
    exact = a - 2 * alpha * (2 * a) / (1 + 2 * alpha * 2)
    assert exact == 2 * a / 3 and float(exact) == 5e-324  # int / int division rounds correctly
    assert prox_sq_l1(np.array([5e-324, 5e-324]), 0.125).tolist() == [float(exact)] * 2


# ---------------------------------------------------------------- projection


def test_radius_spec():
    r = RadiusSpec(3.0)
    assert r.radius_sq == 9.0
    assert RadiusSpec.from_sq(9.0).radius_l1 == 3.0
    with pytest.raises(ValueError):
        RadiusSpec(0.0)


def test_project_interior_point_unchanged():
    r = RadiusSpec(1.0)
    x = np.array([0.3, -0.2])
    assert np.array_equal(project_l1_ball_sort(x, r), x)
    assert np.array_equal(project_l1_ball_hv(x, r), x)


def test_project_single_coordinate():
    r = RadiusSpec(1.0)
    out = project_l1_ball_sort(np.array([3.0, 0.0]), r)
    assert np.allclose(out, [1.0, 0.0])
    out_hv = project_l1_ball_hv(np.array([3.0, 0.0]), r)
    assert np.allclose(out_hv, [1.0, 0.0], atol=1e-9)
    # the radius is below the precision of the entry, so the shift rounds to it
    out_far = project_l1_ball_sort(np.array([1e20]), r)
    assert np.sum(np.abs(out_far)) <= 1.0


def test_project_finite_input_whose_sum_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = project_l1_ball_sort(np.array([1e308, 1e308]), RadiusSpec(1.0))
    # radius / max|x| = 1e-308 is subnormal, which costs the last bits
    assert out == pytest.approx([0.5, 0.5], rel=1e-12)


def test_project_shift_example():
    # shift t solves (2 - t) + (1 - t) = 2
    out = project_l1_ball_sort(np.array([2.0, 1.0]), RadiusSpec(2.0))
    assert np.allclose(out, [1.5, 0.5])


def test_projection_routes_agree():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        x = 4.0 * rng.standard_normal(n)
        radius = float(rng.uniform(0.2, 0.9) * max(np.sum(np.abs(x)), 0.5))
        r = RadiusSpec(radius)
        a = project_l1_ball_sort(x, r)
        b = project_l1_ball_hv(x, r)
        assert np.max(np.abs(a - b)) <= 1e-8


def test_projection_nonexpansive_both_routes():
    rng = np.random.default_rng(8)
    r = RadiusSpec(1.5)
    for project in (project_l1_ball_sort, project_l1_ball_hv):
        for _ in range(25):
            x = 3.0 * rng.standard_normal(6)
            z = 3.0 * rng.standard_normal(6)
            lhs = np.linalg.norm(project(x, r) - project(z, r))
            assert lhs <= np.linalg.norm(x - z) + 1e-9


@pytest.mark.parametrize("mag", [1e5, 1e8])
def test_project_hv_matches_sort_at_large_magnitudes(mag):
    for seed in range(20):
        x = mag * np.random.default_rng(seed).standard_normal(20)
        r = RadiusSpec(float(np.sum(np.abs(x))) / 2)
        expected = project_l1_ball_sort(x, r)
        gap = np.max(np.abs(project_l1_ball_hv(x, r) - expected))
        assert gap <= 1e-12 * np.max(np.abs(expected))


def test_project_hv_at_a_tiny_radius():
    for seed in range(3):
        x = np.random.default_rng(seed).standard_normal(20)
        r = RadiusSpec(1e-8 * float(np.sum(np.abs(x))))
        gap = np.max(np.abs(project_l1_ball_hv(x, r) - project_l1_ball_sort(x, r)))
        assert gap <= 1e-6 * r.radius_l1
    # below ||x||_1 * 1e-300 the prox's alpha would overflow: the result is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = project_l1_ball_hv(np.arange(1.0, 21.0), RadiusSpec(1e-307))
    assert np.array_equal(out, np.zeros(20))


@pytest.mark.parametrize(
    "prox",
    [prox_sq_l1, lambda x, alpha: prox_sq_l1_newton(x, alpha).value],
    ids=["prox_sq_l1", "prox_sq_l1_newton"],
)
def test_project_hv_prox_calls_at_most_nnz_plus_one(monkeypatch, prox):
    calls = []

    def counting_prox(x, alpha):
        calls.append(alpha)
        return prox(x, alpha)

    monkeypatch.setattr(proxops, "prox_sq_l1", counting_prox)
    rng = np.random.default_rng(12)
    for trial in range(200):
        n = int(rng.integers(1, 30))
        x = 3.0 * rng.standard_normal(n)
        if trial % 2:  # tied magnitudes and zeros
            x = np.round(x)
        if not np.any(x):
            continue
        r = RadiusSpec(float(rng.uniform(0.01, 0.99)) * float(np.sum(np.abs(x))))
        calls.clear()
        out = project_l1_ball_hv(x, r)
        assert 1 <= len(calls) <= np.count_nonzero(x) + 1
        assert calls == sorted(calls)
        assert np.max(np.abs(out - project_l1_ball_sort(x, r))) <= 1e-10 * r.radius_l1


def test_project_hv_rejects_nonfinite_input_and_an_overflowing_sum():
    with pytest.raises(ValueError, match="finite"):
        project_l1_ball_hv(np.array([1.0, np.nan]), RadiusSpec(1.0))
    with pytest.raises(ValueError, match="finite"):
        project_l1_ball_hv(np.array([np.inf, 1.0]), RadiusSpec(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            project_l1_ball_hv(np.array([1e308, 1e308]), RadiusSpec(1.0))


def test_projection_variational_characterization():
    rng = np.random.default_rng(9)
    r = RadiusSpec(2.0)
    for _ in range(30):
        x = 5.0 * rng.standard_normal(5)
        px = project_l1_ball_sort(x, r)
        for _ in range(20):
            w = rng.standard_normal(5)
            w = w / max(np.sum(np.abs(w)) / r.radius_l1, 1.0)  # random point in the ball
            assert (w - px) @ (x - px) <= 1e-9


@given(vectors, st.floats(0.1, 10.0))
@settings(max_examples=100, deadline=None)
def test_projection_output_feasible(x, radius):
    out = project_l1_ball_sort(x, RadiusSpec(radius))
    assert np.sum(np.abs(out)) <= radius + 1e-9


@given(vectors, st.floats(0.1, 10.0))
@settings(max_examples=100, deadline=None)
def test_projection_idempotent(x, radius):
    r = RadiusSpec(radius)
    once = project_l1_ball_sort(x, r)
    twice = project_l1_ball_sort(once, r)
    assert np.allclose(once, twice, atol=1e-9)
