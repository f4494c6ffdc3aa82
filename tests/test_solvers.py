import warnings
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sparsq.linops
import sparsq.solvers
from sparsq.linops import (
    DenseMatrix,
    KroneckerBlur,
    LinearOperator,
    NormalOperator,
    ScaledOperator,
    estimate_opnorm_sq,
)
from sparsq.proxops import RadiusSpec, project_l1_ball_sort, soft_threshold
from sparsq.regfun import RegParams, eval_D, eval_J
from sparsq.solvers import (
    PENALIZED,
    MdpOptions,
    SolverOptions,
    Termination,
    fista_momentum_next,
    search_radius_mdp,
    select_alpha_discrepancy,
    solve_fista,
    solve_ht_half,
    solve_hv,
    solve_ista,
    solve_pg_sf,
    solve_st_l1_l2,
    _band_bounds,
    _gradient,
)
from paper_reference import eval_surrogate


def _random_instance(rng, m=6, n=8, scale=0.2):
    A = DenseMatrix(rng.standard_normal((m, n)), scale=scale)
    x_true = np.zeros(n)
    support = rng.choice(n, size=2, replace=False)
    x_true[support] = rng.standard_normal(2)
    y = A.apply(x_true) + 0.01 * rng.standard_normal(m)
    return A, y


# -------------------------------------------------------------------- solve_hv


def test_hv_scalar_first_step():
    A = DenseMatrix(np.eye(1))
    opts = SolverOptions(max_iter=1, step_tol=1e-12)
    res = solve_hv(A, np.array([1.0]), RegParams(0.25, 0.1), opts, np.zeros(1))
    assert res.x_final[0] == pytest.approx(1.0 / 1.5, abs=1e-10)


def test_hv_huge_alpha_collapses_to_zero():
    rng = np.random.default_rng(0)
    A, y = _random_instance(rng)
    res = solve_hv(A, y, RegParams(1e8, 0.0), SolverOptions(max_iter=50), np.full(8, 0.01))
    assert np.max(np.abs(res.x_final)) <= 1e-6


def test_hv_objective_nonincreasing():
    rng = np.random.default_rng(1)
    for _ in range(20):
        A, y = _random_instance(rng)
        alpha = float(rng.uniform(1e-4, 1e-2))
        beta = alpha * float(rng.uniform(0.0, 1.0))
        p = RegParams(alpha, beta)
        L = estimate_opnorm_sq(A).value + 2 * beta  # above the descent floor
        opts = SolverOptions(max_iter=200, step_tol=1e-8, L=L)
        res = solve_hv(A, y, p, opts, np.full(8, 0.01))
        objs = [rec.objective for rec in res.trace]
        assert all(a >= b - 1e-10 for a, b in zip(objs, objs[1:]))


def test_hv_warns_on_small_step_constant():
    rng = np.random.default_rng(2)
    A = DenseMatrix(rng.standard_normal((6, 6)), scale=3.0)  # r_hat far above 1
    with pytest.warns(RuntimeWarning):
        solve_hv(A, np.ones(6), RegParams(1e-3, 0.0), SolverOptions(max_iter=2), np.zeros(6))


@pytest.mark.parametrize("name", ["hv", "pg", "ista", "fista", "st", "ht"])
def test_every_solver_warns_at_or_below_the_descent_bound(name):
    # ||A*A|| = 4 exactly, so the bound 0.5 ||A*A|| + beta is 2.25 for hv and
    # pg (beta = 0.25) and 2 for the rest; st's -beta ||x||_2 adds no curvature
    A, y, x0 = DenseMatrix(np.diag([2.0, 1.0])), np.ones(2), np.zeros(2)
    assert A.opnorm_sq == 4.0
    beta = 0.25 if name in ("hv", "pg") else 0.0
    bound = 2.0 + beta

    def solve(c):  # one step at the step constant c (pg: gamma)
        opts = SolverOptions(max_iter=1, L=c)
        return {
            "hv": lambda: solve_hv(A, y, RegParams(0.5, beta), opts, x0),
            "pg": lambda: solve_pg_sf(A, y, beta, c, RadiusSpec(1.0), opts, x0),
            "ista": lambda: solve_ista(A, y, 0.5, opts, x0),
            "fista": lambda: solve_fista(A, y, 0.5, opts, x0),
            "st": lambda: solve_st_l1_l2(A, y, 0.5, 0.25, opts, x0),
            "ht": lambda: solve_ht_half(A, y, 0.5, opts, x0),
        }[name]()

    for c in (bound, np.nextafter(bound, 0.0)):
        with pytest.warns(RuntimeWarning) as caught:
            solve(c)
        assert [str(w.message) for w in caught] == [
            f"{'gamma' if name == 'pg' else 'L'}={c:g} is not above half the smoothness "
            f"bound ({bound:g}); descent is not guaranteed"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve(np.nextafter(bound, np.inf))


def test_step_constant_sets_every_proximal_gradient_step():
    # A = I, y = 1, x0 = 2, L = 2: one step from the gradient x0 - y = 1 at t = 0.5
    A, y, x0 = DenseMatrix(np.eye(1)), np.array([1.0]), np.array([2.0])
    opts = SolverOptions(max_iter=1, L=2.0)
    # hv (alpha 0.3, beta 0.1): u = 2 + 2 (0.1)(0.5) 2 - 0.5 = 1.7, and the
    # squared-l1 prox of weight 0.15 in one dimension is u / (1 + 0.3)
    assert solve_hv(A, y, RegParams(0.3, 0.1), opts, x0).x_final[0] == pytest.approx(
        1.7 / 1.3, rel=1e-15)
    # ista and fista's first step: the soft threshold of 1.5 at 0.15
    for solve in (solve_ista, solve_fista):
        assert solve(A, y, 0.3, opts, x0).x_final[0] == pytest.approx(1.35, rel=1e-15)
    # st (beta 0.1): u = 2 + (0.1)(0.5) / 2 * 2 - 0.5 = 1.55, threshold 0.15
    assert solve_st_l1_l2(A, y, 0.3, 0.1, opts, x0).x_final[0] == pytest.approx(1.4, rel=1e-15)
    # ht (lam 0.2): x > 0 is stationary for 0.5 (x - 1.5)^2 + (0.2)(0.5) sqrt(x)
    x = solve_ht_half(A, y, 0.2, opts, x0).x_final[0]
    assert x > 0 and x - 1.5 + 0.5 * 0.1 / np.sqrt(x) == pytest.approx(0.0, abs=1e-14)


def test_hv_trace_matches_iterations():
    rng = np.random.default_rng(3)
    A, y = _random_instance(rng)
    res = solve_hv(A, y, RegParams(1e-3, 1e-3), SolverOptions(max_iter=40), np.full(8, 0.01))
    assert len(res.trace) == res.iterations
    ks = [rec.k for rec in res.trace]
    assert ks == list(range(1, res.iterations + 1))


# ----------------------------------------------------------------- solve_pg_sf


def test_pg_fixed_point_at_feasible_noise_free_solution():
    A = DenseMatrix(np.eye(3))
    y = np.array([0.2, -0.1, 0.05])
    r = RadiusSpec(1.0)
    res = solve_pg_sf(A, y, 0.0, 1.0, r, SolverOptions(max_iter=10), y.copy())
    assert res.iterations == 1
    assert res.termination == Termination.STAGNATION
    assert np.array_equal(res.x_final, y)


def test_pg_scalar_projection_step():
    A = DenseMatrix(np.eye(1))
    res = solve_pg_sf(
        A, np.array([4.0]), 0.0, 1.0, RadiusSpec(1.0), SolverOptions(max_iter=1), np.zeros(1)
    )
    assert res.x_final[0] == pytest.approx(1.0)


def test_pg_rejects_gamma_not_above_two_beta():
    A = DenseMatrix(np.eye(2))
    with pytest.raises(ValueError):
        solve_pg_sf(A, np.zeros(2), 0.5, 1.0, RadiusSpec(1.0), SolverOptions(), np.zeros(2))


def test_pg_rejects_a_band_out_of_order():
    # a band needs 0 <= low <= high, neither end NaN.  Unchecked, each band
    # below ended FLOOR_ABOVE_BAND at step 1 here (the ball floor is
    # 2 / sqrt(3)).
    A, y, r, x0 = DenseMatrix(np.eye(3)), np.ones(3), RadiusSpec(1.0), np.zeros(3)
    for band in ((1.0, 0.5), (np.nan, 1.0), (-1.0, 0.1), (0.5, np.nan)):
        with pytest.raises(ValueError, match="band must satisfy 0 <= low <= high"):
            solve_pg_sf(A, y, 0.0, 10.0, r, SolverOptions(), x0, band=band)
    unbounded = solve_pg_sf(A, y, 0.0, 10.0, r, SolverOptions(), x0, band=(0.0, np.inf))
    assert unbounded.stop_bound is None
    above = solve_pg_sf(A, y, 0.0, 10.0, r, SolverOptions(), x0, band=(0.5, 0.5))
    assert above.termination == Termination.FLOOR_ABOVE_BAND and above.iterations == 1


def test_pg_descent_feasibility_and_stationarity():
    rng = np.random.default_rng(4)
    for _ in range(20):
        A, y = _random_instance(rng)
        r_hat = estimate_opnorm_sq(A).value
        beta = 0.05 * r_hat
        gamma = max(2 * beta + 1e-3, 1.05 * r_hat)
        r = RadiusSpec(float(rng.uniform(0.5, 3.0)))
        opts = SolverOptions(max_iter=300, step_tol=1e-7)
        res = solve_pg_sf(A, y, beta, gamma, r, opts, np.full(8, 0.01))
        objs = [rec.objective for rec in res.trace]
        assert all(a >= b - 1e-10 for a, b in zip(objs, objs[1:]))
        assert np.sum(np.abs(res.x_final)) <= r.radius_l1 + 1e-9
        # fixed-point defect small at termination: one more step barely moves
        if res.termination == Termination.STEP_TOL:
            one_step = SolverOptions(max_iter=1, record_trace=False)
            step = solve_pg_sf(A, y, beta, gamma, r, one_step, res.x_final)
            assert np.linalg.norm(res.x_final - step.x_final) <= 10 * opts.step_tol


def test_pg_iterates_feasible_after_first():
    rng = np.random.default_rng(5)
    A, y = _random_instance(rng)
    r = RadiusSpec(0.7)
    beta, gamma = 0.01, 1.0
    x = np.full(8, 0.01)
    for _ in range(25):
        u = (gamma * x - A.apply_adjoint(A.apply(x) - y)) / (gamma - 2 * beta)
        x = project_l1_ball_sort(u, r)
        assert np.sum(np.abs(x)) <= r.radius_l1 + 1e-9


def test_pg_step_minimizes_the_surrogate_over_the_ball():
    # one step from x is the minimizer over the ball of the paper's quadratic
    # surrogate of eval_D around x
    rng = np.random.default_rng(6)
    opts = SolverOptions(max_iter=1, record_trace=False)
    for _ in range(100):
        A = DenseMatrix(rng.standard_normal((6, 9)), scale=float(rng.uniform(0.1, 1.0)))
        y = rng.standard_normal(6)
        gamma = estimate_opnorm_sq(A).value * float(rng.uniform(1.0, 2.0))
        beta = float(rng.uniform(0.0, 0.45)) * gamma
        x = rng.standard_normal(9) * float(rng.uniform(0.1, 3.0))
        r = RadiusSpec(float(rng.uniform(0.2, 2.0)) * np.sum(np.abs(x)))
        step = solve_pg_sf(A, y, beta, gamma, r, opts, x).x_final
        best = eval_surrogate(A, y, step, x, beta, gamma)
        tol = 1e-12 * max(1.0, abs(best))
        directions = rng.standard_normal((50, 9))
        for k, d in enumerate(directions):
            if k % 2:  # anywhere in the ball
                w = d * (r.radius_l1 * rng.uniform() / np.sum(np.abs(d)))
            else:  # near the step, projected back onto the ball
                w = project_l1_ball_sort(step + 10.0 ** rng.uniform(-4, 0) * d, r)
            assert best <= eval_surrogate(A, y, w, x, beta, gamma) + tol


# -------------------------------------------------------------------- baselines


def test_ista_huge_alpha_zeroes_first_step():
    rng = np.random.default_rng(6)
    A, y = _random_instance(rng)
    res = solve_ista(A, y, 1e6, SolverOptions(max_iter=3), np.full(8, 0.01))
    assert np.array_equal(res.x_final, np.zeros(8))


def test_ista_identity_fixed_point_is_soft_thresholded_data():
    A = DenseMatrix(np.eye(4))
    y = np.array([1.0, 0.0, 0.0, 0.0])
    alpha = 0.05
    res = solve_ista(A, y, alpha, SolverOptions(max_iter=50), np.zeros(4))
    assert np.allclose(res.x_final, soft_threshold(y, alpha), atol=1e-12)
    assert res.termination == Termination.STAGNATION


def test_ista_objective_descent_with_valid_step():
    rng = np.random.default_rng(7)
    A, y = _random_instance(rng)
    r_hat = estimate_opnorm_sq(A).value
    opts = SolverOptions(max_iter=100, L=1.05 * r_hat if r_hat > 1 else 1.0)
    res = solve_ista(A, y, 1e-3, opts, np.full(8, 0.01))
    objs = [rec.objective for rec in res.trace]
    assert all(a >= b - 1e-10 for a, b in zip(objs, objs[1:]))


def test_fista_momentum_formula():
    assert fista_momentum_next(1.0) == pytest.approx((1 + np.sqrt(5.0)) / 2)


@pytest.mark.parametrize("momentum", [False, True], ids=["ista", "fista"])
def test_soft_threshold_solvers_match_reference(momentum):
    # The engine forms FISTA's extrapolated point; the reference forms it in
    # its step closure.  Every output must keep its bits.
    from solver_reference import _soft_threshold_iteration as reference

    from sparsq.problems import cs_desk_instance

    solve = solve_fista if momentum else solve_ista
    for seed in (0, 1):
        inst = cs_desk_instance(seed)
        x0 = np.full(inst.A.domain_dim, 0.01)
        for record_trace in (True, False):
            for L in (1.0, 1.3):
                opts = SolverOptions(max_iter=300, L=L, record_trace=record_trace)
                args = (inst.A, inst.y_delta, 1e-3, opts, x0, inst.x_true)
                out, ref = solve(*args), reference(*args, momentum)
                assert out.x_final.tobytes() == ref.x_final.tobytes()
                assert (out.iterations, out.termination, out.residual_norm) == (
                    ref.iterations, ref.termination, ref.residual_norm)
                fields = ("k", "objective", "residual_norm", "step_norm", "rerror")
                assert [[getattr(rec, f) for f in fields] for rec in out.trace] == [
                    [getattr(rec, f) for f in fields] for rec in ref.trace]


def _outputs(res):
    """A solve's result and its trace fields, everything but the timings."""
    fields = ("k", "objective", "residual_norm", "step_norm", "rerror")
    return (res.x_final.tobytes(), res.iterations, res.termination, res.residual_norm,
            [[getattr(rec, f) for f in fields] for rec in res.trace])


@pytest.mark.parametrize("kind", ["st", "ht"])
def test_st_and_ht_match_their_own_bodies(kind):
    # st and ht run the ISTA body now.  ht keeps its bits at every step
    # constant.  st multiplies by t = 1 / L where it divided by L, so it
    # keeps them at L = 1 and stays within rounding
    # elsewhere.
    import solver_reference

    from sparsq.problems import cs_desk_instance

    solve = {"st": solve_st_l1_l2, "ht": solve_ht_half}[kind]
    reference = getattr(solver_reference, solve.__name__)
    weights = (1e-3, 5e-4) if kind == "st" else (1e-3,)
    for seed in (0, 1):
        inst = cs_desk_instance(seed)
        x0 = np.full(inst.A.domain_dim, 0.01)
        for record_trace in (True, False):
            for L in (1.0, 1.3):
                opts = SolverOptions(max_iter=300, L=L, record_trace=record_trace)
                args = (inst.A, inst.y_delta, *weights, opts, x0, inst.x_true)
                out, ref = solve(*args), reference(*args)
                if kind == "ht" or L == 1.0:
                    assert _outputs(out) == _outputs(ref)
                else:
                    assert (out.iterations, out.termination) == (ref.iterations, ref.termination)
                    gap = np.max(np.abs(out.x_final - ref.x_final))
                    assert gap <= 1e-12 * np.max(np.abs(ref.x_final))


@pytest.mark.parametrize("lk", [1.0, 1.3])
def test_hv_matches_its_own_body(lk, monkeypatch):
    # hv runs the baselines' body now.  It multiplies by t = 1 / L where it
    # divided by L, so it keeps its bits at L = 1 and stays within
    # rounding elsewhere.  The reference steps through the plain prox, so the
    # library's prox is pinned along the whole solve too.
    import solver_reference
    from prox_reference import prox_sq_l1_plain
    from solver_reference import solve_hv as reference

    from sparsq.problems import blur_desk_instance, cs_desk_instance

    monkeypatch.setattr(solver_reference, "prox_sq_l1", prox_sq_l1_plain)

    cases = [(cs_desk_instance(seed), 6e-5) for seed in (0, 1)]
    cases.append((blur_desk_instance(n=16), 1e-5))
    for inst, alpha in cases:
        x0 = np.full(inst.A.domain_dim, 0.01)
        for eta in (0.0, 0.5, 1.0):
            p = RegParams(alpha, eta * alpha)
            for record_trace in (True, False):
                opts = SolverOptions(max_iter=300, L=lk, record_trace=record_trace)
                args = (inst.A, inst.y_delta, p, opts, x0, inst.x_true)
                out, ref = solve_hv(*args), reference(*args)
                if lk == 1.0:
                    assert _outputs(out) == _outputs(ref)
                else:
                    assert (out.iterations, out.termination) == (ref.iterations, ref.termination)
                    gap = np.max(np.abs(out.x_final - ref.x_final))
                    assert gap <= 1e-12 * np.max(np.abs(ref.x_final))


@pytest.mark.parametrize("name, other", [("solve_fista", "solve_ista"),
                                         ("solve_ista", "solve_fista")])
def test_ista_and_fista_do_not_call_each_other(name, other, monkeypatch):
    # perfbench counts each public solver call as one solve
    def refuse(*args, **kwargs):
        raise AssertionError(f"{other} was called")

    solve = getattr(sparsq.solvers, name)
    monkeypatch.setattr(sparsq.solvers, other, refuse)
    rng = np.random.default_rng(8)
    A, y = _random_instance(rng)
    assert solve(A, y, 1e-3, SolverOptions(max_iter=20), np.full(8, 0.01)).iterations >= 1


@pytest.mark.parametrize("name, weights", [("solve_ista", (1e-3,)), ("solve_fista", (1e-3,)),
                                           ("solve_st_l1_l2", (1e-3, 5e-4)),
                                           ("solve_ht_half", (1e-3,)),
                                           ("solve_hv", (RegParams(1e-3, 5e-4),))])
def test_threshold_baselines_call_no_other_public_solver(name, weights, monkeypatch):
    # the five share one private body; perfbench counts each public call once
    solve = getattr(sparsq.solvers, name)
    for other in ("solve_ista", "solve_fista", "solve_st_l1_l2", "solve_ht_half", "solve_hv",
                  "solve_pg_sf"):
        monkeypatch.setattr(sparsq.solvers, other, None)
    A, y = _random_instance(np.random.default_rng(8))
    assert solve(A, y, *weights, SolverOptions(max_iter=20), np.full(8, 0.01)).iterations >= 1


def test_fista_faster_than_ista_on_desk_instance():
    from sparsq.problems import cs_desk_instance

    inst = cs_desk_instance(seed=0, snr_db=40.0)
    opts = SolverOptions(max_iter=400, step_tol=0.0 + 1e-12, record_trace=True)
    x0 = np.full(200, 0.01)
    alpha = 1e-3
    ista = solve_ista(inst.A, inst.y_delta, alpha, opts, x0, inst.x_true)
    fista = solve_fista(inst.A, inst.y_delta, alpha, opts, x0, inst.x_true)
    target = 0.2

    def first_below(res):
        for rec in res.trace:
            if rec.rerror is not None and rec.rerror < target:
                return rec.k
        return np.inf

    assert first_below(fista) < first_below(ista)


def test_st_beta_zero_reduces_to_ista():
    # at every step constant, not only at L = 1
    rng = np.random.default_rng(9)
    A, y = _random_instance(rng)
    for L in (1.0, 1.3):
        opts = SolverOptions(max_iter=40, L=L)
        a = solve_ista(A, y, 2e-3, opts, np.full(8, 0.01))
        b = solve_st_l1_l2(A, y, 2e-3, 0.0, opts, np.full(8, 0.01))
        assert np.array_equal(a.x_final, b.x_final)


def test_st_scalar_hand_computed_step():
    # x0=2, alpha=0.3, beta=0.1, gamma=1, A=I, y=1:
    # u = 2 + (0.1/2)*2 - (2-1) = 1.1 ; S_0.3(1.1) = 0.8
    A = DenseMatrix(np.eye(1))
    res = solve_st_l1_l2(
        A, np.array([1.0]), 0.3, 0.1, SolverOptions(max_iter=1), np.array([2.0])
    )
    assert res.x_final[0] == pytest.approx(0.8, abs=1e-12)


def test_st_zero_iterate_guard():
    A = DenseMatrix(np.eye(2))
    res = solve_st_l1_l2(A, np.ones(2), 0.1, 0.05, SolverOptions(max_iter=3), np.zeros(2))
    assert np.all(np.isfinite(res.x_final))


@pytest.mark.parametrize("solve, args", [(solve_ista, (np.inf,)), (solve_fista, (np.inf,)),
                                         (solve_st_l1_l2, (np.inf, 0.0)),
                                         (solve_ht_half, (np.inf,))])
def test_baselines_reject_infinite_weights(solve, args):
    # an infinite weight zeroes every step, but its trace objective is inf * 0
    A, y = _random_instance(np.random.default_rng(10))
    with pytest.raises(ValueError, match="finite"):
        solve(A, y, *args, SolverOptions(max_iter=3), np.full(8, 0.01))


def test_ht_huge_lam_collapses():
    rng = np.random.default_rng(10)
    A, y = _random_instance(rng)
    res = solve_ht_half(A, y, 1e6, SolverOptions(max_iter=3), np.full(8, 0.01))
    assert np.array_equal(res.x_final, np.zeros(8))


def test_ht_noise_free_identity_recovers_support():
    A = DenseMatrix(np.eye(6))
    y = np.array([2.0, 0.0, -1.5, 0.0, 0.0, 3.0])
    res = solve_ht_half(A, y, 0.05, SolverOptions(max_iter=100), np.full(6, 0.01))
    assert set(np.nonzero(np.abs(res.x_final) > 1e-3)[0]) == {0, 2, 5}


# ------------------------------------------------------------------ machinery


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(max_iter=0)
    with pytest.raises(ValueError):
        SolverOptions(step_tol=0.0)
    for name in ("step_tol", "L"):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            SolverOptions(**{name: np.inf})


def test_iteration_counts_must_be_integers():
    # a non-integral count used to build, then fail in range() with a TypeError
    mdp = dict(r_min=1.0, r_max=1e5, tau1=1.01, tau2=1.1, delta=0.1)
    for value in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            SolverOptions(max_iter=value)
        with pytest.raises(ValueError, match="max_outer must be an integer"):
            MdpOptions(**mdp, max_outer=value)
    assert SolverOptions(max_iter=np.int64(3)).max_iter == 3
    assert MdpOptions(**mdp, max_outer=np.int64(3)).max_outer == 3


def test_pg_gamma_must_be_finite():
    from sparsq.solvers import _pg_denominator

    with pytest.raises(ValueError, match="gamma must be finite"):
        _pg_denominator(0.0, np.inf)
    assert _pg_denominator(0.25, 1.0) == 0.5


def test_deterministic_traces():
    rng = np.random.default_rng(11)
    A, y = _random_instance(rng)
    opts = SolverOptions(max_iter=50)
    first = solve_hv(A, y, RegParams(1e-3, 5e-4), opts, np.full(8, 0.01))
    second = solve_hv(A, y, RegParams(1e-3, 5e-4), opts, np.full(8, 0.01))
    assert np.array_equal(first.x_final, second.x_final)
    for a, b in zip(first.trace, second.trace):
        assert (a.k, a.objective, a.residual_norm, a.step_norm) == (
            b.k,
            b.objective,
            b.residual_norm,
            b.step_norm,
        )


def test_trace_disabled():
    rng = np.random.default_rng(12)
    A, y = _random_instance(rng)
    res = solve_hv(A, y, RegParams(1e-3, 0.0), SolverOptions(max_iter=5, record_trace=False), np.zeros(8))
    assert res.trace == []


class OpaqueOperator(LinearOperator):
    """An operator seen only through apply and apply_adjoint, so its normal
    operator is the generic fallback."""

    def __init__(self, inner):
        self.inner = inner
        self.domain_dim, self.range_dim = inner.domain_dim, inner.range_dim

    def apply(self, x):
        return self.inner.apply(x)

    def apply_adjoint(self, y):
        return self.inner.apply_adjoint(y)


class CountingOperator(LinearOperator):
    """Counts the applies and adjoints made through a wrapped operator, and
    through its normal operator, which is counted on its own."""

    def __init__(self, inner):
        self.inner = inner
        self.domain_dim, self.range_dim = inner.domain_dim, inner.range_dim
        self.applies = self.adjoints = 0

    def apply(self, x):
        self.applies += 1
        return self.inner.apply(x)

    def apply_adjoint(self, y):
        self.adjoints += 1
        return self.inner.apply_adjoint(y)

    @cached_property
    def normal(self):
        return CountingOperator(self.inner.normal)


def _counts(op):
    return (op.applies, op.adjoints, op.normal.applies, op.normal.adjoints)


def _expected_counts(k, record_trace):
    # a k-iteration solve: k normal-operator applies, one adjoint (A*y) and one
    # apply for the final residual; a traced record costs one more apply
    return (k + 1 if record_trace else 1, 1, k, 0)


SOLVER_NAMES = ("hv", "pg", "ista", "fista", "st", "ht")


def _solve(name, A, y, opts):
    x0 = np.full(A.domain_dim, 0.01)
    if name == "hv":
        return solve_hv(A, y, RegParams(1e-3, 5e-4), opts, x0)
    if name == "pg":
        return solve_pg_sf(A, y, 0.01, 1.0, RadiusSpec(0.7), opts, x0)
    if name == "ista":
        return solve_ista(A, y, 1e-3, opts, x0)
    if name == "fista":
        return solve_fista(A, y, 1e-3, opts, x0)
    if name == "st":
        return solve_st_l1_l2(A, y, 1e-3, 5e-4, opts, x0)
    return solve_ht_half(A, y, 1e-3, opts, x0)


@pytest.mark.parametrize("record_trace", [True, False])
@pytest.mark.parametrize("name", SOLVER_NAMES)
def test_one_apply_per_iteration(name, record_trace):
    rng = np.random.default_rng(16)
    A, y = _random_instance(rng)
    op = CountingOperator(A)
    op.opnorm_sq  # solve_hv's step-constant check, left out of the count
    op.applies = op.adjoints = 0
    res = _solve(name, op, y, SolverOptions(max_iter=30, record_trace=record_trace))
    assert _counts(op) == _expected_counts(res.iterations, record_trace)


@pytest.mark.parametrize("record_trace", [True, False])
@pytest.mark.parametrize("kind", sorted(PENALIZED))
def test_penalized_table_one_apply_per_iteration(kind, record_trace):
    # The same count through the table.
    rng = np.random.default_rng(16)
    A, y = _random_instance(rng)
    op = CountingOperator(A)
    op.opnorm_sq
    op.applies = op.adjoints = 0
    opts = SolverOptions(max_iter=30, record_trace=record_trace)
    res = PENALIZED[kind](op, y, 1e-3, 0.5, opts, np.full(8, 0.01))
    assert _counts(op) == _expected_counts(res.iterations, record_trace)


def _operators():
    rng = np.random.default_rng(18)
    blur = KroneckerBlur(9, 3, 0.7)
    tall = DenseMatrix(rng.standard_normal((12, 7)), scale=0.3)
    wide = DenseMatrix(rng.standard_normal((7, 12)), scale=1.7)
    return {
        "blur": blur,
        "dense_tall": tall,
        "dense_wide": wide,
        "scaled_blur": ScaledOperator(blur, 0.4),
        "scaled_dense": ScaledOperator(wide, 2.5),
        "generic": OpaqueOperator(wide),
    }


@pytest.mark.parametrize("name", sorted(_operators()))
def test_gradient_matches_adjoint_of_residual(name):
    op = _operators()[name]
    assert type(op.normal) is (NormalOperator if name == "generic" else type(op))
    rng = np.random.default_rng(19)
    y = rng.standard_normal(op.range_dim)
    grad = _gradient(op, y)
    for _ in range(5):
        x = rng.standard_normal(op.domain_dim)
        direct = op.apply_adjoint(op.apply(x) - y)
        assert np.linalg.norm(grad(x) - direct) <= 1e-12 * np.linalg.norm(direct)


@pytest.mark.parametrize("name", SOLVER_NAMES)
def test_trace_changes_no_iterate(name):
    rng = np.random.default_rng(17)
    A, y = _random_instance(rng)
    traced = _solve(name, A, y, SolverOptions(max_iter=60))
    untraced = _solve(name, A, y, SolverOptions(max_iter=60, record_trace=False))
    assert traced.x_final.tobytes() == untraced.x_final.tobytes()
    assert (traced.iterations, traced.termination) == (untraced.iterations, untraced.termination)
    assert len(traced.trace) == traced.iterations and untraced.trace == []
    for res in (traced, untraced):
        assert res.residual_norm == float(np.linalg.norm(A.apply(res.x_final) - y))


def test_diverging_iteration_stops_nonfinite():
    rng = np.random.default_rng(0)
    # the unit step is far beyond 2 / ||A||^2, so every iterate grows; the
    # descent check warns of it, and nothing else warns
    A = DenseMatrix(rng.standard_normal((20, 40)), scale=3.0)
    y = rng.standard_normal(20)
    with pytest.warns(RuntimeWarning) as caught:
        res = solve_ista(A, y, 1e-3, SolverOptions(max_iter=3000), np.zeros(40))
    assert [str(w.message) for w in caught] == [
        f"L=1 is not above half the smoothness bound ({0.5 * A.opnorm_sq:g}); "
        "descent is not guaranteed"]
    assert res.termination == Termination.NONFINITE
    assert res.iterations < 3000
    assert not np.isfinite(res.trace[-1].step_norm)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", SOLVER_NAMES)
def test_solvers_reject_nonfinite_ydelta(name, bad):
    A, y = _random_instance(np.random.default_rng(18))
    y[2] = bad
    with pytest.raises(ValueError, match="ydelta must be finite"):
        _solve(name, A, y, SolverOptions(max_iter=5))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_searches_reject_nonfinite_ydelta(bad):
    A, y = _random_instance(np.random.default_rng(19))
    y[0] = bad
    opts = SolverOptions(max_iter=5)
    mdp = MdpOptions(r_min=0.01, r_max=10.0, tau1=1.01, tau2=1.1, delta=0.1, max_outer=3)
    with pytest.raises(ValueError, match="ydelta must be finite"):
        search_radius_mdp(A, y, 0.0, 1.0, mdp, opts, np.zeros(A.domain_dim))
    with pytest.raises(ValueError, match="ydelta must be finite"):
        select_alpha_discrepancy(A, y, 0.1, 0.0, "fista", opts, np.full(A.domain_dim, 0.01))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("solver", ["hv", "pg band"])
def test_solvers_reject_a_non_finite_x0(solver, bad):
    # The pg solve with a band sets its bounds up from x0 before the engine
    # checks it: that setup must pass a non-finite x0 on without a warning
    rng = np.random.default_rng(0)
    A, y = _random_instance(rng, m=12, n=6, scale=0.3)
    x0 = np.full(6, 0.01)
    x0[2] = bad
    opts = SolverOptions(max_iter=20, L=A.opnorm_sq)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="x0 must be finite"):
            if solver == "hv":
                solve_hv(A, y, RegParams(1e-3, 0.0), opts, x0)
            else:
                solve_pg_sf(A, y, 0.0, A.opnorm_sq, RadiusSpec(1.0), opts, x0, band=(0.1, 0.2))


def test_rerror_recorded_when_truth_given():
    A = DenseMatrix(np.eye(2))
    truth = np.array([1.0, 0.0])
    res = solve_ista(A, truth, 1e-4, SolverOptions(max_iter=5), np.zeros(2), x_true=truth)
    assert res.trace[0].rerror is not None


def _inputs_instance():
    # 576 entries, so the projection's prefilter and warm cut both run
    from sparsq.problems import add_awgn, gen_blur_instance

    inst = add_awgn(gen_blur_instance(24, 3, 0.7), 60.0, 0)
    return inst.A, inst.y_delta, inst.x_true


def _run_with_truth(name, A, y, x0, x_true):
    opts = SolverOptions(max_iter=40, record_trace=name.endswith("traced"))
    kind = name.split()[0]
    if kind == "search_radius":
        r2 = float(np.sum(np.abs(x_true))) ** 2
        mdp = MdpOptions(r_min=1.0, r_max=20.0 * r2, tau1=1.01, tau2=1.1, delta=1.0, max_outer=6)
        return search_radius_mdp(A, y, 1e-5, 1.0, mdp, opts, x0, x_true).result
    if kind == "select_alpha":
        return select_alpha_discrepancy(A, y, 1.0, 0.5, "st", opts, x0=x0).result
    if kind == "pg":
        return solve_pg_sf(A, y, 1e-5, 1.0, RadiusSpec(0.5 * np.sum(np.abs(x_true))), opts, x0, x_true)
    weights = {"hv": (RegParams(1e-3, 5e-4),), "ista": (1e-3,), "fista": (1e-3,),
               "st": (1e-3, 5e-4), "ht": (1e-3,)}[kind]
    solve = {"hv": solve_hv, "ista": solve_ista, "fista": solve_fista, "st": solve_st_l1_l2,
             "ht": solve_ht_half}[kind]
    return solve(A, y, *weights, opts, x0, x_true)


@pytest.mark.parametrize(
    "name",
    [*SOLVER_NAMES, "pg traced", "search_radius", "search_radius traced", "select_alpha"],
)
def test_solvers_leave_inputs_alone(name, monkeypatch):
    # No solve writes into x0, ydelta or x_true, and no scratch array of one
    # solve is (or is written into) another solve's result.
    monkeypatch.setattr(sparsq.solvers, "ALPHA_MIDPOINTS", 5)
    A, y, x_true = _inputs_instance()
    x0 = np.full(A.domain_dim, 0.01)
    before = [a.tobytes() for a in (x0, y, x_true)]
    first = _run_with_truth(name, A, y, x0, x_true)
    assert [a.tobytes() for a in (x0, y, x_true)] == before
    second = _run_with_truth(name, A, y, x0, x_true)
    assert [a.tobytes() for a in (x0, y, x_true)] == before
    kept = first.x_final.tobytes()
    assert not any(np.shares_memory(second.x_final, a) for a in (first.x_final, x0, y, x_true))
    assert first.x_final.tobytes() == kept == second.x_final.tobytes()


# ------------------------------------------------------------------- MDP / alpha


def test_mdp_options_validation():
    with pytest.raises(ValueError):
        MdpOptions(r_min=1.0, r_max=0.5, tau1=1.01, tau2=1.1, delta=0.1)
    with pytest.raises(ValueError):
        MdpOptions(r_min=0.1, r_max=1.0, tau1=0.9, tau2=1.1, delta=0.1)
    with pytest.raises(ValueError):
        MdpOptions(r_min=0.1, r_max=1.0, tau1=1.2, tau2=1.1, delta=0.1)
    # non-finite settings: with r_max = inf every midpoint is inf
    for field in ("r_max", "tau2", "delta"):
        settings = dict(r_min=1.0, r_max=1e5, tau1=1.01, tau2=1.1, delta=0.1)
        settings[field] = np.inf
        with pytest.raises(ValueError):
            MdpOptions(**settings)


def test_mdp_degenerate_band_not_bracketed():
    # noise-free toy: residual can be driven to ~0, below any tau1*delta with
    # delta forced large, so the band [tau1 d, tau2 d] is never entered from
    # above; the search must flag the failure instead of dying
    A = DenseMatrix(np.eye(3))
    y = np.array([0.5, -0.25, 0.1])
    mdp = MdpOptions(r_min=0.01, r_max=10.0, tau1=2.0, tau2=2.1, delta=10.0, max_outer=8)
    out = search_radius_mdp(A, y, 0.0, 1.0, mdp, SolverOptions(max_iter=50), np.zeros(3))
    assert not out.bracketed
    assert len(out.trace) == 8


def test_mdp_recovers_radius_on_toy_instance():
    rng = np.random.default_rng(13)
    A = DenseMatrix(rng.standard_normal((20, 40)), scale=0.1)
    x_true = np.zeros(40)
    x_true[[3, 17, 29]] = [2.0, -3.0, 1.5]
    y_clean = A.apply(x_true)
    noise = 0.01 * rng.standard_normal(20)
    y = y_clean + noise
    delta = float(np.linalg.norm(noise))
    mdp = MdpOptions(r_min=0.5, r_max=400.0, tau1=1.01, tau2=1.2, delta=delta, max_outer=40)
    out = search_radius_mdp(A, y, 1e-4, 1.0, mdp, SolverOptions(max_iter=600), np.full(40, 0.01))
    assert out.bracketed
    true_rsq = np.sum(np.abs(x_true)) ** 2
    assert out.radius.radius_sq == pytest.approx(true_rsq, rel=0.15)
    assert [rec.j for rec in out.trace] == list(range(1, len(out.trace) + 1))


def test_mdp_trace_option_changes_no_outcome():
    rng = np.random.default_rng(13)
    A = DenseMatrix(rng.standard_normal((20, 40)), scale=0.1)
    x_true = np.zeros(40)
    x_true[[3, 17, 29]] = [2.0, -3.0, 1.5]
    noise = 0.01 * rng.standard_normal(20)
    y = A.apply(x_true) + noise
    mdp = MdpOptions(
        r_min=0.5, r_max=400.0, tau1=1.01, tau2=1.2, delta=float(np.linalg.norm(noise))
    )
    opts = SolverOptions(max_iter=600)
    x0 = np.full(40, 0.01)
    traced = search_radius_mdp(A, y, 1e-4, 1.0, mdp, opts, x0, x_true)
    untraced = search_radius_mdp(
        A, y, 1e-4, 1.0, mdp, replace(opts, record_trace=False), x0, x_true
    )
    assert traced.result.x_final.tobytes() == untraced.result.x_final.tobytes()
    assert traced.radius == untraced.radius and traced.trace == untraced.trace
    # every trial runs untraced, and the search returns the one it landed on
    assert traced.result.trace == untraced.result.trace == []


def _blur_search_instance(snr_db):
    from sparsq.problems import add_awgn, gen_blur_instance

    inst = add_awgn(gen_blur_instance(24, 3, 0.7), snr_db, 0)  # 576 entries
    r_max = 20.0 * float(np.sum(np.abs(inst.x_true))) ** 2
    return inst, MdpOptions(r_min=1.0, r_max=r_max, tau1=1.01, tau2=1.1, delta=inst.delta)


def _cs_search_instance(seed):
    from sparsq.problems import cs_desk_instance

    inst = cs_desk_instance(seed)
    return inst, MdpOptions(r_min=1.0, r_max=1e5, tau1=1.01, tau2=1.1, delta=inst.delta)


def _check_search_against_reference(A, y, beta, gamma, mdp, opts, x0, x_true, monkeypatch):
    """search_radius_mdp against the reference bisection, which solves every
    trial in full: the same radii, decisions and returned solve, and the same
    record for every trial that did not stop.  A stopped trial's record holds
    no rerror and the bound it stopped on, its stop_bound: above the band,
    above tau2 * delta and at or below the full solve's residual; below it,
    below tau1 * delta and at or above the full solve's residual.  A trial
    the search did not solve reused the first one that stayed inside its ball
    and did not end FLOOR_ABOVE_BAND, and its record must hold at its own
    radius, a larger one included.  Returns the search's result, the
    solves of its stopped trials' records, how many of those records reuse a
    trial solved at a smaller radius, and the inner iterations of every solve
    the search ran."""
    from solver_reference import search_radius_reference

    trials = {}  # radius_l1 -> the trial's solve
    solves = []
    real = sparsq.solvers.solve_pg_sf

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        solves.append(result)
        if "band" in kwargs:  # a trial, not the search's final solve
            trials[args[4].radius_l1] = result
        return result

    radius, bracketed, path, (x, iters, termination, residual) = search_radius_reference(
        A, y, beta, gamma, mdp, opts.max_iter, opts.step_tol, x0, x_true
    )
    monkeypatch.setattr(sparsq.solvers, "solve_pg_sf", recording)
    out = search_radius_mdp(A, y, beta, gamma, mdp, opts, x0, x_true)
    assert out.radius == radius and out.bracketed == bracketed
    assert [(r.j, r.radius_sq) for r in out.trace] == [(j, r_sq) for j, r_sq, _, _ in path]
    stopped, raised = [], 0
    for rec, (_, r_sq, full_residual, full_rerror) in zip(out.trace, path):
        radius_l1 = RadiusSpec.from_sq(r_sq).radius_l1
        source = radius_l1 if radius_l1 in trials else next(
            r_l1 for r_l1, t in trials.items()
            if t.peak_l1 <= r_l1 and t.termination is not Termination.FLOOR_ABOVE_BAND
        )
        trial = trials[source]
        if trial.stop_bound is None:
            assert (rec.residual_norm, rec.rerror) == (full_residual, full_rerror)
            continue
        assert rec.residual_norm == trial.stop_bound and rec.rerror is None
        if trial.termination in (Termination.ABOVE_BAND, Termination.FLOOR_ABOVE_BAND):
            assert mdp.tau2 * mdp.delta < rec.residual_norm <= full_residual
        else:
            assert trial.termination is Termination.BELOW_BAND
            assert full_residual <= rec.residual_norm < mdp.tau1 * mdp.delta
        stopped.append(trial)
        raised += source < radius_l1
    res = out.result
    assert res.x_final.tobytes() == x.tobytes()
    assert (res.iterations, res.termination, res.residual_norm) == (iters, termination, residual)
    return out, stopped, raised, sum(solve.iterations for solve in solves)


@pytest.mark.parametrize(
    "make, beta, max_iter, stops, raised, iterations",
    [
        # bracketed; the first three trials never project.  Each stop is
        # named by its termination, which names the bound that made it:
        # "floor" (FLOOR_ABOVE_BAND, above the band on the ball floor),
        # "range" (ABOVE_BAND, above it on the contraction range) or "below"
        # (BELOW_BAND, below it on the contraction range).  iterations is the
        # search's inner iterations over every solve it ran: the objective's
        # descent ends below-band trials earlier than the contraction range
        # alone did (2256 and 4378 before it on the two blur cases that stop
        # below the band)
        (lambda: _blur_search_instance(40.0), 1e-5, 300, {"floor", "below"}, 0, 1080),
        # the residual stays above the band: 40 trials, none projects, and
        # the 39 after the first reuse it, which its contraction range
        # stopped, each at a larger radius than its own
        (lambda: _blur_search_instance(60.0), 1e-5, 300, {"range"}, 39, 597),
        (lambda: _blur_search_instance(50.0), 1e-5, 600, {"floor", "range", "below"}, 0, 2522),
        # m < n: the contraction exit is off, and only the ball floor stops
        (lambda: _cs_search_instance(0), 6e-5, 1500, {"floor"}, 0, 13459),
        (lambda: _cs_search_instance(14), 6e-5, 1500, {"floor"}, 0, 9154),
    ],
    ids=["blur-bracketed", "blur-above-band", "blur-both-sides", "cs-seed0", "cs-seed14"],
)
def test_search_radius_matches_reference(make, beta, max_iter, stops, raised, iterations,
                                         monkeypatch):
    # The in-place pg step, the warm-started projection, the reuse of
    # unprojected trials and the trials' stops on either side of the band
    # keep the plain search's radii, decisions and returned bits
    import sparsq.proxops
    from solver_reference import pg_solve_reference

    inst, mdp = make()
    A, y, n = inst.A, inst.y_delta, inst.A.domain_dim
    x0 = np.full(n, 0.01)
    cuts = []
    kernel = sparsq.proxops._sort_threshold

    def recording(absx, offset, ridge, total, cut=None):
        cuts.append(cut)
        return kernel(absx, offset, ridge, total, cut)

    opts = SolverOptions(max_iter=max_iter, record_trace=False)
    monkeypatch.setattr(sparsq.proxops, "_sort_threshold", recording)
    out, stopped, reused, inner = _check_search_against_reference(A, y, beta, 1.0, mdp, opts, x0,
                                                                  inst.x_true, monkeypatch)
    assert (reused, inner) == (raised, iterations)
    names = {Termination.BELOW_BAND: "below", Termination.FLOOR_ABOVE_BAND: "floor",
             Termination.ABOVE_BAND: "range"}
    assert {names[t.termination] for t in stopped} == stops
    cuts = [cut for cut in cuts if cut is not None]  # the reference's projections pass none
    if n >= 512 and cuts:  # the blur search projects with a warm cut
        assert sum(cut > 0 for cut in cuts) > 0.9 * len(cuts)

    # and one solve on its own, with no search around it
    r = out.radius
    res = solve_pg_sf(A, y, beta, 1.0, r, opts, x0)
    x, iters, termination, residual = pg_solve_reference(
        A, y, beta, 1.0, r, max_iter, opts.step_tol, x0
    )
    assert res.x_final.tobytes() == x.tobytes()
    assert (res.iterations, res.termination, res.residual_norm) == (iters, termination, residual)


def test_search_radius_never_reuses_a_stopped_trial(monkeypatch):
    # A = I, y = (1, 1, 1), gamma = 10: from x0 = 0 the first step's point is
    # y / 10, inside the first trial's ball (radius 1).  That trial's floor,
    # (3 - 1) / sqrt(3) = 1.155, is above tau2 * delta = 1.1 at step 1, so it
    # stops with a partial peak_l1 of 0.3.  Reused at the next radius (1.22),
    # it would report the residual 1.56 of its one step, not the full solve's
    # 1.025, and turn the search the wrong way.
    A = DenseMatrix(np.eye(3))
    y = np.ones(3)
    mdp = MdpOptions(r_min=1e-6, r_max=2.0, tau1=1.01, tau2=1.1, delta=1.0, max_outer=10)
    opts = SolverOptions(max_iter=400, record_trace=False)
    _, stopped, _, _ = _check_search_against_reference(A, y, 0.0, 10.0, mdp, opts, np.zeros(3),
                                                    np.full(3, 0.4), monkeypatch)
    assert stopped and stopped[0].iterations == 1 and stopped[0].peak_l1 <= 1.0


def test_search_radius_reuses_a_range_stop_with_its_range_bound(monkeypatch):
    # The same instance capped at 20 steps: with A = I the step map contracts
    # by q = 0.9, and every full solve ends above 0.9^20 sqrt(3) = 0.21, over
    # the band's top 0.15, so the search climbs from its first trial (radius
    # 1).  At x0 = 0 both the range's low end (about 0.21) and that ball's floor
    # (1.155) pass 0.15.  The record holds the low end, which holds at every
    # later radius that reuses the trial; the floor does not: at radius 1.22
    # the full solve's residual is about 1.03.
    A = DenseMatrix(np.eye(3))
    mdp = MdpOptions(r_min=1e-6, r_max=2.0, tau1=1.01, tau2=1.1, delta=0.15 / 1.1, max_outer=10)
    opts = SolverOptions(max_iter=20, record_trace=False)
    out, stopped, raised, _ = _check_search_against_reference(A, np.ones(3), 0.0, 10.0, mdp,
                                                              opts, np.zeros(3), np.full(3, 0.4),
                                                              monkeypatch)
    first = stopped[0]
    assert first.iterations == 1 and first.termination is Termination.ABOVE_BAND
    radius = RadiusSpec.from_sq(out.trace[0].radius_sq).radius_l1
    bounds = _band_bounds(A, np.ones(3), np.ones(3), 0.0, 10.0, radius, np.zeros(3), 20)
    step = np.full(3, 0.1)  # x1 - x0 = y / gamma, inside the ball; g = -y at x0 = 0
    near, _, floor = bounds(1, np.zeros(3), -np.ones(3), float(np.sqrt(step.dot(step))))
    assert near == first.stop_bound < 0.22 < 1.15 < floor
    assert raised == len(stopped) - 1 == len(out.trace) - 1 > 0 and not out.bracketed


def test_search_radius_reruns_a_stopped_last_trial(monkeypatch):
    # The same instance with the band's top at 0.8, below the least residual
    # over every trial ball ((3 - R) / sqrt(3) >= 0.91 for R <= sqrt(2)): all
    # five trials stop, the search does not bracket, and its result is the
    # last trial solved in full
    A = DenseMatrix(np.eye(3))
    mdp = MdpOptions(r_min=1e-6, r_max=2.0, tau1=1.01, tau2=1.1, delta=0.8 / 1.1, max_outer=5)
    opts = SolverOptions(max_iter=400, record_trace=False)
    out, stopped, _, _ = _check_search_against_reference(A, np.ones(3), 0.0, 10.0, mdp, opts,
                                                         np.zeros(3), np.full(3, 0.4), monkeypatch)
    assert len(stopped) == 5 and not out.bracketed


def test_search_radius_reuses_unprojected_trials(monkeypatch):
    # A trial at or above the peak l1 norm of the first unprojected solve
    # calls no solve_pg_sf: the search's trial count exceeds its solve count
    calls = []
    real = sparsq.solvers.solve_pg_sf

    def counting(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args[4].radius_l1, result.peak_l1))
        return result

    monkeypatch.setattr(sparsq.solvers, "solve_pg_sf", counting)
    inst, mdp = _blur_search_instance(40.0)
    opts = SolverOptions(max_iter=300, record_trace=False)
    out = search_radius_mdp(inst.A, inst.y_delta, 1e-5, 1.0, mdp, opts, np.full(576, 0.01))
    assert out.bracketed
    radii = [float(np.sqrt(rec.radius_sq)) for rec in out.trace]
    # the first trial never projects; the next ones at or above its peak reuse it
    first_radius, peak = calls[0]
    assert peak <= first_radius
    reused = [r for r in radii[1:] if r >= peak]
    assert reused and len(calls) == len(radii) - len(reused)
    assert all(r < peak for r, _ in calls[1:])


def test_pg_reports_peak_l1():
    A = DenseMatrix(np.eye(2))
    y = np.array([3.0, -1.0])
    opts = SolverOptions(max_iter=3)
    res = solve_pg_sf(A, y, 0.0, 1.0, RadiusSpec(10.0), opts, np.zeros(2))
    assert res.peak_l1 == 4.0  # u = y at every step, inside the ball
    res = solve_pg_sf(A, y, 0.0, 1.0, RadiusSpec(1.0), opts, np.zeros(2))
    assert res.peak_l1 == 4.0 and np.sum(np.abs(res.x_final)) <= 1.0


@given(
    seed=st.integers(0, 2**32 - 1),
    gamma=st.floats(0.5, 4.0),
    beta_frac=st.floats(0.0, 0.49, exclude_max=True),
    log_radius=st.floats(-2.0, 1.5),
    stop_frac=st.floats(0.2, 1.5),
)
# the floor passes the band's top at step 9, where the step norm ends the full solve
@example(seed=216, gamma=0.5, beta_frac=0.0, log_radius=0.0, stop_frac=0.96875)
@settings(max_examples=100, deadline=None)
# gamma is sampled down to 0.5, below the descent bound of most instances, on
# purpose: the floor holds at every gamma
@pytest.mark.filterwarnings("ignore:gamma=.* is not above half the smoothness bound:RuntimeWarning")
def test_pg_residual_floor_bounds_the_full_solve(seed, gamma, beta_frac, log_radius, stop_frac):
    # The floor is a bound over the ball, so it holds at every beta < gamma / 2:
    # read at x0 and at the full solve's result (where it is tightest) it
    # never exceeds the full solve's residual; m < n turns the range off, so
    # a solve stops only on the floor, where the full one ends above
    # stop_above; and one that does not stop is the full solve, bit for bit
    rng = np.random.default_rng(seed)
    A, y = _random_instance(rng)
    beta, r = beta_frac * gamma / 2.0, RadiusSpec(10.0**log_radius)
    opts, x0 = SolverOptions(max_iter=200, record_trace=False), np.full(8, 0.01)
    full = solve_pg_sf(A, y, beta, gamma, r, opts, x0)
    stop_above = stop_frac * full.residual_norm
    part = solve_pg_sf(A, y, beta, gamma, r, opts, x0, band=(0.0, stop_above))
    assert full.stop_bound is None
    bounds = _band_bounds(A, y, A.apply_adjoint(y), beta, gamma, r.radius_l1, x0, 200)
    for x in (x0, full.x_final):
        assert 0.0 <= bounds(1, x, A.apply_adjoint(A.apply(x) - y), 0.0)[2] <= full.residual_norm
    if part.termination is Termination.FLOOR_ABOVE_BAND:
        assert stop_above < part.stop_bound <= full.residual_norm
        assert np.sum(np.abs(part.x_final)) <= r.radius_l1 * (1 + 1e-12)
    else:
        assert part.stop_bound is None
        assert part.x_final.tobytes() == full.x_final.tobytes()
        assert (part.iterations, part.termination) == (full.iterations, full.termination)


@given(
    seed=st.integers(0, 2**32 - 1),
    gamma_frac=st.floats(0.55, 3.0),
    beta_frac=st.floats(0.0, 0.99),
    log_radius=st.floats(-1.0, 1.5),
    low_frac=st.floats(0.5, 1.5),
    width=st.floats(0.0, 0.2),
)
@settings(max_examples=100, deadline=None)
@pytest.mark.filterwarnings("ignore:gamma=.* is not above half the smoothness bound:RuntimeWarning")
def test_pg_contraction_bound_certifies_the_full_solve(seed, gamma_frac, beta_frac, log_radius,
                                                       low_frac, width):
    # m >= n and 2 beta < lambda_min: the step map contracts (gamma is drawn
    # so that lambda_max < 2 gamma - 2 beta), so the exit is on.  Its range
    # holds the full solve's residual, a solve stops only on the side of the
    # band where the full one ends, and one that does not stop is the full
    # solve, bit for bit
    rng = np.random.default_rng(seed)
    A, y = _random_instance(rng, m=12, n=6, scale=0.3)
    lam_min, lam_max = A.normal_spectrum
    beta = beta_frac * lam_min / 2.0
    gamma = gamma_frac * lam_max + beta
    r = RadiusSpec(10.0**log_radius)
    opts, x0 = SolverOptions(max_iter=200, record_trace=False), np.full(6, 0.01)
    full = solve_pg_sf(A, y, beta, gamma, r, opts, x0)
    low = low_frac * full.residual_norm
    part = solve_pg_sf(A, y, beta, gamma, r, opts, x0, band=(low, low * (1.0 + width)))
    if part.termination is Termination.BELOW_BAND:
        assert full.residual_norm <= part.stop_bound < low
    elif part.termination in (Termination.ABOVE_BAND, Termination.FLOOR_ABOVE_BAND):
        assert low * (1.0 + width) < part.stop_bound <= full.residual_norm
    else:
        assert part.stop_bound is None
        assert part.x_final.tobytes() == full.x_final.tobytes()
        assert (part.iterations, part.termination) == (full.iterations, full.termination)


@given(
    seed=st.integers(0, 2**32 - 1),
    gamma_frac=st.floats(0.55, 3.0),
    beta_frac=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
    log_radius=st.floats(-1.0, 1.5),
)
@settings(max_examples=100, deadline=None)
def test_pg_objective_descends_within_the_derived_slack(seed, gamma_frac, beta_frac, log_radius):
    # The contraction range's high end rests on the descent of
    # D(x) = 0.5||Ax - y||^2 - beta ||x||^2 along the pg iterates: a computed
    # step may raise D by at most the range's per-step rise at a norm bound
    # of every iterate.  On the instances of the property above, run to
    # stagnation or the cap, the traced eval_D never rises by more; its own
    # rounding stays far below that rise (under 2% of it in 300 draws)
    rng = np.random.default_rng(seed)
    A, y = _random_instance(rng, m=12, n=6, scale=0.3)
    lam_min, lam_max = A.normal_spectrum
    beta = beta_frac * lam_min / 2.0
    gamma = gamma_frac * lam_max + beta
    r, x0 = RadiusSpec(10.0**log_radius), np.full(6, 0.01)
    bounds = _band_bounds(A, y, A.apply_adjoint(y), beta, gamma, r.radius_l1, x0, 300)
    assume(bounds.rise is not None)  # q < 1 after the spectrum's widening
    full = solve_pg_sf(A, y, beta, gamma, r, SolverOptions(max_iter=300, step_tol=1e-300), x0)
    # every iterate after x0 is a projection onto the ball
    slack = bounds.rise(max(r.radius_l1, float(np.linalg.norm(x0))) * (1.0 + 1e-12))
    objective = [eval_D(A, y, x0, beta)] + [rec.objective for rec in full.trace]
    assert max(b - a for a, b in zip(objective, objective[1:])) <= slack


def test_pg_contraction_high_end_covers_the_rise_of_every_step_left():
    # A bound step from a unit x at y = 0, g = 0 and a zero step norm: a zero
    # residual with no floor margin (rr = err = 0), so the high end is all
    # margin, and still covers twice the K - k + 1 rises of D that rounding
    # may add from x_{k-1}, each up to bounds.rise at the iterates' norm bound
    rng = np.random.default_rng(0)
    A, _ = _random_instance(rng, m=12, n=6, scale=0.3)
    y, x = np.zeros(12), np.eye(6)[0]
    bounds = _band_bounds(A, y, A.apply_adjoint(y), 0.0, A.opnorm_sq, 1.0, x, 200)
    for k in (1, 97, 193):
        near, far, floor = bounds(k, x, np.zeros(6), 0.0)
        assert near == floor == 0.0
        assert far >= np.sqrt(2.0 * (201 - k) * bounds.rise(1.0)) > 0.0


@given(seed=st.integers(0, 2**32 - 1), low_frac=st.floats(1.0, 100.0, exclude_min=True))
@settings(max_examples=50, deadline=None)
def test_pg_contraction_exit_is_off_when_m_below_n(seed, low_frac):
    # lambda_min(A*A) = 0 when m < n: no contraction range, and a band above
    # the full solve's residual never stops a solve below it
    rng = np.random.default_rng(seed)
    A, y = _random_instance(rng)
    assert A.normal_spectrum[0] == 0.0
    opts, x0 = SolverOptions(max_iter=200, record_trace=False), np.full(8, 0.01)
    full = solve_pg_sf(A, y, 1e-4, 1.0, RadiusSpec(1.0), opts, x0)
    low = low_frac * full.residual_norm
    part = solve_pg_sf(A, y, 1e-4, 1.0, RadiusSpec(1.0), opts, x0, band=(low, 2.0 * low))
    bounds = _band_bounds(A, y, A.apply_adjoint(y), 1e-4, 1.0, 1.0, x0, 200)
    g = A.apply_adjoint(A.apply(x0) - y)
    assert bounds.rise is None and bounds(1, x0, g, 0.1)[:2] == (0.0, np.inf)
    assert part.stop_bound is None and part.termination is full.termination
    assert part.x_final.tobytes() == full.x_final.tobytes()


def test_pg_range_is_off_without_a_spectrum_or_a_margin(monkeypatch):
    # Above the spectrum guard an operator gives no eigenvalues, so no range;
    # on a contracting instance, a cap of 10**16 steps leaves C a >= 1 at
    # step 1 (the accumulated rounding outgrows the contraction), so no
    # range there either, while a cap of 200 gives one
    monkeypatch.setattr(sparsq.linops, "DENSIFY_GUARD", 100)
    rng = np.random.default_rng(0)
    A = DenseMatrix(rng.standard_normal((12, 16)))
    y, x = rng.standard_normal(12), np.full(16, 0.01)
    assert A.normal_spectrum is None
    bounds = _band_bounds(A, y, A.apply_adjoint(y), 0.0, A.opnorm_sq, 1.0, x, 200)
    g = A.apply_adjoint(A.apply(x) - y)
    assert bounds.rise is None and bounds(1, x, g, 0.1)[:2] == (0.0, np.inf)
    A, y = _random_instance(rng, m=12, n=6, scale=0.3)
    x = np.full(6, 0.01)
    g = A.apply_adjoint(A.apply(x) - y)
    for max_iter, on in ((200, True), (10**16, False)):
        bounds = _band_bounds(A, y, A.apply_adjoint(y), 0.0, A.opnorm_sq, 1.0, x, max_iter)
        assert bounds.rise is not None
        assert (bounds(1, x, g, 0.1)[:2] != (0.0, np.inf)) == on


def test_pg_stop_above_checks_every_eighth_step():
    # A = I, y = (1, 1, 1), gamma = 10, radius 1: the floor at x = 0 is
    # (3 - 1) / sqrt(3) = 1.155, the least residual over the ball: above 1.1
    # at the first step, and below 1.16 at every step
    A, y, r = DenseMatrix(np.eye(3)), np.ones(3), RadiusSpec(1.0)
    opts = SolverOptions(max_iter=30, record_trace=False)
    res = solve_pg_sf(A, y, 0.0, 10.0, r, opts, np.zeros(3), band=(0.0, 1.1))
    assert (res.iterations, res.termination) == (1, Termination.FLOOR_ABOVE_BAND)
    assert res.stop_bound == pytest.approx(2.0 / np.sqrt(3.0), rel=1e-12)
    assert res.stop_bound < 2.0 / np.sqrt(3.0)  # the rounding margin, taken
    # a Python float, not a numpy scalar (which isinstance(..., float) also accepts)
    assert type(res.stop_bound) is float
    # From x0 = (1, 1, 0.5) the floor of the iterate passes 1 after 7 steps
    # (1.0024), but step 8 forms no bound; step 9 does.  A = [I | 0] takes
    # the same steps with a zero fourth entry, and its m < n turns the
    # contraction range off, so the floor ends the solve
    wide = DenseMatrix(np.hstack([np.eye(3), np.zeros((3, 1))]))
    assert _band_bounds(wide, y, y, 0.0, 10.0, 1.0, np.zeros(4), 30).rise is None
    res = solve_pg_sf(wide, y, 0.0, 10.0, r, opts, np.array([1.0, 1.0, 0.5, 0.0]),
                      band=(0.0, 1.0))
    assert (res.iterations, res.termination) == (9, Termination.FLOOR_ABOVE_BAND)
    assert res.stop_bound == pytest.approx(1.01870, abs=1e-5)
    # with A = I the range is on, and its low end ends the solve at step 9 first
    res = solve_pg_sf(A, y, 0.0, 10.0, r, opts, np.array([1.0, 1.0, 0.5]), band=(0.0, 1.0))
    assert (res.iterations, res.termination) == (9, Termination.ABOVE_BAND)
    assert res.stop_bound == pytest.approx(1.00957, abs=1e-5)
    res = solve_pg_sf(A, y, 0.0, 10.0, r, opts, np.zeros(3), band=(0.0, 1.16))
    assert res.termination is Termination.STAGNATION and res.stop_bound is None
    bounds = _band_bounds(A, y, y, 0.0, 10.0, 1.0, np.zeros(3), 30)
    iterates = [np.zeros(3)] + [
        solve_pg_sf(A, y, 0.0, 10.0, r, replace(opts, max_iter=k), np.zeros(3)).x_final
        for k in range(1, res.iterations + 1)
    ]
    assert all(bounds(1, x, x - y, 0.0)[2] < 1.16 for x in iterates)  # g = x - y with A = I


def test_pg_ball_floor_takes_its_rounding_margin():
    # y = A v and x = v on the ball of radius ||v||_1: the least residual
    # over the ball is 0, at v, and g = A*(Av - y) = 0, so the floor's h and
    # ||r||^2 are both ||y||^2 - v.A*y, pure rounding.  Only the margin err
    # keeps the floor at exactly 0.0 there (without it, 44 of these 200
    # floors were positive), and keeps a band just above 0 from stopping a
    # solve whose full residual lies inside it (8 of 200 stopped without it)
    rng = np.random.default_rng(0)
    opts = SolverOptions(max_iter=200, record_trace=False)
    for _ in range(200):
        A = DenseMatrix(rng.standard_normal((6, 10)))
        v = rng.standard_normal(10) * (rng.random(10) < 0.5)  # about half nonzero
        if not v.any():
            v[0] = 1.0
        y = A.apply(v)
        radius, gamma = float(np.sum(np.abs(v))), 1.0 + A.opnorm_sq
        bounds = _band_bounds(A, y, A.apply_adjoint(y), 0.0, gamma, radius, v, 200)
        assert bounds(1, v, A.apply_adjoint(A.apply(v) - y), 0.0)[2] == 0.0
        high = 1e-10 * float(np.linalg.norm(y))
        res = solve_pg_sf(A, y, 0.0, gamma, RadiusSpec(radius), opts, v, band=(0.0, high))
        assert res.termination is not Termination.FLOOR_ABOVE_BAND and res.residual_norm <= high


@given(
    knots=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=8),
    decreasing=st.booleans(),
    low=st.floats(-10.0, 10.0),
    width=st.floats(0.0, 5.0),
    steps=st.integers(1, 12),
    geometric=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_bisect_returns_the_trial_it_landed_on(knots, decreasing, low, width, steps, geometric):
    # A monotone piecewise-linear residual on [1, 2], increasing as alpha's is
    # or decreasing as the radius's is; small, the small-residual end, is 1 or
    # 2.  The loop returns the p and the solve of its last trial, which is the
    # first to land in the band or the steps-th
    from sparsq.solvers import _bisect

    xs, ys = np.linspace(1.0, 2.0, len(knots)), sorted(knots, reverse=decreasing)
    small, large = (2.0, 1.0) if decreasing else (1.0, 2.0)
    high = low + width
    trials = []

    def trial(p):
        trials.append((p, float(np.interp(p, xs, ys)), object()))
        return trials[-1][1:]

    midpoint = (lambda a, b: float(np.sqrt(a * b))) if geometric else (lambda a, b: 0.5 * (a + b))
    p, solve, bracketed = _bisect(trial, small, large, (low, high), steps, midpoint)
    assert 1 <= len(trials) <= steps
    last_p, last_residual, last_solve = trials[-1]
    assert p == last_p and solve is last_solve
    assert bracketed == (low <= last_residual <= high)
    assert not any(low <= residual <= high for _, residual, _ in trials[:-1])
    assert bracketed or len(trials) == steps


@pytest.mark.parametrize(
    "kwargs",
    [
        {"delta": np.inf},
    ],
    ids=["delta-inf"],
)
def test_select_alpha_rejects_bad_settings(kwargs):
    args = {"delta": 0.1, **kwargs}
    with pytest.raises(ValueError):
        select_alpha_discrepancy(
            DenseMatrix(np.eye(2)), np.ones(2), eta=0.0, solver="fista",
            opts=SolverOptions(max_iter=5), x0=np.full(2, 0.01), **args,
        )


def test_select_alpha_monotone_endpoints():
    rng = np.random.default_rng(14)
    A, y = _random_instance(rng, m=10, n=12, scale=0.12)
    delta = 0.05
    opts = SolverOptions(max_iter=2000, record_trace=False)
    # huge alpha over-shrinks: residual well above delta
    big = solve_hv(A, y, RegParams(0.1, 0.0), opts, np.full(12, 0.01))
    assert np.linalg.norm(A.apply(big.x_final) - y) >= delta
    # tiny alpha nearly interpolates: residual below delta
    small = solve_hv(A, y, RegParams(1e-8, 0.0), opts, np.full(12, 0.01))
    assert np.linalg.norm(A.apply(small.x_final) - y) < delta


def test_select_alpha_lands_in_band():
    rng = np.random.default_rng(15)
    A, _ = _random_instance(rng, m=10, n=12, scale=0.12)
    x_true = np.zeros(12)
    x_true[[2, 7]] = [1.5, -2.0]
    noise = 0.02 * rng.standard_normal(10)
    y = A.apply(x_true) + noise
    delta = float(np.linalg.norm(noise))
    sel = select_alpha_discrepancy(
        A, y, delta, 0.5, "hv", SolverOptions(max_iter=2000, record_trace=False), np.full(12, 0.01)
    )
    assert sel.bracketed
    assert delta <= sel.result.residual_norm <= 1.05 * delta


def test_select_alpha_desk_instance_order_of_magnitude():
    from sparsq.problems import cs_desk_instance

    inst = cs_desk_instance(seed=0, snr_db=40.0)
    sel = select_alpha_discrepancy(
        inst.A, inst.y_delta, inst.delta, 1.0, "hv",
        SolverOptions(max_iter=800, record_trace=False), np.full(inst.A.domain_dim, 0.01),
    )
    assert sel.bracketed
    assert 6e-6 <= sel.alpha <= 6e-4


def test_select_alpha_unreachable_band_flags(monkeypatch):
    A = DenseMatrix(np.eye(2))
    y = np.array([1.0, 1.0])
    # delta larger than any achievable residual at the top of the bracket
    monkeypatch.setattr(sparsq.solvers, "ALPHA_BRACKET", (1e-8, 1e-6))
    sel = select_alpha_discrepancy(
        A, y, 10.0, 0.0, "hv", SolverOptions(max_iter=50, record_trace=False), np.full(2, 0.01)
    )
    assert not sel.bracketed


@pytest.mark.parametrize("solver", ["hv", "ista", "fista", "st"])
def test_select_alpha_matches_reference(solver, monkeypatch):
    # The one bisection loop asks for the reference loop's alphas in its order
    # and returns its alpha and residual, and the solve at that alpha.  Its
    # bracketed flag differs only where the reference's extra midpoint after
    # its loop landed in the band unflagged.  Solves are memoized per alpha, so
    # both searches share them.
    from sparsq.problems import cs_desk_instance
    from solver_reference import select_alpha_reference

    solve = PENALIZED[solver]
    brackets = [(1e-8, 1e-1), (1e-8, 1e-6), (1e-2, 1e-1)]
    for seed in range(3):
        inst = cs_desk_instance(seed)
        memo, calls = {}, []

        def memoized(A, y, alpha, *rest):
            calls.append(alpha)
            if alpha not in memo:
                memo[alpha] = solve(A, y, alpha, *rest)
            return memo[alpha]

        monkeypatch.setitem(PENALIZED, solver, memoized)
        args = (inst.A, inst.y_delta, inst.delta, 0.5, solver)
        x0 = np.full(inst.A.domain_dim, 0.01)
        for bracket in brackets:
            for max_steps in (3, 0):
                kwargs = {"alpha_bracket": bracket, "max_steps": max_steps}
                ref_alpha, ref_residual, ref_bracketed = select_alpha_reference(*args, **kwargs)
                ref_calls = calls.copy()
                calls.clear()
                monkeypatch.setattr(sparsq.solvers, "ALPHA_BRACKET", bracket)
                monkeypatch.setattr(sparsq.solvers, "ALPHA_MIDPOINTS", max_steps + 1)
                out = select_alpha_discrepancy(*args, SolverOptions(), x0)
                assert calls == ref_calls
                assert (out.alpha, out.result.residual_norm) == (ref_alpha, ref_residual)
                assert out.result is memo[out.alpha]
                in_band = inst.delta <= ref_residual <= 1.05 * inst.delta
                assert out.bracketed == (ref_bracketed or in_band)
                calls.clear()


def test_select_alpha_flags_an_in_band_last_midpoint(monkeypatch):
    # With one midpoint, the one tried, 6e-5, lands in the band, and is the
    # last trial: it must still count as bracketed
    from sparsq.problems import cs_desk_instance

    inst = cs_desk_instance(0)
    opts = SolverOptions(record_trace=False)
    x0 = np.full(inst.A.domain_dim, 0.01)
    delta = solve_fista(inst.A, inst.y_delta, 6e-5, opts, x0).residual_norm / 1.02
    monkeypatch.setattr(sparsq.solvers, "ALPHA_BRACKET", (6e-6, 6e-4))
    monkeypatch.setattr(sparsq.solvers, "ALPHA_MIDPOINTS", 1)
    sel = select_alpha_discrepancy(inst.A, inst.y_delta, delta, 0.0, "fista", opts, x0)
    assert sel.alpha == 6e-5 and sel.bracketed
    assert delta <= sel.result.residual_norm <= 1.05 * delta


@pytest.mark.parametrize("solver", ["fista", "hv"])
@pytest.mark.parametrize("end", [0, 1], ids=["lo", "hi"])
def test_select_alpha_returns_a_bracket_end_in_the_band(solver, end, monkeypatch):
    # delta at an end's residual / 1.02 puts that residual in [delta, 1.05 delta]:
    # the lo end is returned, bracketed, after its one solve, and the hi end
    # after the lo end's solve (below delta) and its own
    from sparsq.problems import cs_desk_instance

    inst = cs_desk_instance(0)
    opts = SolverOptions(record_trace=False)
    x0 = np.full(inst.A.domain_dim, 0.01)
    solve, calls = PENALIZED[solver], []

    def counted(A, y, alpha, *rest):
        calls.append(alpha)
        return solve(A, y, alpha, *rest)

    alpha = sparsq.solvers.ALPHA_BRACKET[end]
    delta = solve(inst.A, inst.y_delta, alpha, 1.0, opts, x0).residual_norm / 1.02
    monkeypatch.setitem(PENALIZED, solver, counted)
    sel = select_alpha_discrepancy(inst.A, inst.y_delta, delta, 1.0, solver, opts, x0)
    assert (sel.alpha, sel.bracketed) == ((1e-8, 0.1)[end], True)
    assert calls == [1e-8, 0.1][: end + 1]
    assert delta <= sel.result.residual_norm <= 1.05 * delta


@pytest.mark.parametrize("solver", ["pg", "ht", "lasso"])
def test_select_alpha_rejects_kinds_outside_the_table(solver):
    with pytest.raises(ValueError, match="unknown solver"):
        select_alpha_discrepancy(DenseMatrix(np.eye(2)), np.ones(2), 0.1, 0.0, solver,
                                 SolverOptions(), np.full(2, 0.01))


def test_penalized_table_looks_solvers_up_when_called(monkeypatch):
    # A patched module attribute must see the alpha search's inner solves.
    calls = []
    real = sparsq.solvers.solve_ista

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(sparsq.solvers, "solve_ista", counting)
    monkeypatch.setattr(sparsq.solvers, "ALPHA_BRACKET", (1e-8, 1e-6))
    sel = select_alpha_discrepancy(
        DenseMatrix(np.eye(2)), np.array([1.0, 1.0]), 10.0, 0.0, "ista",
        SolverOptions(max_iter=50), np.full(2, 0.01),
    )
    assert calls[0] == 1e-8 and calls[-1] == sel.alpha
