"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line with the
measured quantities when it succeeds (run with -s to see them).  Tolerances
are pinned here and nowhere else.  The reproduction criteria (5-9, 11, 12) are
tolerance-band or trend checks over seeded instances; the property criteria
(1-4, 10) are exact-tolerance checks.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import sparsq.proxops
from sparsq.linops import DenseMatrix, KroneckerBlur, densify, estimate_opnorm_sq
from sparsq.problems import blur_desk_instance, cs_desk_instance
from sparsq.proxops import (
    RadiusSpec,
    project_l1_ball_hv,
    project_l1_ball_sort,
    prox_sq_l1,
    soft_threshold,
)
from sparsq.regfun import RegParams, grad_f
from sparsq.solvers import (
    MdpOptions,
    SolverOptions,
    search_radius_mdp,
    solve_hv,
    solve_pg_sf,
)
from sparsq.problems import snr_metric
from sparsq.bench import load_config
from sparsq import cli
from prox_reference import prox_sq_l1_newton

SEEDS = tuple(range(10))


def test_criterion_1_prox_oracle_equivalence():
    rng = np.random.default_rng(1001)
    worst_gap = 0.0
    worst_reparam = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 5))
        x = 4.0 * rng.standard_normal(n)
        alpha = float(rng.uniform(0.01, 4.0))
        out = prox_sq_l1(x, alpha)

        base = 0.5 * np.sum((out - x) ** 2) + alpha * np.sum(np.abs(out)) ** 2
        scales = np.repeat([1e-3, 1e-2, 0.1, 1.0], 250)
        perturbed = out[None, :] + scales[:, None] * rng.standard_normal((1000, n))
        vals = 0.5 * np.sum((perturbed - x) ** 2, axis=1) + alpha * np.sum(
            np.abs(perturbed), axis=1
        ) ** 2
        worst_gap = max(worst_gap, base - float(np.min(vals)))

        # mu* from an independent root of psi, not from the prox's own tau
        mu_star = prox_sq_l1_newton(x, alpha).mu_star
        shrunk = soft_threshold(x, 2.0 * np.sqrt(alpha * mu_star))
        worst_reparam = max(worst_reparam, float(np.max(np.abs(out - shrunk))))

    assert worst_gap <= 1e-9
    assert worst_reparam <= 1e-10
    print(
        f"ACCEPTANCE 1 PASS: prox never beaten by more than {worst_gap:.2e} "
        f"(tol 1e-9); reparametrization defect {worst_reparam:.2e} (tol 1e-10)"
    )


def test_criterion_2_projection_equivalence(monkeypatch):
    # The prox-based route runs on the Newton reference prox, so it shares no
    # code with the sort-and-threshold kernel of project_l1_ball_sort.
    monkeypatch.setattr(sparsq.proxops, "prox_sq_l1", lambda x, a: prox_sq_l1_newton(x, a).value)
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 20))
        x = 5.0 * rng.standard_normal(n)
        radius = float(rng.uniform(0.1, 1.2) * max(np.sum(np.abs(x)), 0.2))
        r = RadiusSpec(radius)
        gap = np.max(np.abs(project_l1_ball_hv(x, r) - project_l1_ball_sort(x, r)))
        worst = max(worst, float(gap))
    assert worst <= 1e-8

    r = RadiusSpec(2.0)
    for _ in range(200):
        x = 4.0 * rng.standard_normal(8)
        z = 4.0 * rng.standard_normal(8)
        px, pz = project_l1_ball_sort(x, r), project_l1_ball_sort(z, r)
        assert np.linalg.norm(px - pz) <= np.linalg.norm(x - z) + 1e-9
        w = rng.standard_normal(8)
        w = w / max(np.sum(np.abs(w)) / r.radius_l1, 1.0)
        assert (w - px) @ (x - px) <= 1e-9
    print(f"ACCEPTANCE 2 PASS: projection routes agree to {worst:.2e} (tol 1e-8); "
          "nonexpansiveness and variational inequality hold on all sampled pairs")


def _descent_instance(rng, m=10, n=14):
    A = DenseMatrix(rng.standard_normal((m, n)), scale=0.2)
    x_true = np.zeros(n)
    x_true[rng.choice(n, 3, replace=False)] = rng.standard_normal(3)
    y = A.apply(x_true) + 0.02 * rng.standard_normal(m)
    return A, y


def test_criterion_3_descent_suites():
    rng = np.random.default_rng(1003)
    worst_hv = 0.0
    for _ in range(20):
        A, y = _descent_instance(rng)
        r_hat = estimate_opnorm_sq(A).value
        alpha = float(rng.uniform(1e-4, 5e-3))
        beta = alpha * float(rng.uniform(0.0, 1.0))
        opts = SolverOptions(max_iter=300, step_tol=1e-9, L=r_hat + 2 * beta)
        res = solve_hv(A, y, RegParams(alpha, beta), opts, np.full(A.domain_dim, 0.01))
        objs = [rec.objective for rec in res.trace]
        worst_hv = max(worst_hv, max((b - a for a, b in zip(objs, objs[1:])), default=0.0))
    assert worst_hv <= 1e-10

    worst_pg = 0.0
    worst_last_step = 0.0
    for _ in range(20):
        A, y = _descent_instance(rng)
        r_hat = estimate_opnorm_sq(A).value
        beta = 0.05 * r_hat
        gamma = max(2 * beta + 1e-3, 1.05 * r_hat)
        r = RadiusSpec(float(rng.uniform(0.5, 4.0)))
        opts = SolverOptions(max_iter=1500, step_tol=1e-9)
        res = solve_pg_sf(A, y, beta, gamma, r, opts, np.full(A.domain_dim, 0.01))
        objs = [rec.objective for rec in res.trace]
        worst_pg = max(worst_pg, max((b - a for a, b in zip(objs, objs[1:])), default=0.0))
        worst_last_step = max(worst_last_step, res.trace[-1].step_norm)
    assert worst_pg <= 1e-10
    assert worst_last_step < 1e-4
    print(
        f"ACCEPTANCE 3 PASS: worst HV ascent {worst_hv:.2e}, worst PG ascent "
        f"{worst_pg:.2e} (tol 1e-10); last PG step norm {worst_last_step:.2e} (tol 1e-4)"
    )


def test_criterion_4_gradient_and_adjoint_checks():
    rng = np.random.default_rng(1004)
    worst_grad = 0.0
    for _ in range(20):
        A = DenseMatrix(rng.standard_normal((7, 5)), scale=0.5)
        y = rng.standard_normal(7)
        x = rng.standard_normal(5)
        beta = float(rng.uniform(0.0, 0.5))
        g = grad_f(A, y, x, beta)
        h = 1e-6
        fd = np.zeros(5)
        for i in range(5):
            e = np.zeros(5)
            e[i] = h

            def f(z):
                r = A.apply(z) - y
                return 0.5 * float(r @ r) - beta * float(z @ z)

            fd[i] = (f(x + e) - f(x - e)) / (2 * h)
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(g), 1e-12)
        worst_grad = max(worst_grad, float(rel))
    assert worst_grad <= 1e-5

    worst_adj = 0.0
    ops = [
        DenseMatrix(rng.standard_normal((6, 9)), scale=0.3),
        DenseMatrix(rng.standard_normal((9, 6)), scale=2.0),
        KroneckerBlur(8, 3, 0.7),
        KroneckerBlur(16, 3, 0.7),
        KroneckerBlur(16, 5, 1.1),
    ]
    for op in ops:
        for _ in range(100):
            x = rng.standard_normal(op.domain_dim)
            y = rng.standard_normal(op.range_dim)
            lhs = op.apply(x) @ y
            rhs = x @ op.apply_adjoint(y)
            scale = max(np.linalg.norm(op.apply(x)) * np.linalg.norm(y), 1e-12)
            worst_adj = max(worst_adj, abs(lhs - rhs) / scale)
    assert worst_adj <= 1e-10
    print(
        f"ACCEPTANCE 4 PASS: worst gradient error {worst_grad:.2e} (tol 1e-5); "
        f"worst adjoint defect {worst_adj:.2e} (tol 1e-10)"
    )


def _hv_desk_snrs(eta, alpha, snr_db, seeds, max_iter=1500):
    opts = SolverOptions(max_iter=max_iter, step_tol=1e-5, L=1.0, record_trace=False)
    out = []
    for seed in seeds:
        inst = cs_desk_instance(seed=seed, snr_db=snr_db)
        res = solve_hv(
            inst.A, inst.y_delta, RegParams(alpha, eta * alpha), opts, np.full(200, 0.01)
        )
        out.append(snr_metric(res.x_final, inst.x_true))
    return out


def test_criterion_5_cs_reproduction():
    med1 = float(np.median(_hv_desk_snrs(1.0, 6e-5, 40.0, SEEDS)))
    med0 = float(np.median(_hv_desk_snrs(0.0, 6e-5, 40.0, SEEDS)))
    assert 26.0 <= med1 <= 36.0
    assert med1 >= med0
    print(
        f"ACCEPTANCE 5 PASS: median SNR at eta=1 is {med1:.3f} dB (band [26, 36]); "
        f"eta=0 median {med0:.3f} dB, trend holds"
    )


def test_criterion_6_noise_level_trend():
    # Criterion 5 pins maxiter=1500; this criterion does not, and the
    # noise-free alpha=1e-5 run needs ~5k iterations to converge, so the trend
    # is evaluated at the shared step tolerance with a generous iteration cap.
    rows = [(math.inf, 1e-5), (50.0, 2e-5), (40.0, 6e-5), (30.0, 3.2e-5), (20.0, 9e-4)]
    medians = []
    for snr_db, alpha in rows:
        medians.append(float(np.median(_hv_desk_snrs(1.0, alpha, snr_db, SEEDS, max_iter=20000))))
    assert all(a > b for a, b in zip(medians, medians[1:]))
    assert medians[0] >= 45.0
    labels = ["noise-free", "50dB", "40dB", "30dB", "20dB"]
    print(
        "ACCEPTANCE 6 PASS: median SNR strictly decreases: "
        + ", ".join(f"{l}={m:.2f}" for l, m in zip(labels, medians))
        + f"; noise-free {medians[0]:.2f} >= 45"
    )


def test_criterion_7_blur_operator_facts():
    op = KroneckerBlur(16, 3, 0.7)
    dense = densify(op)
    sv = np.linalg.svd(dense.entries, compute_uv=False)
    norm = float(sv[0])
    cond = float(sv[0] / sv[-1])
    assert 0.8 <= norm <= 1.2
    assert 24.0 <= cond <= 36.0
    print(f"ACCEPTANCE 7 PASS: blur n=16 operator norm {norm:.4f} (band [0.8, 1.2]), "
          f"condition number {cond:.2f} (band [24, 36])")


def test_criterion_8_radius_recovery():
    opts = SolverOptions(max_iter=1500, step_tol=1e-5, record_trace=False)

    inst = cs_desk_instance(seed=0, snr_db=40.0)
    true_cs = float(np.sum(np.abs(inst.x_true)) ** 2)
    mdp = MdpOptions(r_min=1.0, r_max=1e5, tau1=1.01, tau2=1.1, delta=inst.delta, max_outer=40)
    out = search_radius_mdp(
        inst.A, inst.y_delta, 6e-5, 1.0, mdp, opts, np.full(200, 0.01)
    )
    rel_cs = abs(out.radius.radius_sq - true_cs) / true_cs
    assert out.bracketed
    assert rel_cs <= 0.05

    blur = blur_desk_instance(seed=0, snr_db=60.0, n=125)
    true_db = float(np.sum(np.abs(blur.x_true)) ** 2)
    mdp_db = MdpOptions(
        r_min=1.0, r_max=4.0 * true_db, tau1=1.01, tau2=1.1, delta=blur.delta, max_outer=40
    )
    out_db = search_radius_mdp(
        blur.A, blur.y_delta, 1e-5, 1.0, mdp_db, opts, np.full(blur.A.domain_dim, 0.01)
    )
    rel_db = abs(out_db.radius.radius_sq - true_db) / true_db
    assert out_db.bracketed
    assert rel_db <= 0.05
    print(
        f"ACCEPTANCE 8 PASS: CS radius_sq {out.radius.radius_sq:.1f} vs true "
        f"{true_cs:.1f} ({100 * rel_cs:.2f}%); deblur {out_db.radius.radius_sq:.4e} vs "
        f"{true_db:.4e} ({100 * rel_db:.2f}%); tol 5%"
    )


def test_criterion_9_noise_calibration_and_fast_apply():
    import time

    cs = cs_desk_instance(seed=0, snr_db=40.0)
    assert 0.06 <= cs.delta <= 0.095

    blur = blur_desk_instance(seed=0, snr_db=60.0, n=125)
    assert 0.10 <= blur.delta <= 0.15

    start = time.perf_counter()
    blur.A.apply_adjoint(blur.A.apply(blur.y_delta))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 9 PASS: CS delta {cs.delta:.4f} in [0.06, 0.095]; blur delta "
        f"{blur.delta:.4f} in [0.10, 0.15]; n=125 apply pair took {elapsed * 1e3:.1f} ms (< 1 s)"
    )


def test_criterion_10_selftest_determinism(tmp_path):
    out1 = cli._selftest_battery(str(tmp_path / "run1"))
    out2 = cli._selftest_battery(str(tmp_path / "run2"))
    assert [name for name, _ in out1] == [name for name, _ in out2]
    for (name, det1), (_, det2) in zip(out1, out2):
        assert det1 == det2, f"nondeterministic output in {name}"
    assert cli.main(["selftest", "--outdir", str(tmp_path / "cli_run")]) == 0
    print(
        "ACCEPTANCE 10 PASS: two selftest runs produced byte-identical "
        f"deterministic sections for {len(out1)} output files"
    )


def test_criterion_11_a_priori_rate():
    # The paper's a priori rule alpha ~ delta gives ||x - x_true||_2 = O(delta).
    # Pinned on the medians over CS desk seeds 0-3: the log-log slope of the
    # error against delta, and the spread of err / delta across noise levels.
    # Seed blocks 0-3, 4-7, 8-11 and 12-15 gave slopes 0.908-0.964 and ratios
    # 1.15-1.38 at both etas.
    opts = SolverOptions(max_iter=20000, step_tol=1e-7, record_trace=False)
    levels = (20.0, 30.0, 40.0, 50.0)
    insts = [[cs_desk_instance(seed=seed, snr_db=db) for seed in range(4)] for db in levels]
    deltas = np.array([np.median([inst.delta for inst in row]) for row in insts])
    report = []
    for eta in (0.5, 1.0):
        errors = []
        for row in insts:
            level = []
            for inst in row:
                alpha = 6.8e-4 * inst.delta
                res = solve_hv(inst.A, inst.y_delta, RegParams(alpha, eta * alpha), opts,
                               np.full(200, 0.01))
                level.append(np.linalg.norm(res.x_final - inst.x_true))
            errors.append(np.median(level))
        slope = float(np.polyfit(np.log(deltas), np.log(errors), 1)[0])
        per_delta = np.array(errors) / deltas
        ratio = float(per_delta.max() / per_delta.min())
        assert slope >= 0.85
        assert ratio <= 1.6
        report.append(f"eta={eta}: slope {slope:.3f} (>= 0.85), err/delta max/min {ratio:.3f} "
                      f"(<= 1.6)")
    print("ACCEPTANCE 11 PASS: a priori alpha = 6.8e-4 * delta, 20-50 dB; " + "; ".join(report))


def test_criterion_12_a_posteriori_radius_rate():
    # The paper's a posteriori rule, the discrepancy principle on the l1-ball
    # radius, gives ||x - x_true||_2 = O(delta) as well.  Pinned as criterion 11
    # pins the a priori rule, on the medians over CS desk seeds 0-3, with the pg
    # weights, [mdp] settings and iteration controls of scripts/cs_desk.ini.
    # Seed blocks 0-3, 4-7, 8-11 and 12-15 gave slopes 1.016-1.088 and ratios
    # 1.175-1.508.
    cfg = load_config(str(Path(__file__).resolve().parent.parent / "scripts" / "cs_desk.ini"))
    (pg,) = [spec.params for spec in cfg.algorithms if spec.kind == "pg"]
    opts = SolverOptions(max_iter=cfg.maxiter, step_tol=cfg.step_tol, record_trace=False)
    levels = (20.0, 30.0, 40.0, 50.0)
    insts = [[cs_desk_instance(seed=seed, snr_db=db) for seed in range(4)] for db in levels]
    deltas = np.array([np.median([inst.delta for inst in row]) for row in insts])
    errors, bracketed, trials = [], 0, 0
    for row in insts:
        level = []
        for inst in row:
            mdp = MdpOptions(**cfg.mdp, delta=inst.delta)
            out = search_radius_mdp(inst.A, inst.y_delta, pg["beta"], pg["gamma"], mdp, opts,
                                    np.full(inst.A.domain_dim, cfg.x0_value))
            level.append(np.linalg.norm(out.result.x_final - inst.x_true))
            bracketed, trials = bracketed + out.bracketed, trials + len(out.trace)
        errors.append(np.median(level))
    slope = float(np.polyfit(np.log(deltas), np.log(errors), 1)[0])
    per_delta = np.array(errors) / deltas
    ratio = float(per_delta.max() / per_delta.min())
    assert slope >= 0.85
    assert ratio <= 1.6
    print(f"ACCEPTANCE 12 PASS: a posteriori radius rule, 20-50 dB: slope {slope:.3f} (>= 0.85), "
          f"err/delta max/min {ratio:.3f} (<= 1.6); {bracketed} of 16 searches bracketed, "
          f"{trials} trials")
