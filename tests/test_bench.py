import csv
import math
import shlex
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sparsq.bench import (
    AlgorithmSpec,
    ConfigError,
    ExperimentConfig,
    aggregate_rows,
    deterministic_view,
    load_config,
    manifest_text,
    mdp_trace_csv_text,
    radius_search,
    report_csv_text,
    run_experiment,
    sweep,
    trace_csv_text,
)
from sparsq import bench, cli
from sparsq.proxops import RadiusSpec
from sparsq.solvers import PENALIZED, SolverOptions, solve_fista, solve_pg_sf

TINY_CS = dict(
    experiment="cs",
    n=40,
    m=16,
    s=4,
    scale=0.1,
    amp_scale=2.0,
    snr_db=40.0,
    seeds=(0, 1),
    maxiter=120,
)


def tiny_cfg(**kwargs):
    base = dict(TINY_CS)
    base.update(kwargs)
    return ExperimentConfig(**base)


CONFIG_TEXT = """
[experiment]
kind = cs
n = 40
m = 16
s = 4
scale = 0.1
amp_scale = 2.0
snr_db = 40
seeds = 0, 1
maxiter = 120
step_tol = 1e-5
x0 = 0.01

[algorithm:hv]
alpha = 1e-3
eta = 1.0

[algorithm:ista]
alpha = 1e-3

[mdp]
r_min = 1.0
r_max = 400.0
tau1 = 1.01
tau2 = 1.2
max_outer = 12
"""


# ------------------------------------------------------------------- configs


def test_load_config(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG_TEXT)
    cfg = load_config(path)
    assert cfg.experiment == "cs"
    assert cfg.n == 40 and cfg.m == 16 and cfg.s == 4
    assert cfg.seeds == (0, 1)
    assert {a.kind for a in cfg.algorithms} == {"hv", "ista"}
    hv = next(a for a in cfg.algorithms if a.kind == "hv")
    assert hv.params["alpha"] == 1e-3 and hv.params["eta"] == 1.0
    assert cfg.mdp["r_max"] == 400.0


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.ini")


def test_config_rejects_unknown_algorithm():
    with pytest.raises(ConfigError):
        AlgorithmSpec("simplex", {})


def test_config_rejects_empty_algorithms():
    with pytest.raises(ConfigError):
        tiny_cfg(algorithms=())


def test_config_rejects_empty_seeds():
    with pytest.raises(ConfigError):
        tiny_cfg(algorithms=(AlgorithmSpec("ista", {"alpha": 1e-3}),), seeds=())


def test_config_rejects_unknown_experiment():
    with pytest.raises(ConfigError):
        tiny_cfg(experiment="mri", algorithms=(AlgorithmSpec("ista", {"alpha": 1e-3}),))


def test_config_requires_dimensions():
    with pytest.raises(ConfigError):
        tiny_cfg(n=0, algorithms=(AlgorithmSpec("ista", {"alpha": 1e-3}),))
    with pytest.raises(ConfigError):
        tiny_cfg(m=0, algorithms=(AlgorithmSpec("ista", {"alpha": 1e-3}),))


def test_load_config_requires_n(tmp_path):
    path = tmp_path / "no_n.ini"
    path.write_text("[experiment]\nkind = cs\nm = 16\ns = 4\n[algorithm:ista]\nalpha = 1e-3\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_output_paths_used_as_defaults(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(
        CONFIG_TEXT.replace("x0 = 0.01", f"x0 = 0.01\nout = from_config.csv\ntrace_dir = tr")
    )
    code = cli.main(["cs", "--config", str(cfg_path)])
    assert code == 0
    assert (tmp_path / "from_config.csv").exists()
    assert list((tmp_path / "tr").glob("trace_cs_*_seed0.csv"))


# ---------------------------------------------------------------------- runs


def test_run_experiment_row_count_and_schema():
    cfg = tiny_cfg(
        algorithms=(
            AlgorithmSpec("hv", {"alpha": 1e-3, "eta": 1.0}),
            AlgorithmSpec("pg", {"beta": 1e-3, "gamma": 1.0, "radius_sq": 30.0}),
            AlgorithmSpec("ista", {"alpha": 1e-3}),
        )
    )
    rows, traces, _ = run_experiment(cfg, want_traces=True)
    assert len(rows) == 3 * 2
    assert traces and len(traces) == 6
    for row in rows:
        assert row.experiment == "cs"
        assert row.n == 40 and row.m == 16 and row.s == 4
        assert row.iterations >= 1
        assert math.isfinite(row.residual_norm)
        assert row.termination in ("step_tol", "max_iter", "stagnation")
    pg_rows = [r for r in rows if r.algorithm == "pg"]
    assert all(r.radius_sq == 30.0 for r in pg_rows)
    assert all(math.isnan(r.alpha) for r in pg_rows)


def test_run_experiment_deterministic_csv():
    cfg = tiny_cfg(algorithms=(AlgorithmSpec("hv", {"alpha": 1e-3, "eta": 0.5}),))
    rows1, _, _ = run_experiment(cfg)
    rows2, _, _ = run_experiment(cfg)
    assert deterministic_view(report_csv_text(rows1)) == deterministic_view(
        report_csv_text(rows2)
    )


def test_pg_auto_radius_through_runner():
    cfg = tiny_cfg(
        algorithms=(AlgorithmSpec("pg", {"beta": 1e-3, "gamma": 1.0, "radius_sq": "auto"}),),
        mdp={"r_min": 1.0, "r_max": 400.0, "tau1": 1.01, "tau2": 1.2, "max_outer": 12},
        seeds=(0,),
        maxiter=400,
    )
    rows, _, _ = run_experiment(cfg)
    assert len(rows) == 1
    assert math.isfinite(rows[0].radius_sq) and rows[0].radius_sq > 0


def test_pg_without_radius_is_config_error():
    cfg = tiny_cfg(algorithms=(AlgorithmSpec("pg", {"beta": 1e-3}),), seeds=(0,))
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_hv_auto_alpha_through_runner():
    cfg = tiny_cfg(
        algorithms=(AlgorithmSpec("hv", {"alpha": "auto", "eta": 1.0}),),
        seeds=(0,),
        maxiter=400,
    )
    rows, _, _ = run_experiment(cfg)
    assert math.isfinite(rows[0].alpha) and rows[0].alpha > 0


@pytest.mark.parametrize("kind, name", [("fista", "solve_fista"), ("st", "solve_st_l1_l2")])
def test_untraced_auto_alpha_run_returns_the_search_solve(kind, name, monkeypatch):
    # An untraced alpha = auto run makes the search's solves and no other: the
    # solve it returns is the one the search landed on, its last
    import sparsq.solvers

    calls = []
    real = getattr(sparsq.solvers, name)

    def counting(*args, **kwargs):
        calls.append((args[2], real(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(sparsq.solvers, name, counting)
    spec = AlgorithmSpec(kind, {"alpha": "auto", "eta": 1.0} if kind == "st" else {"alpha": "auto"})
    cfg = ExperimentConfig(experiment="cs", n=200, m=80, s=16, snr_db=40.0, algorithms=(spec,))
    inst, _ = bench.make_instance(cfg, 0)
    opts = SolverOptions(max_iter=cfg.maxiter, step_tol=cfg.step_tol, record_trace=False)
    sel = sparsq.solvers.select_alpha_discrepancy(
        inst.A, inst.y_delta, inst.delta, spec.params.get("eta", 0.0), kind, opts,
        x0=np.full(200, cfg.x0_value),
    )
    search_alphas = [alpha for alpha, _ in calls]
    calls.clear()
    columns, result = bench.run_algorithm(cfg, inst, spec)
    assert [alpha for alpha, _ in calls] == search_alphas
    assert len(set(search_alphas)) == len(search_alphas) > 2
    assert columns["alpha"] == sel.alpha == calls[-1][0]
    assert result is calls[-1][1] and result.trace == []
    assert result.x_final.tobytes() == sel.result.x_final.tobytes()


@pytest.mark.parametrize(
    "spec",
    [AlgorithmSpec("fista", {"alpha": "auto"}),
     AlgorithmSpec("pg", {"beta": 1e-3, "gamma": 1.0, "radius_sq": "auto"})],
    ids=["alpha", "radius_sq"],
)
def test_traced_auto_run_returns_the_traced_solve_at_the_chosen_value(spec):
    # The searches run untraced; a traced run solves the chosen value again,
    # traced, with x_true, and returns that solve, with the untraced run's bits
    cfg = tiny_cfg(
        algorithms=(spec,), seeds=(0,), maxiter=400,
        mdp={"r_min": 1.0, "r_max": 400.0, "tau1": 1.01, "tau2": 1.2, "max_outer": 12},
    )
    inst, _ = bench.make_instance(cfg, 0)
    columns, traced = bench.run_algorithm(cfg, inst, spec, record_trace=True)
    _, untraced = bench.run_algorithm(cfg, inst, spec)
    opts = SolverOptions(max_iter=cfg.maxiter, step_tol=cfg.step_tol, record_trace=True)
    x0 = np.full(inst.A.domain_dim, cfg.x0_value)
    if spec.kind == "pg":
        radius = RadiusSpec.from_sq(columns["radius_sq"])
        direct = solve_pg_sf(inst.A, inst.y_delta, 1e-3, 1.0, radius, opts, x0, inst.x_true)
    else:
        direct = solve_fista(inst.A, inst.y_delta, columns["alpha"], opts, x0, inst.x_true)
    assert len(direct.trace) > 0 and untraced.trace == []
    assert [replace(rec, elapsed_s=0.0) for rec in traced.trace] == [
        replace(rec, elapsed_s=0.0) for rec in direct.trace
    ]
    assert traced.x_final.tobytes() == untraced.x_final.tobytes() == direct.x_final.tobytes()


def test_deblur_noise_free_reconstruction_quality():
    cfg = ExperimentConfig(
        experiment="deblur",
        n=16,
        band=3,
        sigma=0.7,
        snr_db=math.inf,
        seeds=(0,),
        maxiter=1500,
        algorithms=(AlgorithmSpec("hv", {"alpha": 1e-5, "eta": 1.0}),),
    )
    rows, _, _ = run_experiment(cfg)
    assert rows[0].snr_out_db > 50.0


# --------------------------------------------------------------------- sweeps


def test_sweep_eta_shape():
    cfg = tiny_cfg(algorithms=(AlgorithmSpec("hv", {"alpha": 1e-3, "eta": 0.0}),))
    values = [0.0, 0.5, 1.0]
    rows, agg = sweep(cfg, "eta", values)
    assert len(rows) == len(values) * 2  # seeds
    assert sorted({r.eta for r in rows}) == values
    assert len(agg) == len(values)
    assert all(entry["n_seeds"] == 2 for entry in agg)


def test_sweep_alpha_single_value_is_plain_run():
    cfg = tiny_cfg(algorithms=(AlgorithmSpec("ista", {"alpha": 1e-3}),))
    rows, _ = sweep(cfg, "alpha", [1e-3])
    plain, _, _ = run_experiment(cfg)
    assert deterministic_view(report_csv_text(rows)) == deterministic_view(
        report_csv_text(plain)
    )


def test_sweep_snr_shape():
    cfg = tiny_cfg(algorithms=(AlgorithmSpec("hv", {"alpha": 1e-3, "eta": 1.0}),))
    rows, agg = sweep(cfg, "snr_db", [math.inf, 40.0, 20.0])
    assert len(rows) == 6
    assert len(agg) == 3


def test_sweep_rejects_empty_values():
    cfg = tiny_cfg(algorithms=(AlgorithmSpec("hv", {"alpha": 1e-3, "eta": 1.0}),))
    with pytest.raises(ConfigError):
        sweep(cfg, "eta", [])


def test_sweep_rejects_inapplicable_axis():
    cfg = tiny_cfg(algorithms=(AlgorithmSpec("ht", {"lam": 1e-3}),))
    with pytest.raises(ConfigError):
        sweep(cfg, "alpha", [1e-3])
    with pytest.raises(ConfigError):
        sweep(cfg, "eta", [0.5])
    params = {"ista": {"alpha": 1e-3}, "fista": {"alpha": 1e-3}, "ht": {"lam": 1e-3},
              "pg": {"beta": 1e-3, "radius_sq": 30.0}}
    for axis, kinds in (("eta", ("ista", "fista", "pg", "ht")), ("alpha", ("pg", "ht"))):
        for kind in kinds:
            cfg = tiny_cfg(algorithms=(AlgorithmSpec(kind, params[kind]),))
            with pytest.raises(ConfigError, match="does not apply"):
                sweep(cfg, axis, [0.5])


# -------------------------------------------------------------- radius search


def test_radius_search_trace_schema():
    cfg = tiny_cfg(
        algorithms=(AlgorithmSpec("pg", {"beta": 1e-3, "gamma": 1.0}),),
        mdp={"r_min": 1.0, "r_max": 400.0, "tau1": 1.01, "tau2": 1.2, "max_outer": 12},
        maxiter=400,
    )
    out, inst = radius_search(cfg)
    text = mdp_trace_csv_text(out.trace)
    lines = text.strip().splitlines()
    assert lines[0] == "j,radius_sq,residual_norm,rerror"
    assert len(lines) == len(out.trace) + 1
    assert out.radius.radius_sq > 0


def test_radius_search_needs_bracket():
    cfg = tiny_cfg(algorithms=(AlgorithmSpec("pg", {"beta": 1e-3, "gamma": 1.0}),))
    with pytest.raises(ConfigError):
        radius_search(cfg)


def test_radius_search_degenerate_bracket_single_solve():
    from sparsq.solvers import MdpOptions, SolverOptions, search_radius_mdp
    from sparsq.problems import cs_desk_instance

    inst = cs_desk_instance(seed=0, snr_db=40.0)
    # r_min ~ r_max: the midpoint is (nearly) the same single radius
    mdp = MdpOptions(r_min=100.0, r_max=100.0000001, tau1=1.01, tau2=100.0,
                     delta=inst.delta, max_outer=5)
    out = search_radius_mdp(
        inst.A, inst.y_delta, 0.0, 1.0, mdp, SolverOptions(max_iter=50, record_trace=False),
        np.full(200, 0.01),
    )
    assert len(out.trace) == 1 and out.bracketed


# ------------------------------------------------------------------ CSV / text


def test_report_csv_full_precision():
    cfg = tiny_cfg(algorithms=(AlgorithmSpec("hv", {"alpha": 1e-3, "eta": 1.0}),), seeds=(0,))
    rows, _, _ = run_experiment(cfg)
    text = report_csv_text(rows)
    header, line = text.strip().splitlines()
    assert header.startswith("experiment,algorithm,seed,")
    cells = dict(zip(header.split(","), line.split(",")))
    assert float(cells["rerror"]) == rows[0].rerror  # 17 digits round-trip


def test_trace_csv_columns():
    cfg = tiny_cfg(algorithms=(AlgorithmSpec("hv", {"alpha": 1e-3, "eta": 1.0}),), seeds=(0,))
    _, traces, _ = run_experiment(cfg, want_traces=True)
    text = trace_csv_text(traces[("hv", 0)])
    assert text.splitlines()[0] == "k,objective,residual,step_norm,rerror,elapsed_s"


def test_deterministic_view_strips_timing():
    text = "a,time_ms,b\n1,2.5,3\n"
    assert deterministic_view(text) == "a,b\n1,3\n"
    trace = "k,elapsed_s\n1,0.1\n"
    assert deterministic_view(trace) == "k\n1\n"


def test_manifest_mentions_config_and_seeds():
    cfg = tiny_cfg(algorithms=(AlgorithmSpec("hv", {"alpha": 1e-3, "eta": 1.0}),))
    text = manifest_text(cfg, notes=("extra = 1",))
    assert text == (
        "sparsq 0.1.0\n[config]\nexperiment = cs\nn = 40\nm = 16\ns = 4\nscale = 0.10000000000000001\n"
        "amp_scale = 2\nsnr_db = 40\nmaxiter = 120\nstep_tol = 1.0000000000000001e-05\n"
        "x0 = 0.01\n[algorithms]\nhv: alpha=0.001 eta=1\n[seeds]\n0 1\n[notes]\nextra = 1\n"
    )
    # the [mdp] settings are echoed when there are any, so the manifest reproduces the search
    mdp = {"r_max": 400.0, "r_min": 1.0, "max_outer": 12}
    text = manifest_text(replace(cfg, mdp=mdp))
    assert "eta=1\n[mdp]\nr_min = 1\nr_max = 400\nmax_outer = 12\n[seeds]\n" in text


def test_aggregate_rows_medians():
    cfg = tiny_cfg(algorithms=(AlgorithmSpec("hv", {"alpha": 1e-3, "eta": 1.0}),))
    rows, _, _ = run_experiment(cfg)
    agg = aggregate_rows(rows, "eta")
    assert len(agg) == 1
    assert agg[0]["n_seeds"] == 2
    snrs = [r.snr_out_db for r in rows]
    assert agg[0]["snr_median"] == pytest.approx(float(np.median(snrs)))


# ----------------------------------------------------------------------- CLI


def test_cli_cs_with_config(tmp_path):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(CONFIG_TEXT)
    out = tmp_path / "results.csv"
    code = cli.main(["cs", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("experiment,algorithm,")
    assert len(text.strip().splitlines()) == 1 + 2 * 2  # two algorithms, two seeds
    assert (tmp_path / "results.csv.manifest.txt").exists()


def test_cli_single_algo_flags(tmp_path):
    out = tmp_path / "r.csv"
    code = cli.main(
        [
            "cs", "--algo", "ista", "--alpha", "1e-3", "--n", "30", "--m", "12",
            "--s", "3", "--scale", "0.1", "--snr-db", "40", "--seeds", "0",
            "--maxiter", "80", "--out", str(out),
        ]
    )
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 2


def test_cli_deblur(tmp_path):
    out = tmp_path / "d.csv"
    code = cli.main(
        [
            "deblur", "--algo", "hv", "--alpha", "1e-4", "--eta", "1.0",
            "--n", "8", "--band", "3", "--sigma", "0.7", "--snr-db", "40",
            "--seeds", "0", "--maxiter", "100", "--out", str(out),
        ]
    )
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 2 and rows[1].startswith("deblur,hv,")


def test_cli_trace_output(tmp_path):
    out = tmp_path / "r.csv"
    tdir = tmp_path / "traces"
    code = cli.main(
        [
            "cs", "--algo", "hv", "--alpha", "1e-3", "--eta", "1.0", "--n", "30",
            "--m", "12", "--s", "3", "--scale", "0.1", "--snr-db", "40",
            "--seeds", "0", "--maxiter", "50", "--out", str(out),
            "--trace-dir", str(tdir),
        ]
    )
    assert code == 0
    traces = list(tdir.glob("trace_cs_hv_seed0.csv"))
    assert len(traces) == 1
    assert traces[0].read_text().splitlines()[0] == "k,objective,residual,step_norm,rerror,elapsed_s"


def test_cli_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.main(
        [
            "sweep", "--experiment", "cs", "--axis", "eta", "--values", "0,0.5,1",
            "--algo", "hv", "--alpha", "1e-3", "--n", "30", "--m", "12", "--s", "3",
            "--scale", "0.1", "--snr-db", "40", "--seeds", "0,1", "--maxiter", "60",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 1 + 3 * 2
    agg = (tmp_path / "sweep.csv.agg.csv").read_text().strip().splitlines()
    assert agg[0].startswith("algorithm,axis,value,")
    assert len(agg) == 1 + 3


def test_cli_sweep_aborts_on_one_bad_cell(tmp_path, capsys):
    # eta = 0.5 is a valid cell and eta = 2 is not: the whole sweep fails with
    # a config error and writes no results, manifest or aggregate
    out = tmp_path / "sweep.csv"
    code = cli.main(
        [
            "sweep", "--experiment", "cs", "--algo", "hv", "--alpha", "1e-3", "--eta", "0",
            "--axis", "eta", "--values", "0.5,2", "--maxiter", "20", "--seeds", "0",
            "--out", str(out),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: hv (alpha=0.001, eta=2.0)")
    assert list(tmp_path.iterdir()) == []


def _count_solves(monkeypatch):
    """A list that gets one entry per solve: every solver runs solvers._iterate."""
    import sparsq.solvers

    solves = []
    real = sparsq.solvers._iterate

    def counting(*args, **kwargs):
        solves.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sparsq.solvers, "_iterate", counting)
    return solves


def test_cli_sweep_checks_every_cell_before_the_first_solve(tmp_path, capsys, monkeypatch):
    # the bad value comes last: the 9 cells before it must not run
    solves = _count_solves(monkeypatch)
    code = cli.main(
        [
            "sweep", "--experiment", "cs", "--algo", "hv", "--alpha", "6e-5", "--eta", "0",
            "--axis", "eta", "--values", "0,0.5,1,2", "--seeds", "0,1,2", "--maxiter", "20",
            "--out", str(tmp_path / "sweep.csv"),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: hv (alpha=6e-05, eta=2.0)")
    assert len(solves) == 0


@pytest.mark.parametrize(
    "axis, values",
    [("snr_db", "auto,40"), ("eta", "auto")],
    ids=["snr_db", "eta"],
)
def test_cli_sweep_auto_on_an_axis_without_a_rule_is_a_config_error(axis, values, tmp_path,
                                                                    capsys, monkeypatch):
    # only alpha has a selection rule among the sweep axes
    solves = _count_solves(monkeypatch)
    code = cli.main(
        [
            "sweep", "--experiment", "cs", "--axis", axis, "--values", values, "--algo", "hv",
            "--alpha", "6e-5", "--seeds", "0", "--out", str(tmp_path / "sweep.csv"),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == (
        f"config error: sweep axis {axis!r} takes no 'auto' value: no selection rule for {axis}\n"
    )
    assert len(solves) == 0
    assert list(tmp_path.iterdir()) == []


def test_cli_alpha_auto_on_noise_free_data_is_a_config_error(tmp_path, capsys, monkeypatch):
    # the discrepancy principle needs a noise level, as the radius search does
    solves = _count_solves(monkeypatch)
    out = tmp_path / "r.csv"
    code = cli.main(
        [
            "cs", "--algo", "fista", "--alpha", "auto", "--snr-db", "inf", "--n", "30",
            "--m", "12", "--s", "3", "--scale", "0.1", "--seeds", "0", "--out", str(out),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: alpha = auto needs noisy data")
    assert len(solves) == 0
    assert not out.exists()


def test_run_checks_every_algorithm_before_the_first_solve(tmp_path, monkeypatch):
    # pg's radius search comes before st's out-of-range eta, on every seed
    path = tmp_path / "exp.ini"
    path.write_text(
        "[experiment]\nkind = cs\nn = 40\nm = 16\ns = 4\nscale = 0.1\nsnr_db = 40\n"
        "seeds = 0, 1\nmaxiter = 20\n[algorithm:pg]\nradius_sq = auto\n"
        "[algorithm:st]\nalpha = 1e-3\neta = 2.0\n[mdp]\nr_min = 1\nr_max = 200\n"
    )
    cfg = load_config(str(path))
    solves = _count_solves(monkeypatch)
    with pytest.raises(ConfigError, match=r"st \(alpha=0.001, eta=2.0\)"):
        run_experiment(cfg)
    assert len(solves) == 0


def test_cli_radius_search(tmp_path):
    out = tmp_path / "radius.csv"
    code = cli.main(
        [
            "radius-search", "--experiment", "cs", "--algo", "pg", "--beta", "1e-3",
            "--gamma", "1.0", "--n", "30", "--m", "12", "--s", "3", "--scale", "0.1",
            "--snr-db", "40", "--seeds", "0", "--maxiter", "300",
            "--r-min", "1", "--r-max", "200", "--out", str(out),
        ]
    )
    assert code == 0
    assert out.read_text().splitlines()[0] == "j,radius_sq,residual_norm,rerror"
    manifest = (tmp_path / "radius.csv.manifest.txt").read_text()
    assert "final_radius_sq" in manifest


_DEBLUR_SEARCH_INI = (
    "[experiment]\nkind = deblur\nn = 8\nband = 3\nsigma = 0.7\nsnr_db = 40\nseeds = 0\n"
    "maxiter = 50\n[algorithm:pg]\nbeta = 1e-4\ngamma = 1.0\nradius_sq = auto\n"
    "[mdp]\nr_min = 1.0\nr_max = 1e4\ntau1 = 1.01\ntau2 = 1.1\nmax_outer = 6\n"
)


def test_cli_experiment_flag_defaults_to_the_config_kind(tmp_path, capsys):
    path = tmp_path / "deblur.ini"
    path.write_text(_DEBLUR_SEARCH_INI)
    out = tmp_path / "r.csv"
    for argv in (["radius-search"], ["radius-search", "--experiment", "deblur"],
                 ["sweep", "--axis", "snr_db", "--values", "40"]):
        assert cli.main([*argv, "--config", str(path), "--out", str(out)]) == 0, argv
        assert "experiment = deblur\n" in (tmp_path / "r.csv.manifest.txt").read_text()
    capsys.readouterr()
    # a conflict names what was given
    for argv, used in ((["radius-search", "--experiment", "cs"], "--experiment cs"),
                       (["sweep", "--experiment", "cs", "--axis", "snr_db", "--values", "40"],
                        "--experiment cs"),
                       (["cs"], "the 'cs' subcommand")):
        assert cli.main([*argv, "--config", str(path), "--out", str(out)]) == 1
        err = f"config error: config is for 'deblur' but {used} was used\n"
        assert capsys.readouterr().err == err


def test_cli_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nkind = cs\nn = 40\nm = 16\ns = 4\nseeds = 0\n")
    code = cli.main(["cs", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
    assert code == 1  # no algorithms configured
    # flag values go through the config file's number parser
    code = cli.main(["cs", "--algo", "hv", "--alpha", "lots", "--out", str(tmp_path / "y.csv")])
    assert code == 1
    # unknown [mdp] and [experiment] keys and unparsable values, in a file or as flags
    pg_auto = "[algorithm:pg]\nbeta = 1e-3\nradius_sq = auto\n"
    edits = {
        "tua1": ("tau1 = 1.01", "tua1 = 1.5"),
        "maxitre": ("maxiter = 120", "maxitre = 5"),
        "max_outer": ("max_outer = 12", "max_outer = abc"),
        "maxiter": ("maxiter = 120", "maxiter = abc"),
        "seeds": ("seeds = 0, 1", "seeds = 0, x"),
        "eta": ("eta = 1.0", "eta = auto"),
        "r_max": ("r_max = 400.0", "r_max = 0.5"),
    }
    for key, (old, new) in edits.items():
        bad.write_text(CONFIG_TEXT.replace(old, new) + pg_auto)
        assert cli.main(["cs", "--config", str(bad), "--out", str(tmp_path / "z.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
    flag_cases = (
        ["cs", "--algo", "hv", "--alpha", "1e-3", "--maxiter", "abc"],
        ["cs", "--algo", "hv", "--alpha", "1e-3", "--eta", "auto"],
        ["sweep", "--experiment", "cs", "--axis", "eta", "--values", "0,1", "--algo", "hv",
         "--alpha", "1e-3", "--band", "9", "--sigma", "3"],
    )
    for argv in flag_cases:
        assert cli.main(argv + ["--out", str(tmp_path / "z.csv")]) == 1
        assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "z.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        "cs --algo hv --alpha 1e-3 --maxiter 0",
        "cs --algo hv --alpha 1e-3 --l-k -1",
        "cs --algo fista --alpha 1e-3 --lambda 0",
        "cs --algo hv --alpha 1e-3 --x0 nan",
        "cs --algo hv --alpha 1e-3 --m 500",
        "cs --algo hv --alpha 1e-3 --snr-db nan",
        "deblur --algo hv --alpha 1e-3 --band 40 --n 8",
        "cs --algo hv --alpha 0",
        "cs --algo hv --alpha 1e-3 --eta 2",
        "cs --algo st --alpha auto --eta 2",
        "cs --algo ht --lam 0",
        "cs --algo pg --beta 1 --gamma 1 --radius-sq 10",
        "cs --algo pg --radius-sq -1",
        "radius-search --algo pg --beta -1 --r-min 1 --r-max 100 --snr-db 40",
        # ||x0||_1 overflows: a warning in the radius search's residual floor,
        # a ValueError from the projection of the first step
        "radius-search --algo pg --r-min 1 --r-max 100 --snr-db 40 --x0=1.7e308",
        "cs --algo pg --radius-sq 30 --x0=1.7e308",
        # a step constant whose step 1 / L_k or 1 / lambda overflows
        "cs --algo hv --alpha 6e-5 --l-k 5e-324",
        "cs --algo fista --alpha 1e-3 --lambda 1e-310",
        "deblur --algo st --alpha 1e-3 --eta 0.5 --lambda 5e-324",
        "cs --algo ht --lam 2e-2 --lambda 5e-324",
        # steps fine alone whose hv prox weight alpha / l_k overflows, underflows
        # so that the prox's 0.5 / weight overflows, or does so at the low end
        # of the alpha search's bracket
        "cs --algo hv --alpha 1e300 --l-k 1e-10",
        "cs --algo hv --alpha 1e-300 --l-k 1e10",
        "cs --algo hv --alpha auto --l-k 1e305 --snr-db 40",
        # the same for the soft threshold's alpha / lambda (inf) and half
        # thresholding's lam / lambda (subnormal)
        "cs --algo ista --alpha 1e300 --lambda 1e-10",
        "cs --algo ht --lam 2e-2 --lambda 1.7e308",
    ],
)
def test_cli_out_of_range_values_are_config_errors(argv, tmp_path, capsys):
    # values that parse but that SolverOptions, the penalty or pg weights, the
    # radius or the instance generators reject, before any solve
    out = tmp_path / "r.csv"
    assert cli.main(shlex.split(argv) + ["--seeds", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        "cs --algo hv --alpha inf --eta 1",
        "cs --algo hv --alpha inf --eta 0",
        "cs --algo st --alpha inf --eta 0",
        "cs --algo hv --alpha 6e-5 --l-k inf",
        "cs --algo pg --beta 0 --gamma inf --radius-sq 30",
        "cs --algo ista --alpha 1e-3 --lambda inf",
        "cs --algo ht --lam inf",
        "cs --algo hv --alpha 6e-5 --step-tol inf",
    ],
)
def test_cli_non_finite_weights_and_step_constants_are_config_errors(argv, tmp_path, capsys):
    # an infinite alpha, lam, L_k, gamma, lambda or step_tol parses as a number; the check
    # pass, not a traceback from inside a solve, reports it
    out = tmp_path / "r.csv"
    assert cli.main(shlex.split(argv) + ["--seeds", "0", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "finite" in err
    assert not out.exists()


def test_cli_unreadable_image_is_a_config_error(tmp_path, capsys, monkeypatch):
    solves = _count_solves(monkeypatch)
    out = tmp_path / "d.csv"
    for image in (tmp_path / "missing.csv", tmp_path):  # no file; a directory
        code = cli.main(
            [
                "deblur", "--algo", "hv", "--alpha", "1e-5", "--eta", "1", "--n", "6",
                "--seeds", "0", "--image", str(image), "--out", str(out),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: deblur instance: cannot read image")
    assert len(solves) == 0
    assert list(tmp_path.iterdir()) == []


_CS_HV = "cs --algo hv --alpha 6e-5 --snr-db 40"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, pixel, error",
    [
        (f"{_CS_HV} --amp-scale nan", None, "cs instance: ||x_true||^2 is not finite"),
        (f"{_CS_HV} --amp-scale inf", None, "cs instance: ||x_true||^2 is not finite"),
        (f"{_CS_HV} --amp-scale 1e308", None, "cs instance: ||x_true||^2 is not finite"),
        (f"{_CS_HV} --scale inf", None, "cs instance: ||y_delta||^2 is not finite"),
        (f"{_CS_HV} --scale 1e153", None, "cs instance: ||y_delta||^2 is not finite"),
        (f"{_CS_HV} --scale 1e200", None, "cs instance: ||y_delta||^2 is not finite"),
        # finite data, but ||A||^2 is inf, or squaring the scale raises OverflowError
        (f"{_CS_HV} --scale 1e153 --amp-scale 1e-153", None, "cs instance: ||A||^2 overflows"),
        (f"{_CS_HV} --scale 1e200 --amp-scale 1e-150", None, "cs instance: ||A||^2 overflows"),
        # scale^2 underflows to 0: the Gram matrix of A would have scale 0
        (f"{_CS_HV} --scale 5e-324", None,
         "cs instance: scale = 5e-324 is too small: scale^2 underflows to 0"),
        (f"{_CS_HV} --snr-db inf --amp-scale 0", None,
         "cs instance: amp_scale must be nonzero: the ground truth would be 0"),
        (f"{_CS_HV} --snr-db -7000", None, "cs instance: snr_db = -7000: the noise level overflows"),
        ("deblur --algo hv --alpha 1e-4", math.nan, "deblur instance: ||x_true||^2 is not finite"),
        ("deblur --algo hv --alpha 1e-4", math.inf, "deblur instance: ||x_true||^2 is not finite"),
        ("deblur --algo hv --alpha 1e-4 --snr-db inf", 0.0, "deblur instance: ||x_true||^2 is 0"),
        # sigma^2 underflows to 0: the blur's scale 1 / (2 pi sigma^2) divided by it
        ("deblur --algo ht --lam 2e-2 --n 24 --sigma 1e-320", None,
         "deblur instance: sigma = 1e-320 is too small: 1 / (2 pi sigma^2) overflows"),
        # sigma^2 overflows: the blur's scale 1 / (2 pi sigma^2) is 0
        ("deblur --algo ht --lam 2e-2 --n 24 --sigma 1e200", None,
         "deblur instance: sigma = 1e+200 is too large: 2 pi sigma^2 overflows"),
    ],
    ids=["amp-nan", "amp-inf", "amp-1e308", "scale-inf", "scale-1e153", "scale-1e200",
         "norm-inf", "norm-overflow-error", "scale-underflow", "amp-zero-noise-free", "noise-overflow", "image-nan",
         "image-inf", "image-zero-noise-free", "sigma-underflow", "sigma-overflow"],
)
def test_cli_bad_instance_settings_are_config_errors(argv, pixel, error, tmp_path, capsys,
                                                     monkeypatch):
    # settings that give a ground truth whose square norm is not finite or is
    # 0, data whose square norm is not finite, or an infinite ||A||^2, caught
    # when the instance is built
    solves = _count_solves(monkeypatch)
    argv = shlex.split(argv) + ["--seeds", "0", "--out", str(tmp_path / "r.csv")]
    if pixel is not None:  # a 6x6 image of ones, one pixel set, or all zero
        image = np.full((6, 6), 0.0 if pixel == 0.0 else 1.0)
        image[2, 3] = pixel
        np.savetxt(tmp_path / "image.csv", image, delimiter=",")
        argv += ["--n", "6", "--image", str(tmp_path / "image.csv")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"config error: {error}\n"
    assert len(solves) == 0
    assert [p.name for p in tmp_path.iterdir()] == ([] if pixel is None else ["image.csv"])


def test_cli_rejects_unknown_algorithm_key(tmp_path, capsys):
    bad = tmp_path / "typo.ini"
    bad.write_text(CONFIG_TEXT.replace("alpha = 1e-3\neta = 1.0", "alhpa = 1e-3\neta = 1.0"))
    with pytest.raises(ConfigError, match=r"\[algorithm:hv\].*'alhpa'"):
        load_config(bad)
    code = cli.main(["cs", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "alhpa" in capsys.readouterr().err
    # the same check holds for the flags of a kind that does not read them
    code = cli.main(["cs", "--algo", "fista", "--alpha", "1e-3", "--beta", "5", "--lam", "3",
                     "--seeds", "0", "--maxiter", "20", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "[algorithm:fista] has unknown key 'beta'" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_cli_algorithm_flags_override_configured_algorithms(tmp_path, capsys):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG_TEXT)
    out = tmp_path / "r.csv"
    base = ["--config", str(path), "--seeds", "0", "--maxiter", "20", "--out", str(out)]
    assert cli.main(["cs", *base, "--alpha", "5e-4"]) == 0  # hv and ista both read alpha
    manifest = (tmp_path / "r.csv.manifest.txt").read_text()
    assert "hv: alpha=0.00050000000000000001 eta=1\n" in manifest
    assert "ista: alpha=0.00050000000000000001\n" in manifest
    assert cli.main(["cs", *base, "--radius-sq", "30"]) == 1  # neither reads radius_sq
    assert "--radius-sq is read by no configured algorithm" in capsys.readouterr().err
    # radius-search's pg search reads beta and gamma without a pg section
    assert cli.main(["radius-search", *base, "--beta", "1e-3"]) == 0
    assert "pg: beta=0.001\n" in (tmp_path / "r.csv.manifest.txt").read_text()
    path.write_text(CONFIG_TEXT + "[algorithm:pg]\nbeta = 1e-3\nradius_sq = auto\n")
    assert cli.main(["cs", *base, "--algo", "pg", "--radius-sq", "30"]) == 0
    assert "pg: radius_sq=30\n[mdp]" in (tmp_path / "r.csv.manifest.txt").read_text()
    assert cli.main(["radius-search", *base, "--beta", "2e-3", "--gamma", "0.5"]) == 0
    assert "pg: beta=0.002 gamma=0.5 radius_sq=auto\n" in (tmp_path / "r.csv.manifest.txt").read_text()


def test_cli_selftest(tmp_path):
    code = cli.main(["selftest", "--outdir", str(tmp_path / "st")])
    assert code == 0
    assert (tmp_path / "st" / "selftest_cs.csv").exists()


def test_cli_deblur_custom_image_file(tmp_path):
    image = np.zeros((6, 6))
    image[2:4, 2:4] = 2.0
    img_path = tmp_path / "img.csv"
    np.savetxt(img_path, image, delimiter=",")
    out = tmp_path / "d.csv"
    code = cli.main(
        [
            "deblur", "--algo", "hv", "--alpha", "1e-4", "--eta", "1.0",
            "--n", "6", "--band", "3", "--sigma", "0.7", "--snr-db", "40",
            "--seeds", "0", "--maxiter", "80", "--image", str(img_path),
            "--out", str(out),
        ]
    )
    assert code == 0
    header, row = out.read_text().strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["s"] == "4"  # nnz of the supplied image


def test_manifest_echoes_every_key_of_its_experiment_kind(tmp_path):
    image = np.zeros((6, 6))
    image[2:4, 2:4] = 2.0
    img_path = tmp_path / "img.csv"
    np.savetxt(img_path, image, delimiter=",")
    out = tmp_path / "d.csv"
    code = cli.main(
        [
            "deblur", "--algo", "hv", "--alpha", "1e-4", "--n", "6", "--snr-db", "40",
            "--seeds", "0", "--maxiter", "5", "--image", str(img_path), "--out", str(out),
        ]
    )
    assert code == 0
    manifest = (tmp_path / "d.csv.manifest.txt").read_text()
    assert f"n = 6\nband = 3\nsigma = 0.69999999999999996\nimage = {img_path}\nsnr_db = 40\n" in manifest


@pytest.mark.parametrize("algo", ["ista --alpha 1e-3", "fista --alpha 1e-3 --trace-dir t",
                                  "st --alpha 1e-3 --eta 0.5", "ht --lam 1e-3"])
def test_cli_diverging_solve_ends_nonfinite_without_a_warning(algo, tmp_path, monkeypatch):
    # the unit step of lambda 0.01 is far beyond 2 / ||A||^2: every iterate grows
    monkeypatch.chdir(tmp_path)
    argv = ["cs", "--algo", *algo.split(), "--lambda", "0.01", "--seeds", "0",
            "--maxiter", "3000", "--out", "r.csv"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(argv) == 0
    with open("r.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["termination"], row["snr_out_db"], row["rerror"]) == ("nonfinite", "-inf", "inf")
    assert int(row["iterations"]) < 3000


@pytest.mark.parametrize("kind, shape", [("cs", "n = 200\nm = 80\ns = 16\n"), ("deblur", "n = 16\n")])
def test_config_file_defaults_are_the_desk_settings(kind, shape, tmp_path):
    # a file that leaves scale (cs) or band and sigma (deblur) out runs the
    # instance the --algo flags run
    ini = tmp_path / "desk.ini"
    ini.write_text(f"[experiment]\nkind = {kind}\n{shape}snr_db = 40\nseeds = 0\nmaxiter = 20\n"
                   "[algorithm:hv]\nalpha = 6e-5\n")
    runs = {"file": ["--config", str(ini)],
            "flags": ["--algo", "hv", "--alpha", "6e-5", "--snr-db", "40", "--seeds", "0",
                      "--maxiter", "20"]}
    outputs = {}
    for name, argv in runs.items():
        out = tmp_path / f"{name}.csv"
        assert cli.main([kind, *argv, "--out", str(out)]) == 0
        manifest = Path(f"{out}.manifest.txt").read_text()
        outputs[name] = (deterministic_view(out.read_text()), manifest)
    assert outputs["file"] == outputs["flags"]


def test_cli_manifest_notes_rescale(tmp_path):
    # scale 1.0 on a 12x30 normal matrix puts ||A*A|| far above 1, so the
    # harness rescale kicks in and must be recorded
    out = tmp_path / "r.csv"
    code = cli.main(
        [
            "cs", "--algo", "ista", "--alpha", "1e-2", "--n", "30", "--m", "12",
            "--s", "3", "--scale", "1.0", "--snr-db", "40", "--seeds", "0",
            "--maxiter", "40", "--out", str(out),
        ]
    )
    assert code == 0
    manifest = (tmp_path / "r.csv.manifest.txt").read_text()
    assert "operator_rescale" in manifest


def test_solver_table_is_the_only_list_of_kinds():
    assert bench.ALGORITHMS == ("hv", "pg", "ista", "fista", "st", "ht")
    assert bench.ALGORITHMS == tuple(bench.SOLVER_KINDS)
    # the kinds that take alpha are exactly the penalized ones
    assert set(PENALIZED) == {k for k, v in bench.SOLVER_KINDS.items() if "alpha" in v.params}
    subcommands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    for name in ("cs", "deblur", "sweep", "radius-search"):
        algo = next(a for a in subcommands[name]._actions if a.dest == "algo")
        assert tuple(algo.choices) == bench.ALGORITHMS


def test_cli_builds_each_instance_once(tmp_path, monkeypatch):
    built = []
    real = bench.make_instance

    def counting(cfg, seed):
        built.append(seed)
        return real(cfg, seed)

    monkeypatch.setattr(bench, "make_instance", counting)
    out = tmp_path / "r.csv"
    code = cli.main(
        [
            "cs", "--algo", "ista", "--alpha", "1e-2", "--n", "30", "--m", "12",
            "--s", "3", "--scale", "1.0", "--snr-db", "40", "--seeds", "0,1",
            "--maxiter", "40", "--out", str(out),
        ]
    )
    assert code == 0
    assert built == [0, 1]
    cfg = ExperimentConfig(
        experiment="cs", n=30, m=12, s=3, scale=1.0, snr_db=40.0, seeds=(0, 1),
        algorithms=(AlgorithmSpec("ista", {"alpha": 1e-2}),),
    )
    _, factor = real(cfg, 0)
    assert factor != 1.0 and factor != real(cfg, 1)[1]
    manifest = (tmp_path / "r.csv.manifest.txt").read_text()
    assert f"operator_rescale = {factor:.17g}\n" in manifest


def _readme_cli_lines():
    """The `sparsq ...` lines of README's CLI block, continuation lines joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1].replace("\\\n", " ")
    return [line.strip() for line in block.splitlines() if line.strip().startswith("sparsq ")]


@pytest.mark.parametrize("subcommand", ["cs", "deblur", "sweep", "radius-search", "selftest"])
def test_readme_cli_examples_run(subcommand, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (line,) = [l for l in _readme_cli_lines() if l.split()[1] == subcommand]
    argv = shlex.split(line)[1:]
    if subcommand != "selftest":
        argv += ["--maxiter", "30"]  # the last flag wins
    assert cli.main(argv) == 0
    assert list(tmp_path.iterdir())
