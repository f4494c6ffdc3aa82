"""Command-line experiment runner.

Subcommands: cs, deblur, sweep, radius-search, selftest.  Each run writes a
results CSV, an adjacent plain-text manifest echoing the configuration, and
(on request) per-iteration trace CSVs.  Exit code 0 on success, 1 on
validation errors or internal check failures.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .bench import (
    ALGORITHMS,
    EXPERIMENT_KEYS,
    MDP_KEYS,
    SOLVER_KINDS,
    SWEEP_AXES,
    AlgorithmSpec,
    ConfigError,
    ExperimentConfig,
    agg_csv_text,
    algorithm_kind,
    build_config,
    deterministic_view,
    manifest_text,
    mdp_trace_csv_text,
    parse_number,
    radius_search,
    read_config,
    report_csv_text,
    run_experiment,
    sweep,
    trace_csv_text,
)
from .problems import BLUR_DESK, CS_DESK

# One flag per config key: --<key> with "_" as "-", its raw text parsed by
# bench.build_config as the same key in a config file is.
_EXPERIMENT_FLAGS = tuple(dict.fromkeys(k for keys in EXPERIMENT_KEYS.values() for k in keys))
_ALGORITHM_FLAGS = tuple(dict.fromkeys(k for kind in SOLVER_KINDS.values() for k in kind.params))
_FLAG_HELP = {
    "image": "CSV file with an n-by-n ground-truth image",
    "snr_db": "noise level in dB, or 'inf'",
    "seeds": "comma or space separated seed list",
    "out": "results CSV path (default results.csv)",
    "trace_dir": "write per-iteration trace CSVs here",
    "alpha": "number or 'auto'",
    "radius_sq": "number or 'auto'",
}


def _add_common_flags(sub, kind):
    sub.add_argument("--config", help="INI experiment config file")
    sub.add_argument("--algo", choices=ALGORITHMS,
                     help="single-algorithm shortcut instead of a config file")
    keys = EXPERIMENT_KEYS[kind] if kind in EXPERIMENT_KEYS else _EXPERIMENT_FLAGS
    for key in (*keys, *_ALGORITHM_FLAGS, *MDP_KEYS):
        sub.add_argument("--" + key.replace("_", "-"), dest=key, help=_FLAG_HELP.get(key))


def _config_from_args(args):
    """Write the flags over the config file's sections, or over the desk
    defaults without one, and build the config from them."""
    kind = args.experiment  # None without --experiment: the file's kind, or cs
    if args.config:
        sections = read_config(args.config)
        config_kind = sections["experiment"].get("kind", "cs").strip()
        if kind is not None and config_kind != kind:
            used = (f"--experiment {kind}" if args.command in ("sweep", "radius-search")
                    else f"the {kind!r} subcommand")
            raise ConfigError(f"config is for {config_kind!r} but {used} was used")
    elif args.algo:
        kind = kind or "cs"
        desk = CS_DESK if kind == "cs" else BLUR_DESK
        sections = {"experiment": {"kind": kind, **{k: str(v) for k, v in desk.items()}}}
    else:
        raise ConfigError("either --config or --algo is required")

    def given(keys):
        return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}

    sections["experiment"].update(given(_EXPERIMENT_FLAGS))
    if given(MDP_KEYS):
        sections.setdefault("mdp", {}).update(given(MDP_KEYS))
    algo_flags = given(_ALGORITHM_FLAGS)
    if args.algo:  # a single algorithm, its parameters from the flags alone
        sections = {name: s for name, s in sections.items() if algorithm_kind(name) is None}
        sections[f"algorithm:{args.algo}"] = algo_flags
    else:  # each flag overrides its key in every configured algorithm that reads it
        for key, text in algo_flags.items():
            kinds = [k for k, v in SOLVER_KINDS.items() if key in v.params]
            readers = [s for name, s in sections.items() if algorithm_kind(name) in kinds]
            if not readers and args.command == "radius-search" and key in ("beta", "gamma"):
                readers = [sections.setdefault("algorithm:pg", {})]  # the search's weights
            if not readers:
                raise ConfigError(f"--{key.replace('_', '-')} is read by no configured algorithm")
            for section in readers:
                section[key] = text
    return build_config(sections)


def _write(path, text):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def _cmd_run(args):
    cfg = _config_from_args(args)
    out = cfg.out or "results.csv"
    rows, traces, factor = run_experiment(cfg, want_traces=bool(cfg.trace_dir))
    notes = () if factor == 1.0 else (f"operator_rescale = {factor:.17g}",)
    _write(out, report_csv_text(rows))
    _write(out + ".manifest.txt", manifest_text(cfg, notes=notes))
    for (algo, seed), trace in traces.items():  # none without a trace_dir
        path = os.path.join(cfg.trace_dir, f"trace_{cfg.experiment}_{algo}_seed{seed}.csv")
        _write(path, trace_csv_text(trace))
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _cmd_sweep(args):
    cfg = _config_from_args(args)
    out = cfg.out or "results.csv"
    values = [parse_number(t, "values") for t in args.values.replace(",", " ").split()]
    rows, agg = sweep(cfg, args.axis, values)
    _write(out, report_csv_text(rows))
    _write(out + ".manifest.txt", manifest_text(cfg, notes=(f"sweep {args.axis} = {values}",)))
    _write(args.agg_out or out + ".agg.csv", agg_csv_text(agg))
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _cmd_radius_search(args):
    cfg = _config_from_args(args)
    out_path = cfg.out or "results.csv"
    out, inst = radius_search(cfg)
    _write(out_path, mdp_trace_csv_text(out.trace))
    notes = [
        f"final_radius_sq = {out.radius.radius_sq:.17g}",
        f"bracketed = {out.bracketed}",
        f"delta = {inst.delta:.17g}",
        f"x_true_l1_sq = {float(np.abs(inst.x_true).sum())**2:.17g}",
    ]
    _write(out_path + ".manifest.txt", manifest_text(cfg, notes=notes))
    print(
        f"final radius_sq = {out.radius.radius_sq:.6g} "
        f"(bracketed={out.bracketed}, outer iterations={len(out.trace)})"
    )
    return 0


def _selftest_battery(outdir):
    """Small deterministic battery exercising every algorithm and both
    experiment kinds.  Returns the list of (filename, deterministic bytes)."""
    cs_cfg = ExperimentConfig(
        experiment="cs",
        n=40,
        m=16,
        s=4,
        scale=0.1,
        amp_scale=2.0,
        snr_db=40.0,
        seeds=(0, 1),
        maxiter=150,
        algorithms=(
            AlgorithmSpec("hv", {"alpha": 1e-3, "eta": 1.0}),
            AlgorithmSpec("pg", {"beta": 1e-3, "gamma": 1.0, "radius_sq": 30.0}),
            AlgorithmSpec("ista", {"alpha": 1e-3}),
            AlgorithmSpec("fista", {"alpha": 1e-3}),
            AlgorithmSpec("st", {"alpha": 1e-3, "eta": 0.5}),
            AlgorithmSpec("ht", {"lam": 1e-3}),
        ),
    )
    blur_cfg = ExperimentConfig(
        experiment="deblur",
        n=8,
        band=3,
        sigma=0.7,
        snr_db=40.0,
        seeds=(0,),
        maxiter=150,
        algorithms=(
            AlgorithmSpec("hv", {"alpha": 1e-4, "eta": 1.0}),
            AlgorithmSpec("pg", {"beta": 1e-4, "gamma": 1.0, "radius_sq": 400.0}),
        ),
    )
    mdp_cfg = replace(
        cs_cfg,
        algorithms=(AlgorithmSpec("pg", {"beta": 1e-3, "gamma": 1.0}),),
        mdp={"r_min": 1.0, "r_max": 400.0, "tau1": 1.01, "tau2": 1.2, "max_outer": 12},
    )

    outputs = []
    cs_rows, cs_traces, _ = run_experiment(cs_cfg, want_traces=True)
    outputs.append(("selftest_cs.csv", report_csv_text(cs_rows)))
    outputs.append(("selftest_cs_trace_hv_seed0.csv", trace_csv_text(cs_traces[("hv", 0)])))
    blur_rows = run_experiment(blur_cfg)[0]
    outputs.append(("selftest_deblur.csv", report_csv_text(blur_rows)))
    mdp_out, _ = radius_search(mdp_cfg)
    outputs.append(("selftest_radius_trace.csv", mdp_trace_csv_text(mdp_out.trace)))
    outputs.append(("selftest_manifest.txt", manifest_text(cs_cfg)))

    if outdir:
        for name, text in outputs:
            _write(os.path.join(outdir, name), text)
    return [(name, deterministic_view(text)) for name, text in outputs]


def _quick_checks():
    """Fast internal consistency checks; returns a list of (name, ok) pairs."""
    from .linops import KroneckerBlur, densify
    from .proxops import RadiusSpec, project_l1_ball_hv, project_l1_ball_sort, prox_sq_l1

    checks = []
    rng = np.random.default_rng(123)

    op = KroneckerBlur(8, 3, 0.7)
    x = rng.standard_normal(64)
    y = rng.standard_normal(64)
    defect = abs(op.apply(x) @ y - x @ op.apply_adjoint(y))
    scale = float(np.linalg.norm(op.apply(x)) * np.linalg.norm(y)) or 1.0
    checks.append(("adjoint identity (blur 8x8)", defect / scale <= 1e-10))

    dense = densify(op)
    checks.append(
        ("blur apply matches densified matrix", np.allclose(op.apply(x), dense.apply(x), atol=1e-12))
    )

    v = rng.standard_normal(6)
    alpha = 0.3
    prox = prox_sq_l1(v, alpha)
    obj = 0.5 * np.sum((prox - v) ** 2) + alpha * np.sum(np.abs(prox)) ** 2
    ok = True
    for _ in range(200):
        u = prox + 0.1 * rng.standard_normal(6)
        if 0.5 * np.sum((u - v) ** 2) + alpha * np.sum(np.abs(u)) ** 2 < obj - 1e-9:
            ok = False
            break
    checks.append(("prox optimality spot check", ok))

    w = 5.0 * rng.standard_normal(12)
    r = RadiusSpec(2.0)
    gap = np.linalg.norm(project_l1_ball_hv(w, r) - project_l1_ball_sort(w, r))
    checks.append(("projection route agreement", gap <= 1e-8))
    return checks


def _cmd_selftest(args):
    outdir = args.outdir or "selftest_out"
    first = _selftest_battery(outdir)
    second = _selftest_battery(None)
    ok = True
    for (name, det1), (_, det2) in zip(first, second):
        same = det1 == det2
        ok &= same
        print(f"determinism {name}: {'PASS' if same else 'FAIL'}")
    for name, passed in _quick_checks():
        ok &= passed
        print(f"check {name}: {'PASS' if passed else 'FAIL'}")
    print(f"selftest: {'PASS' if ok else 'FAIL'} (outputs in {outdir})")
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sparsq", description="Sparse recovery benchmark runner"
    )
    parser.add_argument("--version", action="version", version=f"sparsq {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    for kind, about in (("cs", "compressive sensing"), ("deblur", "image deblurring")):
        run = subs.add_parser(kind, help=f"{about} experiment")
        _add_common_flags(run, kind)
        run.set_defaults(func=_cmd_run, experiment=kind)  # no --experiment flag

    sw = subs.add_parser("sweep", help="parameter sweep over eta, alpha, or snr_db")
    sw.add_argument("--experiment", choices=tuple(EXPERIMENT_KEYS),
                    help="the config file's kind, or cs without one")
    sw.add_argument("--axis", choices=SWEEP_AXES, required=True)
    sw.add_argument("--values", required=True, help="comma separated values")
    sw.add_argument("--agg-out", dest="agg_out")
    _add_common_flags(sw, "both")
    sw.set_defaults(func=_cmd_sweep)

    rs = subs.add_parser("radius-search", help="discrepancy-principle radius selection")
    rs.add_argument("--experiment", choices=tuple(EXPERIMENT_KEYS),
                    help="the config file's kind, or cs without one")
    _add_common_flags(rs, "both")
    rs.set_defaults(func=_cmd_radius_search)

    st = subs.add_parser("selftest", help="deterministic smoke battery and checks")
    st.add_argument("--outdir")
    st.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
