"""Benchmark orchestration: declarative configs, experiment runners, CSV output.

A config describes one experiment (instance family, noise level, seeds) plus a
list of algorithms with their parameters.  Config files are flat INI text with
an [experiment] section, one [algorithm:<kind>] section per solver, and an
optional [mdp] section for the radius search.  Numeric algorithm parameters
may be the string "auto" where a selection rule exists (alpha via the
discrepancy principle, radius_sq via the radius search).

All CSV numerics are written with 17 significant digits so values round-trip
exactly.  Timing columns (time_ms, elapsed_s) are the only nondeterministic
fields; deterministic_view() strips them so byte-level comparisons of repeated
runs are meaningful.
"""

import configparser
import io
import math
import time
from dataclasses import dataclass, field, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .linops import ScaledOperator, opnorm_sq_cached
from .problems import (
    CS_DESK_AMP_SCALE,
    NoiseSpec,
    add_awgn,
    gen_blur_instance,
    gen_cs_instance,
    rerror_metric,
    snr_metric,
)
from .proxops import RadiusSpec
from .solvers import (
    PENALIZED,
    MdpOptions,
    SolverOptions,
    search_radius_mdp,
    select_alpha_discrepancy,
    solve_ht_half,
    solve_pg_sf,
)

TRACE_COLUMNS = ("k", "objective", "residual", "step_norm", "rerror", "elapsed_s")

MDP_TRACE_COLUMNS = ("j", "radius_sq", "residual_norm", "rerror")

TIMING_COLUMNS = {"time_ms", "elapsed_s"}

AGG_COLUMNS = ("algorithm", "axis", "value", "n_seeds", "snr_median", "snr_mean",
               "rerror_median", "rerror_mean")


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configs."""


@dataclass(frozen=True)
class AlgorithmSpec:
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.kind!r} (choose from {ALGORITHMS})")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n: int
    m: int = 0
    s: int = 0
    scale: float = 1.0
    amp_scale: float = CS_DESK_AMP_SCALE
    band: int = 3
    sigma: float = 0.7
    image: str = ""
    snr_db: float = math.inf
    algorithms: tuple = ()
    seeds: tuple = (0,)
    maxiter: int = 1500
    step_tol: float = 1e-5
    x0_value: float = 0.01
    out: str = ""
    trace_dir: str = ""
    mdp: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in ("cs", "deblur"):
            raise ConfigError(f"experiment must be 'cs' or 'deblur', got {self.experiment!r}")
        if not self.algorithms:
            raise ConfigError("algorithm list must not be empty")
        if not self.seeds:
            raise ConfigError("seed list must not be empty")
        if not self.n or self.n < 1:
            raise ConfigError("n is required and must be positive")
        if self.experiment == "cs" and (not self.m or not self.s):
            raise ConfigError("cs experiments need m and s")


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    algorithm: str
    seed: int
    n: int
    m: int
    s: int
    snr_db: float
    alpha: float
    eta: float
    radius_sq: float
    iterations: int
    time_ms: float
    snr_out_db: float
    rerror: float
    residual_norm: float
    termination: str


REPORT_COLUMNS = tuple(f.name for f in fields(ReportRow))


def parse_number(text, field_name):
    """A number, 'inf' or 'noise-free' for infinity, or 'auto'; ConfigError otherwise."""
    text = text.strip()
    if text == "auto":
        return "auto"
    if text in ("inf", "+inf", "noise-free"):
        return math.inf
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"cannot parse {field_name} value {text!r}") from None


def load_config(path):
    """Parse an INI experiment config.  See the README for the schema."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if "experiment" not in parser:
        raise ConfigError("config needs an [experiment] section")
    exp = parser["experiment"]
    kind = exp.get("kind", "cs").strip()
    algorithms = []
    for section in parser.sections():
        if section.startswith("algorithm:"):
            algo_kind = section.split(":", 1)[1].strip()
            params = {
                k: parse_number(v, f"{section}.{k}") for k, v in parser[section].items()
            }
            spec = AlgorithmSpec(algo_kind, params)  # checks the kind
            known = SOLVER_KINDS[algo_kind].params
            unknown = [k for k in params if k not in known]
            if unknown:
                raise ConfigError(
                    f"[{section}] has unknown key {unknown[0]!r} ({algo_kind} reads {', '.join(known)})"
                )
            algorithms.append(spec)
    mdp = {}
    if "mdp" in parser:
        mdp = {k: float(v) for k, v in parser["mdp"].items()}
    seeds = tuple(int(tok) for tok in exp.get("seeds", "0").replace(",", " ").split())
    if exp.get("n") is None:
        raise ConfigError("[experiment] section needs n")
    kwargs = dict(
        experiment=kind,
        n=exp.getint("n"),
        snr_db=parse_number(exp.get("snr_db", "inf"), "snr_db"),
        algorithms=tuple(algorithms),
        seeds=seeds,
        maxiter=exp.getint("maxiter", 1500),
        step_tol=exp.getfloat("step_tol", 1e-5),
        x0_value=exp.getfloat("x0", 0.01),
        out=exp.get("out", ""),
        trace_dir=exp.get("trace_dir", ""),
        mdp=mdp,
    )
    if kind == "cs":
        kwargs.update(
            m=exp.getint("m"),
            s=exp.getint("s"),
            scale=exp.getfloat("scale", 1.0),
            amp_scale=exp.getfloat("amp_scale", CS_DESK_AMP_SCALE),
        )
    else:
        kwargs.update(
            band=exp.getint("band", 3),
            sigma=exp.getfloat("sigma", 0.7),
            image=exp.get("image", ""),
        )
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as err:
        raise ConfigError(str(err)) from None


def make_instance(cfg, seed):
    """Generate the configured instance, add noise, rescale if the normal
    operator's norm is at or above one.  Returns (instance, rescale_factor)."""
    if cfg.experiment == "cs":
        inst = gen_cs_instance(cfg.n, cfg.m, cfg.s, cfg.scale, seed, cfg.amp_scale)
    else:
        image = None
        if cfg.image:
            image = np.loadtxt(cfg.image, delimiter=",")
        inst = gen_blur_instance(cfg.n, cfg.band, cfg.sigma, image=image)
    inst = add_awgn(inst, NoiseSpec(cfg.snr_db, seed))
    r_hat = opnorm_sq_cached(inst.A)
    factor = 1.0
    if r_hat >= 1.0:
        factor = float(np.sqrt(r_hat) * 1.01)
        inst = replace(
            inst,
            A=ScaledOperator(inst.A, 1.0 / factor),
            y_true=inst.y_true / factor,
            y_delta=inst.y_delta / factor,
            delta=inst.delta / factor,
        )
    return inst, factor


def _build_mdp_options(cfg, delta):
    mdp = cfg.mdp
    if "r_min" not in mdp or "r_max" not in mdp:
        raise ConfigError("radius search needs r_min and r_max (an [mdp] section or flags)")
    if not delta > 0:
        raise ConfigError("radius search needs noisy data (delta > 0)")
    return MdpOptions(
        r_min=mdp["r_min"],
        r_max=mdp["r_max"],
        tau1=mdp.get("tau1", 1.01),
        tau2=mdp.get("tau2", 1.1),
        delta=delta,
        max_outer=int(mdp.get("max_outer", 40)),
    )


def _run_penalized(cfg, inst, spec, opts, x0):
    alpha, eta = spec.params.get("alpha", math.nan), spec.params.get("eta", 0.0)
    if alpha == "auto":
        alpha = select_alpha_discrepancy(
            inst.A, inst.y_delta, inst.delta, eta, spec.kind, opts, x0=x0
        ).alpha
    result = PENALIZED[spec.kind](inst.A, inst.y_delta, alpha, eta, opts, x0, inst.x_true)
    eta_column = eta if "eta" in SOLVER_KINDS[spec.kind].params else math.nan
    return result, (alpha, eta_column, math.nan)


def _run_pg(cfg, inst, spec, opts, x0):
    beta, gamma = spec.params.get("beta", 0.0), spec.params.get("gamma", 1.0)
    radius_sq = spec.params.get("radius_sq", math.nan)
    if radius_sq == "auto":
        mdp_opts = _build_mdp_options(cfg, inst.delta)
        out = search_radius_mdp(
            inst.A, inst.y_delta, beta, gamma, mdp_opts, opts, x0, inst.x_true
        )
        return out.result, (math.nan, math.nan, out.radius.radius_sq)
    if math.isnan(radius_sq):
        raise ConfigError("pg needs a radius_sq parameter (number or 'auto')")
    radius = RadiusSpec.from_sq(radius_sq)
    result = solve_pg_sf(inst.A, inst.y_delta, beta, gamma, radius, opts, x0, inst.x_true)
    return result, (math.nan, math.nan, radius_sq)


def _run_ht(cfg, inst, spec, opts, x0):
    lam = spec.params.get("lam")
    if lam is None:
        raise ConfigError("ht needs a lam parameter")
    result = solve_ht_half(inst.A, inst.y_delta, lam, opts, x0, inst.x_true)
    return result, (lam, math.nan, math.nan)  # ht's weight reported in the alpha column


class SolverKind(NamedTuple):
    params: tuple  # the parameters it reads; a sweep axis applies to the kinds listing it
    run: Callable  # (cfg, inst, spec, opts, x0) -> (SolveResult, (alpha, eta, radius_sq))


# The solver kinds, in report order.  Report columns that do not apply are nan.
SOLVER_KINDS = {
    "hv": SolverKind(("alpha", "eta", "l_k"), _run_penalized),
    "pg": SolverKind(("beta", "gamma", "radius_sq"), _run_pg),
    "ista": SolverKind(("alpha", "lambda"), _run_penalized),
    "fista": SolverKind(("alpha", "lambda"), _run_penalized),
    "st": SolverKind(("alpha", "eta", "lambda"), _run_penalized),
    "ht": SolverKind(("lam", "lambda"), _run_ht),
}

ALGORITHMS = tuple(SOLVER_KINDS)


def run_algorithm(cfg, inst, spec, record_trace=False):
    """Run one algorithm on one instance.  Returns (row_fields, SolveResult)."""
    params = spec.params
    opts = SolverOptions(
        max_iter=cfg.maxiter,
        step_tol=cfg.step_tol,
        L_k=params.get("l_k", 1.0),
        lambda_st=params.get("lambda", 1.0),
        record_trace=record_trace,
    )
    x0 = np.full(inst.A.domain_dim, cfg.x0_value)
    result, (alpha, eta, radius_sq) = SOLVER_KINDS[spec.kind].run(cfg, inst, spec, opts, x0)
    return dict(alpha=alpha, eta=eta, radius_sq=radius_sq), result


def run_experiment(cfg, want_traces=False):
    """Run every (algorithm, seed) cell, building each seed's instance once.
    Returns (rows, traces, rescale): traces maps (algorithm, seed) to the
    per-iteration record list, and rescale is make_instance's operator rescale
    factor for the first seed."""
    rows = []
    traces = {}
    rescale = None
    for seed in cfg.seeds:
        inst, factor = make_instance(cfg, seed)
        rescale = factor if rescale is None else rescale
        for spec in cfg.algorithms:
            start = time.perf_counter()
            columns, result = run_algorithm(cfg, inst, spec, record_trace=want_traces)
            elapsed_ms = 1e3 * (time.perf_counter() - start)
            x = result.x_final
            snr_out = snr_metric(x, inst.x_true) if inst.x_true is not None else math.nan
            rerror = rerror_metric(x, inst.x_true) if inst.x_true is not None else math.nan
            rows.append(
                ReportRow(
                    experiment=cfg.experiment,
                    algorithm=spec.kind,
                    seed=seed,
                    n=inst.A.domain_dim,
                    m=inst.A.range_dim,
                    s=int(np.count_nonzero(inst.x_true)) if inst.x_true is not None else 0,
                    snr_db=cfg.snr_db,
                    **columns,
                    iterations=result.iterations,
                    time_ms=elapsed_ms,
                    snr_out_db=snr_out,
                    rerror=rerror,
                    residual_norm=result.residual_norm,
                    termination=str(result.termination.value),
                )
            )
            if want_traces:
                traces[(spec.kind, seed)] = result.trace
    rows.sort(key=_row_sort_key)
    return rows, traces, rescale


def sweep(cfg, axis, values, want_traces=False):
    """Cross-product run over a parameter axis.

    axis is one of 'eta', 'alpha', 'snr_db'.  Parameter axes require every
    configured algorithm to accept that parameter; the noise axis applies at
    the instance level.  Returns (rows, aggregate) where aggregate holds one
    entry per (algorithm, value) with the seed median and mean of the quality
    metrics.
    """
    values = list(values)
    if not values:
        raise ConfigError("sweep needs at least one value")
    if axis not in ("eta", "alpha", "snr_db"):
        raise ConfigError(f"unknown sweep axis {axis!r}")
    if axis != "snr_db":
        bad = [a.kind for a in cfg.algorithms if axis not in SOLVER_KINDS[a.kind].params]
        if bad:
            raise ConfigError(f"axis {axis!r} does not apply to algorithms {bad}")
    all_rows = []
    for value in values:
        if axis == "snr_db":
            cfg_v = replace(cfg, snr_db=value)
        else:
            specs = (AlgorithmSpec(a.kind, {**a.params, axis: value}) for a in cfg.algorithms)
            cfg_v = replace(cfg, algorithms=tuple(specs))
        all_rows.extend(run_experiment(cfg_v, want_traces=want_traces)[0])
    return all_rows, aggregate_rows(all_rows, axis)


def aggregate_rows(rows, axis):
    """Per-(algorithm, axis value) medians and means over seeds."""
    groups = {}
    for row in rows:
        key = (row.algorithm, getattr(row, axis))
        groups.setdefault(key, []).append(row)
    out = []
    for (algorithm, value), members in sorted(groups.items(), key=lambda kv: (kv[0][0], _nan_key(kv[0][1]))):
        snrs = [r.snr_out_db for r in members]
        rerrs = [r.rerror for r in members]
        out.append(
            {
                "algorithm": algorithm,
                "axis": axis,
                "value": value,
                "n_seeds": len(members),
                "snr_median": float(np.median(snrs)),
                "snr_mean": float(np.mean(snrs)),
                "rerror_median": float(np.median(rerrs)),
                "rerror_mean": float(np.mean(rerrs)),
            }
        )
    return out


def radius_search(cfg, beta=None, gamma=None):
    """Radius selection on the configured instance (first seed).

    Returns (MdpResult, instance).  beta/gamma default to the pg algorithm
    section when present.
    """
    pg_specs = [a for a in cfg.algorithms if a.kind == "pg"]
    if beta is None:
        beta = pg_specs[0].params.get("beta", 0.0) if pg_specs else 0.0
    if gamma is None:
        gamma = pg_specs[0].params.get("gamma", 1.0) if pg_specs else 1.0
    seed = cfg.seeds[0]
    inst, _ = make_instance(cfg, seed)
    if inst.x_true is None:
        raise ConfigError("radius search needs an instance with ground truth")
    mdp_opts = _build_mdp_options(cfg, inst.delta)
    opts = SolverOptions(
        max_iter=cfg.maxiter, step_tol=cfg.step_tol, record_trace=False
    )
    x0 = np.full(inst.A.domain_dim, cfg.x0_value)
    out = search_radius_mdp(
        inst.A, inst.y_delta, beta, gamma, mdp_opts, opts, x0, inst.x_true
    )
    return out, inst


def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _nan_key(v):
    try:
        f = float(v)
    except (TypeError, ValueError):
        return (2, 0.0)
    return (1, 0.0) if math.isnan(f) else (0, f)


def _row_sort_key(row):
    return (
        row.experiment,
        row.algorithm,
        _nan_key(row.snr_db),
        _nan_key(row.alpha),
        _nan_key(row.eta),
        _nan_key(row.radius_sq),
        row.seed,
    )


def report_csv_text(rows):
    buf = io.StringIO()
    buf.write(",".join(REPORT_COLUMNS) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(getattr(row, col)) for col in REPORT_COLUMNS) + "\n")
    return buf.getvalue()


def agg_csv_text(agg):
    """The aggregate entries of sweep() / aggregate_rows() as CSV text."""
    buf = io.StringIO()
    buf.write(",".join(AGG_COLUMNS) + "\n")
    for entry in agg:
        buf.write(",".join(_fmt(entry[col]) for col in AGG_COLUMNS) + "\n")
    return buf.getvalue()


def trace_csv_text(trace):
    buf = io.StringIO()
    buf.write(",".join(TRACE_COLUMNS) + "\n")
    for rec in trace:
        rerror = math.nan if rec.rerror is None else rec.rerror
        vals = (rec.k, rec.objective, rec.residual_norm, rec.step_norm, rerror, rec.elapsed_s)
        buf.write(",".join(_fmt(v) for v in vals) + "\n")
    return buf.getvalue()


def mdp_trace_csv_text(trace):
    buf = io.StringIO()
    buf.write(",".join(MDP_TRACE_COLUMNS) + "\n")
    for rec in trace:
        rerror = math.nan if rec.rerror is None else rec.rerror
        buf.write(",".join(_fmt(v) for v in (rec.j, rec.radius_sq, rec.residual_norm, rerror)) + "\n")
    return buf.getvalue()


def deterministic_view(csv_text):
    """Strip timing columns so repeated runs compare byte for byte."""
    lines = csv_text.splitlines()
    if not lines:
        return csv_text
    header = lines[0].split(",")
    keep = [i for i, name in enumerate(header) if name not in TIMING_COLUMNS]
    out = []
    for line in lines:
        cells = line.split(",")
        out.append(",".join(cells[i] for i in keep))
    return "\n".join(out) + "\n"


def manifest_text(cfg, notes=()):
    lines = [f"sparsq {__version__}", "[config]"]
    lines.append(f"experiment = {cfg.experiment}")
    if cfg.experiment == "cs":
        lines += [
            f"n = {cfg.n}",
            f"m = {cfg.m}",
            f"s = {cfg.s}",
            f"scale = {_fmt(cfg.scale)}",
            f"amp_scale = {_fmt(cfg.amp_scale)}",
        ]
    else:
        lines += [f"n = {cfg.n}", f"band = {cfg.band}", f"sigma = {_fmt(cfg.sigma)}"]
    lines += [
        f"snr_db = {_fmt(cfg.snr_db)}",
        f"maxiter = {cfg.maxiter}",
        f"step_tol = {_fmt(cfg.step_tol)}",
        f"x0 = {_fmt(cfg.x0_value)}",
        "[algorithms]",
    ]
    for spec in cfg.algorithms:
        params = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(spec.params.items()))
        lines.append(f"{spec.kind}: {params}")
    lines.append("[seeds]")
    lines.append(" ".join(str(s) for s in cfg.seeds))
    if notes:
        lines.append("[notes]")
        lines.extend(notes)
    return "\n".join(lines) + "\n"
