"""Benchmark orchestration: declarative configs, experiment runners, CSV output.

A config describes one experiment (instance family, noise level, seeds) plus a
list of algorithms with their parameters.  Config files are flat INI text with
an [experiment] section, one [algorithm:<kind>] section per solver, and an
optional [mdp] section for the radius search.  Numeric algorithm parameters
may be the string "auto" where a selection rule exists (alpha via the
discrepancy principle, radius_sq via the radius search).  build_config is the
one builder: load_config feeds it a file's sections, the CLI the sections with
its flags written over them.

All CSV numerics are written with 17 significant digits so values round-trip
exactly.  Timing columns (time_ms, elapsed_s) are the only nondeterministic
fields; deterministic_view() strips them so byte-level comparisons of repeated
runs are meaningful.
"""

import configparser
import math
import time
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .linops import ScaledOperator
from .problems import (
    BLUR_DESK,
    CS_DESK,
    CS_DESK_AMP_SCALE,
    add_awgn,
    gen_blur_instance,
    gen_cs_instance,
    rerror_metric,
    snr_metric,
)
from .proxops import RadiusSpec, half_threshold, prox_sq_l1, soft_threshold
from .regfun import RegParams
from .solvers import (
    ALPHA_BRACKET,
    PENALIZED,
    MdpOptions,
    SolverOptions,
    _check_descent,
    _pg_denominator,
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
    scale: float = CS_DESK["scale"]  # the desk settings, as the CLI's --algo runs
    amp_scale: float = CS_DESK_AMP_SCALE
    band: int = BLUR_DESK["band"]
    sigma: float = BLUR_DESK["sigma"]
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
        if self.experiment not in EXPERIMENT_KEYS:
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


def _seed_list(text):
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _whole_number(text):
    value = float(text)
    if not value.is_integer():
        raise ValueError("not a whole number")
    return int(value)


# The parameters that may be "auto": those with a selection rule.
AUTO_KEYS = ("alpha", "radius_sq")
# The axes a sweep runs over: two algorithm parameters and the noise level.
SWEEP_AXES = ("eta", "alpha", "snr_db")


def _number(key):
    """parse_number for key; "auto" only where a selection rule exists."""
    def parse(text):
        value = parse_number(text, key)
        if value == "auto" and key not in AUTO_KEYS:
            raise ValueError(f"no selection rule for {key}")
        return value
    return parse


# The [experiment] keys each experiment kind reads, with their parsers; x0
# fills ExperimentConfig.x0_value.  The CLI offers one flag per key (--<key>,
# "_" as "-"), and so does it for the [mdp] keys.
_COMMON_KEYS = {"n": int, "snr_db": _number("snr_db"), "seeds": _seed_list, "maxiter": int,
                "step_tol": float, "x0": float, "out": str, "trace_dir": str}
EXPERIMENT_KEYS = {
    "cs": {**_COMMON_KEYS, "m": int, "s": int, "scale": float, "amp_scale": float},
    "deblur": {**_COMMON_KEYS, "band": int, "sigma": float, "image": str},
}
MDP_KEYS = {"r_min": float, "r_max": float, "tau1": float, "tau2": float,
            "max_outer": _whole_number}


def _parse_section(name, items, parsers, reader):
    """{key: parsed value} of one section; unknown keys and unparsable values
    are ConfigErrors."""
    unknown = [k for k in items if k not in parsers]
    if unknown:
        raise ConfigError(
            f"[{name}] has unknown key {unknown[0]!r} ({reader} reads {', '.join(parsers)})"
        )
    parsed = {}
    for key, text in items.items():
        try:
            parsed[key] = parsers[key](text)
        except ValueError:
            raise ConfigError(f"cannot parse [{name}] {key} value {text!r}") from None
    return parsed


def algorithm_kind(section):
    """The solver kind of an [algorithm:<kind>] section name, else None."""
    prefix, colon, kind = section.partition(":")
    return kind.strip() if prefix == "algorithm" and colon else None


def read_config(path):
    """The sections of an INI config file, as {section: {key: text}}."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as err:
        raise ConfigError(str(err)) from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if "experiment" not in sections:
        raise ConfigError("config needs an [experiment] section")
    return sections


def build_config(sections):
    """The one builder of ExperimentConfig from config sections ({section:
    {key: text}}, as read_config returns them).  See the README for the schema."""
    exp = dict(sections["experiment"])
    kind = exp.pop("kind", "cs").strip()
    if kind not in EXPERIMENT_KEYS:
        raise ConfigError(f"experiment must be 'cs' or 'deblur', got {kind!r}")
    values = _parse_section("experiment", exp, EXPERIMENT_KEYS[kind], kind)
    if "n" not in values:
        raise ConfigError("[experiment] section needs n")
    algorithms = []
    for section, items in sections.items():
        algo_kind = algorithm_kind(section)
        if algo_kind is not None:
            AlgorithmSpec(algo_kind)  # checks the kind
            parsers = {k: _number(k) for k in SOLVER_KINDS[algo_kind].params}
            params = _parse_section(section, items, parsers, algo_kind)
            algorithms.append(AlgorithmSpec(algo_kind, params))
    mdp = _parse_section("mdp", sections.get("mdp", {}), MDP_KEYS, "the radius search")
    if "x0" in values:
        values["x0_value"] = values.pop("x0")
    return ExperimentConfig(experiment=kind, algorithms=tuple(algorithms), mdp=mdp, **values)


def load_config(path):
    """Parse an INI experiment config.  See the README for the schema."""
    return build_config(read_config(path))


def _checked(where, build, *args, **kwargs):
    """build(*args, **kwargs), its ValueError raised again as a ConfigError
    that names where.  Only for building a run's inputs, never around a solve."""
    try:
        return build(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from None


def _check_step(where, A, key, value, beta):
    """The solvers' descent check (_check_descent) of the step constant that
    key sets, made before any solve.  Where the warning filters turn its
    RuntimeWarning into an error, it is a ConfigError that names where and
    key; otherwise the copy recorded here is dropped, so the run's solve
    warns, once, as it would without the check."""
    with warnings.catch_warnings(record=True):
        try:
            _check_descent(A, key, value, beta)
        except RuntimeWarning as err:
            raise ConfigError(f"{where}: {err}") from None


def _generate(cfg, seed):
    """The configured noisy instance and ||A||^2, checked in O(n) with no
    operator apply: ||x_true||^2 positive and finite, ||y_delta||^2 and ||A||^2
    finite.  Extreme settings overflow while the instance is built; numpy's
    warnings are off there, and the checks catch what overflowed."""
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.experiment == "cs":
            inst = gen_cs_instance(cfg.n, cfg.m, cfg.s, cfg.scale, seed, cfg.amp_scale)
        else:
            image = None
            if cfg.image:
                try:
                    image = np.loadtxt(cfg.image, delimiter=",")
                except OSError as err:
                    raise ValueError(f"cannot read image: {err}") from None
            inst = gen_blur_instance(cfg.n, cfg.band, cfg.sigma, image=image)
        inst = add_awgn(inst, cfg.snr_db, seed)
        truth_sq = float(inst.x_true @ inst.x_true)
        data_sq = float(inst.y_delta @ inst.y_delta)
    if not truth_sq < math.inf:
        raise ValueError("||x_true||^2 is not finite")
    if truth_sq == 0.0:  # the SNR and rerror columns divide by it
        raise ValueError("||x_true||^2 is 0")
    if not data_sq < math.inf:
        raise ValueError("||y_delta||^2 is not finite")
    try:
        r_hat = inst.A.opnorm_sq
    except OverflowError:  # squaring a huge Python float raises
        r_hat = math.inf
    if not r_hat < math.inf:
        raise ValueError("||A||^2 overflows")
    return inst, r_hat


def make_instance(cfg, seed):
    """Generate the configured instance, add noise, rescale if the normal
    operator's norm is at or above one.  Returns (instance, rescale_factor).
    Settings the generators or _generate's checks reject are ConfigErrors."""
    inst, r_hat = _checked(f"{cfg.experiment} instance", _generate, cfg, seed)
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


def _columns(alpha=math.nan, eta=math.nan, radius_sq=math.nan):
    """A run's report columns; those that do not apply are nan."""
    return dict(alpha=alpha, eta=eta, radius_sq=radius_sq)


def _plan_penalized(cfg, inst, spec, opts, x0):
    alpha, eta = spec.params.get("alpha", math.nan), spec.params.get("eta", 0.0)
    # the weights every penalized solver takes: alpha > 0 and 0 <= eta <= 1
    trial_alpha = 1.0 if alpha == "auto" else alpha
    _checked(f"{spec.kind} (alpha={alpha}, eta={eta})", RegParams, trial_alpha, eta * trial_alpha)
    if alpha == "auto" and not inst.delta > 0:
        raise ConfigError("alpha = auto needs noisy data (delta > 0)")
    # the shrink's weight alpha * step, checked by the shrink itself, at alpha
    # or, since it grows with alpha, at both ends of the alpha search's bracket
    shrink, key = (prox_sq_l1, "l_k") if spec.kind == "hv" else (soft_threshold, "lambda")
    for end in ALPHA_BRACKET if alpha == "auto" else (alpha,):
        _checked(f"{spec.kind} at alpha = {end!r}, {key} = {opts.L!r}: "
                 f"{shrink.__name__}(x, alpha / {key})", shrink, np.zeros(1), end * (1.0 / opts.L))
    # the step's descent check: hv's beta = eta * alpha is largest at the
    # bracket's top; the baselines check with beta 0, as the solvers do
    top = ALPHA_BRACKET[1] if alpha == "auto" else alpha
    _check_step(f"{spec.kind} (alpha={alpha}, eta={eta})", inst.A, key, opts.L,
                eta * top if spec.kind == "hv" else 0.0)
    eta_column = eta if "eta" in SOLVER_KINDS[spec.kind].params else math.nan

    def solve(value):
        return PENALIZED[spec.kind](inst.A, inst.y_delta, value, eta, opts, x0, inst.x_true)

    def run():
        if alpha != "auto":
            return _columns(alpha, eta_column), solve(alpha)
        sel = select_alpha_discrepancy(
            inst.A, inst.y_delta, inst.delta, eta, spec.kind, opts, x0=x0
        )
        return _columns(sel.alpha, eta_column), solve(sel.alpha) if opts.record_trace else sel.result

    return run


def _pg_weights(spec, A):
    beta, gamma = spec.params.get("beta", 0.0), spec.params.get("gamma", 1.0)
    _checked("pg", _pg_denominator, beta, gamma)
    _check_step("pg", A, "gamma", gamma, beta)
    return beta, gamma


def _search_inputs(cfg, inst, spec):
    """The MdpOptions and pg weights of a pg spec's radius search (radius_sq
    = auto, and radius_search()), checked: (mdp, beta, gamma)."""
    if "r_min" not in cfg.mdp or "r_max" not in cfg.mdp:
        raise ConfigError("radius search needs r_min and r_max (an [mdp] section or flags)")
    if not inst.delta > 0:
        raise ConfigError("radius search needs noisy data (delta > 0)")
    try:
        mdp = MdpOptions(**{"tau1": 1.01, "tau2": 1.1, **cfg.mdp, "delta": inst.delta})
    except ValueError as err:
        raise ConfigError(f"[mdp] {err}") from None
    return mdp, *_pg_weights(spec, inst.A)


def _plan_pg(cfg, inst, spec, opts, x0):
    radius_sq = spec.params.get("radius_sq", math.nan)
    if radius_sq == "auto":
        mdp, beta, gamma = _search_inputs(cfg, inst, spec)
    elif math.isnan(radius_sq):
        raise ConfigError("pg needs a radius_sq parameter (number or 'auto')")
    else:
        beta, gamma = _pg_weights(spec, inst.A)
        radius = _checked("pg", RadiusSpec.from_sq, radius_sq)

    def solve(radius):
        return solve_pg_sf(inst.A, inst.y_delta, beta, gamma, radius, opts, x0, inst.x_true)

    if radius_sq != "auto":
        return lambda: (_columns(radius_sq=radius_sq), solve(radius))

    def run():
        out = search_radius_mdp(inst.A, inst.y_delta, beta, gamma, mdp, opts, x0, inst.x_true)
        result = solve(out.radius) if opts.record_trace else out.result
        return _columns(radius_sq=out.radius.radius_sq), result

    return run


def _plan_ht(cfg, inst, spec, opts, x0):
    lam = spec.params.get("lam", math.nan)
    if not 0 < lam < math.inf:
        raise ConfigError("ht needs a positive, finite lam parameter")
    _checked(f"ht at lam = {lam!r}, lambda = {opts.L!r}: half_threshold(x, lam, 1 / lambda)",
             half_threshold, np.zeros(1), lam, 1.0 / opts.L)
    _check_step("ht", inst.A, "lambda", opts.L, 0.0)
    # ht's weight is reported in the alpha column
    return lambda: (_columns(lam), solve_ht_half(inst.A, inst.y_delta, lam, opts, x0, inst.x_true))


class SolverKind(NamedTuple):
    params: tuple  # the parameters it reads; a sweep axis applies to the kinds listing it
    # (cfg, inst, spec, opts, x0) -> run, after every check of spec's run;
    # run() -> run_algorithm's (row_fields, SolveResult)
    plan: Callable


# The solver kinds, in report order.  Report columns that do not apply are nan.
SOLVER_KINDS = {
    "hv": SolverKind(("alpha", "eta", "l_k"), _plan_penalized),
    "pg": SolverKind(("beta", "gamma", "radius_sq"), _plan_pg),
    "ista": SolverKind(("alpha", "lambda"), _plan_penalized),
    "fista": SolverKind(("alpha", "lambda"), _plan_penalized),
    "st": SolverKind(("alpha", "eta", "lambda"), _plan_penalized),
    "ht": SolverKind(("lam", "lambda"), _plan_ht),
}

ALGORITHMS = tuple(SOLVER_KINDS)


def _solver_inputs(cfg, inst, spec, record_trace=False):
    """The SolverOptions and starting point of a run of spec on inst.  hv's
    l_k, and the lambda of ista, fista, st and ht, set the step constant L."""
    key = "l_k" if spec.kind == "hv" else "lambda"
    where = f"{spec.kind} ({key}={spec.params[key]!r} sets L)" if key in spec.params else spec.kind
    opts = _checked(where, SolverOptions, max_iter=cfg.maxiter, step_tol=cfg.step_tol,
                    L=spec.params.get(key, 1.0), record_trace=record_trace)
    if not math.isfinite(cfg.x0_value):
        raise ConfigError("x0 must be finite")
    if not math.isfinite(cfg.x0_value * inst.A.domain_dim):  # Python floats: no warning
        raise ConfigError(f"x0 = {cfg.x0_value:g}: ||x0||_1 overflows")
    return opts, np.full(inst.A.domain_dim, cfg.x0_value)


def _plan(cfg, inst, spec, record_trace=False):
    """spec's run on inst, checked; see SolverKind.plan."""
    opts, x0 = _solver_inputs(cfg, inst, spec, record_trace)
    return SOLVER_KINDS[spec.kind].plan(cfg, inst, spec, opts, x0)


def run_algorithm(cfg, inst, spec, record_trace=False):
    """Run one algorithm on one instance.  Returns (row_fields, SolveResult).
    A search returns its solve untraced: with record_trace its value is solved again, traced."""
    return _plan(cfg, inst, spec, record_trace)()


def _plan_cells(cfgs, want_traces=False):
    """Per config of cfgs, its (seed, inst, factor, spec, run) cells in run
    order.  Every check of every cell is made here, so a ConfigError comes
    before the first solve; each seed's instance is built once, for its cells."""
    return [[(seed, inst, factor, spec, _plan(cfg, inst, spec, want_traces))
             for seed in cfg.seeds for inst, factor in [make_instance(cfg, seed)]
             for spec in cfg.algorithms] for cfg in cfgs]


def _run_cells(cfg, cells):
    """Run planned cells of cfg, dropping each (and so, after its last cell,
    its instance) once it has run.  Returns run_experiment's triple."""
    rows = []
    traces = {}
    rescale = cells[0][2]
    while cells:
        seed, inst, _, spec, run = cells.pop(0)
        start = time.perf_counter()
        columns, result = run()
        elapsed_ms = 1e3 * (time.perf_counter() - start)
        with np.errstate(over="ignore", invalid="ignore"):  # a diverged x: -inf dB, inf
            snr_out = snr_metric(result.x_final, inst.x_true)
            rerror = rerror_metric(result.x_final, inst.x_true)
        rows.append(
            ReportRow(
                experiment=cfg.experiment,
                algorithm=spec.kind,
                seed=seed,
                n=inst.A.domain_dim,
                m=inst.A.range_dim,
                s=int(np.count_nonzero(inst.x_true)),
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
        if result.trace:
            traces[(spec.kind, seed)] = result.trace
    rows.sort(key=_row_sort_key)
    return rows, traces, rescale


def run_experiment(cfg, want_traces=False):
    """Run every (algorithm, seed) cell, after checking them all, building each
    seed's instance once.  Returns (rows, traces, rescale): traces maps
    (algorithm, seed) to the per-iteration record list, and rescale is
    make_instance's operator rescale factor for the first seed."""
    return _run_cells(cfg, _plan_cells([cfg], want_traces)[0])


def sweep(cfg, axis, values):
    """Cross-product run over a parameter axis.

    axis is one of 'eta', 'alpha', 'snr_db'.  Parameter axes require every
    configured algorithm to accept that parameter; the noise axis applies at
    the instance level.  Every cell of every value is checked before the first
    solve.  Returns (rows, aggregate) where aggregate holds one entry per
    (algorithm, value) with the seed median and mean of the quality metrics.
    """
    values = list(values)
    if not values:
        raise ConfigError("sweep needs at least one value")
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    if "auto" in values and axis not in AUTO_KEYS:
        raise ConfigError(f"sweep axis {axis!r} takes no 'auto' value: no selection rule for {axis}")
    if axis != "snr_db":
        bad = [a.kind for a in cfg.algorithms if axis not in SOLVER_KINDS[a.kind].params]
        if bad:
            raise ConfigError(f"axis {axis!r} does not apply to algorithms {bad}")
    if axis == "snr_db":
        cfgs = [replace(cfg, snr_db=value) for value in values]
    else:
        cfgs = [replace(cfg, algorithms=tuple(AlgorithmSpec(a.kind, {**a.params, axis: value})
                                              for a in cfg.algorithms)) for value in values]
    all_rows = []
    for cfg_v, cells in zip(cfgs, _plan_cells(cfgs)):
        all_rows.extend(_run_cells(cfg_v, cells)[0])
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


def radius_search(cfg):
    """Radius selection on the configured instance (first seed), with the
    weights of the first pg algorithm (beta 0 and gamma 1 without one), run as
    radius_sq = auto runs it.  Returns (MdpResult, instance)."""
    spec = next((a for a in cfg.algorithms if a.kind == "pg"), AlgorithmSpec("pg"))
    inst, _ = make_instance(cfg, cfg.seeds[0])
    opts, x0 = _solver_inputs(cfg, inst, spec)
    mdp, beta, gamma = _search_inputs(cfg, inst, spec)
    return search_radius_mdp(inst.A, inst.y_delta, beta, gamma, mdp, opts, x0, inst.x_true), inst


def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _nan_key(v):
    """A sort key of a report column or sweep value: numbers, then NaN."""
    f = float(v)
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


def _csv_text(columns, records):
    """A header line of columns, then one line per record, a sequence of
    values written with _fmt; a None (an unknown rerror) is written as nan."""
    lines = [columns] + [[_fmt(math.nan if v is None else v) for v in rec] for rec in records]
    return "".join(",".join(line) + "\n" for line in lines)


def report_csv_text(rows):
    return _csv_text(REPORT_COLUMNS, ([getattr(row, c) for c in REPORT_COLUMNS] for row in rows))


def agg_csv_text(agg):
    """The aggregate entries of sweep() / aggregate_rows() as CSV text."""
    return _csv_text(AGG_COLUMNS, ([entry[c] for c in AGG_COLUMNS] for entry in agg))


def trace_csv_text(trace):
    return _csv_text(TRACE_COLUMNS, ((r.k, r.objective, r.residual_norm, r.step_norm, r.rerror,
                                      r.elapsed_s) for r in trace))


def mdp_trace_csv_text(trace):
    return _csv_text(MDP_TRACE_COLUMNS, ((r.j, r.radius_sq, r.residual_norm, r.rerror)
                                         for r in trace))


def deterministic_view(csv_text):
    """Strip timing columns so repeated runs compare byte for byte."""
    lines = csv_text.splitlines()
    if not lines:
        return csv_text
    keep = [i for i, name in enumerate(lines[0].split(",")) if name not in TIMING_COLUMNS]
    return "".join(",".join(line.split(",")[i] for i in keep) + "\n" for line in lines)


def manifest_text(cfg, notes=()):
    shape = ("n",) + tuple(k for k in EXPERIMENT_KEYS[cfg.experiment] if k not in _COMMON_KEYS)
    lines = [f"sparsq {__version__}", "[config]", f"experiment = {cfg.experiment}"]
    lines += [f"{k} = {_fmt(getattr(cfg, k))}" for k in shape + ("snr_db", "maxiter", "step_tol")]
    lines += [f"x0 = {_fmt(cfg.x0_value)}", "[algorithms]"]
    for spec in cfg.algorithms:
        params = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(spec.params.items()))
        lines.append(f"{spec.kind}: {params}")
    if cfg.mdp:
        lines += ["[mdp]"] + [f"{k} = {_fmt(cfg.mdp[k])}" for k in MDP_KEYS if k in cfg.mdp]
    lines += ["[seeds]", " ".join(str(s) for s in cfg.seeds)]
    if notes:
        lines += ["[notes]", *notes]
    return "\n".join(lines) + "\n"
