"""Spans and counters around sparsq's public functions, for the traced run.

`traced(tracer)` patches, for the duration of a `with` block:

* the names `sparsq.solvers` imported (`prox_sq_l1`, `project_l1_ball_sort`,
  `soft_threshold`, `half_threshold`, `eval_J`, `eval_D`) and the solver entry
  points, which the searches look up by module name;
* `apply`/`apply_adjoint` on the operator classes;
* `sparsq.linops.estimate_opnorm_sq`, called by `opnorm_sq_cached`;
* `sparsq.proxops.psi`, counted but not timed (about 58 calls per prox);
* the generators and `make_instance` where `sparsq.bench` uses them.

Spans are aggregated in memory by name, as a call count and a self time: the
span's duration minus the part of it covered by child spans.  A traced pass
makes about a million operator applies, too many to keep one record each.
"""

import time
from contextlib import contextmanager

import numpy as np

import sparsq.bench
import sparsq.linops
import sparsq.proxops
import sparsq.solvers
from sparsq.linops import DenseMatrix, KroneckerBlur, ScaledOperator
from sparsq.solvers import Termination

SOLVE_ENTRY_POINTS = (
    "solve_hv",
    "solve_pg_sf",
    "solve_ista",
    "solve_fista",
    "solve_st_l1_l2",
    "solve_ht_half",
)
SEARCHES = ("search_radius_mdp", "select_alpha_discrepancy")
SOLVER_IMPORTS = {
    "prox_sq_l1": "proxops.prox_sq_l1",
    "project_l1_ball_sort": "proxops.project_l1_ball_sort",
    "soft_threshold": "proxops.soft_threshold",
    "half_threshold": "proxops.half_threshold",
    "eval_J": "regfun.eval_J",
    "eval_D": "regfun.eval_D",
}
GENERATORS = ("gen_cs_instance", "gen_blur_instance", "add_awgn")
OPERATOR_CLASSES = (DenseMatrix, KroneckerBlur, ScaledOperator)


class Tracer:
    """Per-name call counts, self times and extra counters of one traced pass."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self._stack = []  # [name, seconds covered by child spans]

    def span(self, name, fn, *args, **kwargs):
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += duration
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[1]

    def add(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def inside(self, prefix):
        return bool(self._stack) and self._stack[-1][0].startswith(prefix)


def apply_flop(op):
    """Floating-point operations of one apply, computed from the operator's shape."""
    if isinstance(op, ScaledOperator):
        return apply_flop(op.inner) + op.range_dim
    if isinstance(op, KroneckerBlur):
        return 4 * op.n**3 + op.range_dim  # two dense n-by-n products, one scaling
    return 2 * op.range_dim * op.domain_dim + op.range_dim


def _operator_wrapper(tracer, raw, name):
    def method(self, v):
        # KroneckerBlur.apply_adjoint and ScaledOperator call another apply;
        # only the outermost one is the layer boundary.
        if tracer.inside("linops.apply"):
            return raw(self, v)
        if name == "linops.apply":
            tracer.add("linops.apply.flop", apply_flop(self))
        return tracer.span(name, raw, self, v)

    return method


def _solve_wrapper(tracer, raw):
    def solve(*args, **kwargs):
        result = tracer.span("solvers.solve", raw, *args, **kwargs)
        tracer.add("solvers.iters", result.iterations)
        tracer.add("solvers.max_iter", result.termination == Termination.MAX_ITER)
        tracer.add("solvers.trace_records", len(result.trace))
        return result

    return solve


def _search_wrapper(tracer, raw):
    def search(*args, **kwargs):
        solves_before = tracer.calls.get("solvers.solve", 0)
        result = tracer.span("solvers.search", raw, *args, **kwargs)
        # Both searches run one inner solve per outer step and return the
        # outcome of one of them.
        inner = tracer.calls.get("solvers.solve", 0) - solves_before
        tracer.add("solvers.search.inner_solves", inner)
        tracer.add("solvers.search.bracketed", bool(result.bracketed))
        return result

    return search


def _projection_wrapper(tracer, raw):
    def project(x, r):
        # A span of its own keeps this check out of every layer's self time.
        inside = tracer.span(
            "perfbench.check", lambda: float(np.sum(np.abs(x))) <= r.radius_l1
        )
        tracer.add("proxops.project_l1_ball_sort.inside", inside)
        return tracer.span("proxops.project_l1_ball_sort", raw, x, r)

    return project


def _opnorm_wrapper(tracer, raw):
    def estimate(*args, **kwargs):
        est = tracer.span("linops.opnorm", raw, *args, **kwargs)
        tracer.add("linops.opnorm.iters", est.iterations)
        tracer.add("linops.opnorm.converged", bool(est.converged))
        return est

    return estimate


def _counted(tracer, raw, name):
    def counted(*args, **kwargs):
        tracer.add(name)
        return raw(*args, **kwargs)

    return counted


def _spanned(tracer, raw, name):
    def spanned(*args, **kwargs):
        return tracer.span(name, raw, *args, **kwargs)

    return spanned


@contextmanager
def traced(tracer):
    """Route sparsq's public functions through `tracer` inside the block."""
    patches = []
    for cls in OPERATOR_CLASSES:
        for attr, name in (("apply", "linops.apply"), ("apply_adjoint", "linops.apply_adjoint")):
            raw = cls.__dict__[attr]
            patches.append((cls, attr, raw, _operator_wrapper(tracer, raw, name)))
    for attr in SOLVE_ENTRY_POINTS:
        raw = getattr(sparsq.solvers, attr)
        patches.append((sparsq.solvers, attr, raw, _solve_wrapper(tracer, raw)))
    for attr in SEARCHES:
        raw = getattr(sparsq.solvers, attr)
        patches.append((sparsq.solvers, attr, raw, _search_wrapper(tracer, raw)))
    for attr, name in SOLVER_IMPORTS.items():
        raw = getattr(sparsq.solvers, attr)
        if attr == "project_l1_ball_sort":
            wrapper = _projection_wrapper(tracer, raw)
        else:
            wrapper = _spanned(tracer, raw, name)
        patches.append((sparsq.solvers, attr, raw, wrapper))
    raw = sparsq.linops.estimate_opnorm_sq
    patches.append((sparsq.linops, "estimate_opnorm_sq", raw, _opnorm_wrapper(tracer, raw)))
    raw = sparsq.proxops.psi
    patches.append((sparsq.proxops, "psi", raw, _counted(tracer, raw, "proxops.psi.calls")))
    for attr in GENERATORS:
        raw = getattr(sparsq.bench, attr)
        patches.append((sparsq.bench, attr, raw, _spanned(tracer, raw, "problems.generate")))
    raw = sparsq.bench.make_instance
    wrapper = _spanned(tracer, raw, "bench.make_instance")
    patches.append((sparsq.bench, "make_instance", raw, wrapper))

    for owner, attr, _, wrapper in patches:
        setattr(owner, attr, wrapper)
    try:
        yield tracer
    finally:
        for owner, attr, raw, _ in reversed(patches):
            setattr(owner, attr, raw)


def _frac(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer):
    """The per-layer metrics of one traced pass, by BENCHMARK.json name."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    searches = calls.get("solvers.search", 0)
    solves = calls.get("solvers.solve", 0)
    projections = calls.get("proxops.project_l1_ball_sort", 0)
    estimates = calls.get("linops.opnorm", 0)
    inner_solves = counts.get("solvers.search.inner_solves", 0)
    out = {
        "proxops.psi.calls": counts.get("proxops.psi.calls", 0),
        "linops.apply.gflop_computed": counts.get("linops.apply.flop", 0) / 1e9,
        "linops.opnorm.iters": counts.get("linops.opnorm.iters", 0),
        "linops.opnorm.converged": _frac(counts.get("linops.opnorm.converged", 0), estimates),
        "proxops.project_l1_ball_sort.inside_frac": _frac(
            counts.get("proxops.project_l1_ball_sort.inside", 0), projections
        ),
        "solvers.trace_records": counts.get("solvers.trace_records", 0),
        "solvers.iters": counts.get("solvers.iters", 0),
        "solvers.max_iter_frac": _frac(counts.get("solvers.max_iter", 0), solves),
        "solvers.search.calls": searches,
        "solvers.search.outer_steps": _frac(inner_solves, searches),
        "solvers.search.bracketed_frac": _frac(counts.get("solvers.search.bracketed", 0), searches),
        "solvers.search.useful_frac": _frac(searches, inner_solves),
    }
    for name in (
        "proxops.prox_sq_l1",
        "linops.apply",
        "linops.apply_adjoint",
        "proxops.project_l1_ball_sort",
        "regfun.eval_J",
        "regfun.eval_D",
        "solvers.solve",
    ):
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in (
        "proxops.prox_sq_l1",
        "linops.apply",
        "linops.apply_adjoint",
        "linops.opnorm",
        "proxops.project_l1_ball_sort",
        "proxops.soft_threshold",
        "proxops.half_threshold",
        "regfun.eval_J",
        "regfun.eval_D",
        "solvers.solve",
        "problems.generate",
        "bench.make_instance",
    ):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    return out
