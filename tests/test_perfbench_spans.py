"""perfbench still agrees with the sparsq it measures.

perfbench/spans.py patches the names sparsq.solvers imported (prox_sq_l1,
soft_threshold, eval_J, ...) and the solver entry points.  A rename in
sparsq.solvers makes entering traced() raise, and a solver that stops
looking a patched name up at call time makes its counter read 0.
perfbench/workloads.py checks an alpha search's residual against its own
copy of the search's band.
"""

import importlib.util
from pathlib import Path

import numpy as np

import sparsq.proxops
import sparsq.solvers
from sparsq.linops import DenseMatrix
from sparsq.proxops import RadiusSpec
from sparsq.regfun import RegParams
from sparsq.solvers import SolverOptions

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_block_counts_the_solvers_prox_calls():
    spans = _load("spans")
    rng = np.random.default_rng(0)
    A = DenseMatrix(rng.standard_normal((6, 8)), scale=0.2)
    y = A.apply(np.array([1.0, 0, 0, -0.5, 0, 0, 0, 0])) + 0.01 * rng.standard_normal(6)
    opts, x0 = SolverOptions(max_iter=5), np.full(8, 0.01)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        sparsq.solvers.solve_hv(A, y, RegParams(1e-3, 5e-4), opts, x0)
        sparsq.solvers.solve_ista(A, y, 1e-3, opts, x0)
        sparsq.solvers.solve_pg_sf(A, y, 0.0, 1.0, RadiusSpec.from_sq(1.0), opts, x0)
    assert tracer.calls["solvers.solve"] == 3
    assert tracer.calls.get("proxops.prox_sq_l1", 0) > 0
    assert tracer.calls.get("proxops.soft_threshold", 0) > 0
    assert tracer.calls.get("regfun.eval_J", 0) > 0
    # the block restores every name it patched
    assert sparsq.solvers.prox_sq_l1 is sparsq.proxops.prox_sq_l1


def test_workloads_check_the_alpha_search_band():
    # the benchmark's residual check reads [delta, ALPHA_BAND * delta]
    assert _load("workloads").ALPHA_BAND == sparsq.solvers.ALPHA_BAND
