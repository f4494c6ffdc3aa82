"""The public numeric entry points under extreme input.

For any shape, with entries and weights drawn among nan, +-inf, 1.7e308 and
5e-324, each of prox_sq_l1, project_l1_ball_sort, soft_threshold,
half_threshold and the operators' apply and apply_adjoint either returns an
array or raises a ValueError that names the problem: one raised by a raise
statement of sparsq's own checks, not by numpy.  Any other exception fails,
and so does a numpy warning, with one exception: the operators' products
warn as numpy's `A @ x` does where the image they return overflows or is
undefined (an inf or nan entry).  Silencing that warning would cost every
apply an np.errstate: about 1.6 us against 6.4 us for a 200-by-200 dense
apply (numpy 2.4, one OpenBLAS thread, 2-core x86 VM), on the solvers' hot
path, where _iterate already silences it.
"""

import pathlib
import traceback
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import sparsq
from sparsq.linops import DenseMatrix, KroneckerBlur, ScaledOperator
from sparsq.proxops import (
    RadiusSpec,
    half_threshold,
    project_l1_ball_sort,
    prox_sq_l1,
    soft_threshold,
)

PACKAGE = pathlib.Path(sparsq.__file__).parent
EXTREMES = (np.nan, np.inf, -np.inf, 1.7e308, -1.7e308, 5e-324, -5e-324, 0.0)
_ENTRIES = np.random.default_rng(0).standard_normal((3, 4))
# domain 4 and range 3 or 4, so that the drawn vectors of length 3 and 4 fit
OPERATORS = (DenseMatrix(_ENTRIES), DenseMatrix(_ENTRIES, 1e300), KroneckerBlur(2, 2, 0.7),
             ScaledOperator(DenseMatrix(_ENTRIES), 20.0))

entries = st.one_of(st.sampled_from(EXTREMES), st.floats(-10.0, 10.0))
weights = st.one_of(st.sampled_from(EXTREMES + (-1.0,)), st.floats(1e-3, 1e3))
shapes = st.one_of(st.sampled_from([(3,), (4,)]),
                   array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5))


def _calls(x, a, b, op):
    """(name, call) of each entry point on x, with the weights a and b."""
    return [
        ("prox_sq_l1", lambda: prox_sq_l1(x, a)),
        ("project_l1_ball_sort", lambda: project_l1_ball_sort(x, RadiusSpec(a))),
        ("soft_threshold", lambda: soft_threshold(x, a)),
        ("half_threshold", lambda: half_threshold(x, a, b)),
        ("apply", lambda: op.apply(x)),
        ("apply_adjoint", lambda: op.apply_adjoint(x)),
    ]


@settings(deadline=None)
@given(x=shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=entries)),
       a=weights, b=weights, op=st.sampled_from(OPERATORS))
# an infinite threshold: inf - inf in the shrink
@example(x=np.array([np.inf]), a=np.inf, b=1.0, op=OPERATORS[0])
# half thresholding at lam * step = 0 (underflow) and at an infinite weight
# t 3^1.5 / 4: an overflow in |x|^-1.5, and inf * 0 at an infinite entry
@example(x=np.array([5e-324]), a=5e-324, b=5e-324, op=OPERATORS[0])
@example(x=np.array([np.inf]), a=1.7e308, b=1.0, op=OPERATORS[0])
def test_entry_points_return_an_array_or_name_the_problem(x, a, b, op):
    for name, call in _calls(x, a, b, op):
        out = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                out = call()
            except ValueError as err:
                frame = traceback.extract_tb(err.__traceback__)[-1]
                own = pathlib.Path(frame.filename).parent == PACKAGE and frame.line.startswith("raise")
                assert own and str(err), (name, frame.filename, frame.line, err)
        assert out is None or isinstance(out, np.ndarray), (name, type(out))
        product = name.startswith("apply") and out is not None and not np.all(np.isfinite(out))
        assert not caught or product, (name, [str(w.message) for w in caught])
