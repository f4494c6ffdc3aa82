"""Sparse recovery with squared-l1 minus squared-l2 regularization.

Each public name lives in the module that defines it: from sparsq.solvers import solve_hv."""

__version__ = "0.1.0"

from . import linops, problems, proxops, regfun, solvers
