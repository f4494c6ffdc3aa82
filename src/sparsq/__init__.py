"""Sparse recovery with squared-l1 minus squared-l2 regularization."""

__version__ = "0.1.0"

from .linops import (
    DenseMatrix,
    KroneckerBlur,
    LinearOperator,
    OpNormEstimate,
    ScaledOperator,
    densify,
    dump_operator_csv,
    estimate_opnorm_sq,
)
from .problems import (
    NoiseSpec,
    ProblemInstance,
    add_awgn,
    blur_desk_instance,
    cs_desk_instance,
    default_blur_image,
    gen_blur_instance,
    gen_cs_instance,
    load_instance,
    rerror_metric,
    save_instance,
    snr_metric,
)
from .proxops import (
    RadiusSpec,
    half_threshold,
    project_l1_ball_hv,
    project_l1_ball_sort,
    prox_sq_l1,
    psi,
    soft_threshold,
)
from .regfun import RegParams, eval_D, eval_J, eval_R, grad_f
from .solvers import (
    AlphaSelection,
    IterateRecord,
    MdpOptions,
    MdpResult,
    SolveResult,
    SolverOptions,
    Termination,
    pg_fixed_point_defect,
    search_radius_mdp,
    select_alpha_discrepancy,
    solve_fista,
    solve_ht_half,
    solve_hv,
    solve_ista,
    solve_pg_sf,
    solve_st_l1_l2,
)
