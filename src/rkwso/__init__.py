"""Weak-stage-order analysis toolkit for Runge-Kutta schemes."""

from .catalog import catalog_all, catalog_names, catalog_scheme
from .construct import (
    ConstructionSpec,
    build_wso3_p2_s2,
    build_wso3_p3_s3,
    generic_search,
)
from .orders import (
    classical_order,
    space_K,
    space_Y,
    tau,
    verify_wso_orthogonality,
    wso,
)
from .minpoly import char_poly, factorization, min_poly_on_subspace, poly_P, poly_Q
from .poly import Polynomial, RationalFunction
from .barriers import barrier_report
from .prothero import estimate_order, local_error_probe, pr_problem, rk_step
from .report import analyze, report_dict
from .scalars import DEFAULT_TOL, Tolerances
from .stability import (
    functional_L,
    hankel_det,
    hankel_det_formula,
    order_vs_exp,
    ortho_basis,
    stability_from_alpha,
    stability_function,
    w_k,
    wtilde_k,
)
from .tableau import (
    ButcherTableau,
    classify,
    dj_reducibility,
    make_tableau,
    parse_tableau,
    s_reducibility,
    serialize_tableau,
)

__all__ = [
    "ButcherTableau",
    "ConstructionSpec",
    "DEFAULT_TOL",
    "Polynomial",
    "RationalFunction",
    "Tolerances",
    "analyze",
    "barrier_report",
    "build_wso3_p2_s2",
    "build_wso3_p3_s3",
    "catalog_all",
    "catalog_names",
    "catalog_scheme",
    "char_poly",
    "classical_order",
    "classify",
    "dj_reducibility",
    "estimate_order",
    "factorization",
    "functional_L",
    "generic_search",
    "hankel_det",
    "hankel_det_formula",
    "local_error_probe",
    "make_tableau",
    "min_poly_on_subspace",
    "order_vs_exp",
    "ortho_basis",
    "parse_tableau",
    "poly_P",
    "poly_Q",
    "pr_problem",
    "report_dict",
    "rk_step",
    "s_reducibility",
    "serialize_tableau",
    "space_K",
    "space_Y",
    "stability_from_alpha",
    "stability_function",
    "tau",
    "verify_wso_orthogonality",
    "w_k",
    "wso",
    "wtilde_k",
]

__version__ = "0.1.0"
