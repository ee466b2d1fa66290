"""Full analysis pipeline and deterministic report assembly."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .barriers import barrier_report
from .minpoly import factorization
from .orders import (
    SchemeContext,
    check_albrecht,
    classical_order,
    stage_order_components,
    verify_wso_orthogonality,
)
from .poly import PolynomialError
from .scalars import DEFAULT_TOL, format_scalar
from .stability import (
    SERIES_PMAX,
    STANDARD,
    check_alpha_vanishing,
    expand_in_basis,
    ortho_basis,
    stability_from_alpha,
    wso_via_wtilde,
)
from .tableau import serialize_tableau


@dataclass
class Analysis:
    tableau: object
    classification: object
    q1: object
    q2: object
    q_tilde: object
    q_wso: object
    p_classical: int
    p_linear: int
    dim_Y: int
    dim_Kq: int
    P: object
    Q: object
    N: object
    char: object
    R: object
    R_from_alpha: object  # None when p < dim Y
    alphas: list | None
    alpha_vanishing_ok: bool | None
    barrier: object
    consistency: dict
    warnings: list
    pmax: int = 6
    kcap: int | None = None


def analyze(t, tol=DEFAULT_TOL, pmax=6, kcap=None):
    """Classification, orders, subspaces, polynomials, stability, barriers.

    One `SchemeContext` serves every route and the barriers, and is dropped
    on return.
    """
    ctx = SchemeContext(t, tol, kcap)
    warnings = []
    cls = ctx.cls
    q1, q2 = stage_order_components(t, tol, ctx)
    q_tilde = min(q1, q2)
    q = ctx.q
    p_classical = classical_order(t, pmax, tol)
    R = ctx.R
    p_linear = ctx.p_linear
    fact = factorization(t, tol=tol, ctx=ctx)
    orth = verify_wso_orthogonality(t, kcap, tol, ctx)
    q_wtilde = wso_via_wtilde(t, kcap, tol, ctx)
    albrecht_ok, albrecht_viol = check_albrecht(t, p_classical, tol)

    consistency = {
        "wso-subspace-route": orth.q_algebraic == orth.q_subspace,
        "wso-resolvent-route": orth.q_algebraic == q_wtilde,
        "dim-sum-bound": orth.dim_sum_ok,
        "char-factorization": fact.product_matches,
        "order-orthogonality-selfcheck": albrecht_ok,
    }
    if albrecht_viol:
        warnings.append(f"order self-check violations at (j,k): {albrecht_viol}")

    R_alpha = None
    alphas = None
    lemma_ok = None
    dim_Y = orth.dim_Y
    if fact.Q.degree == dim_Y and p_linear >= dim_Y:
        basis = ortho_basis(max(dim_Y, 1), STANDARD)
        try:
            alphas = expand_in_basis(fact.Q, basis)
            lemma_ok, _bad = check_alpha_vanishing(
                alphas, dim_Y, p_linear, t.backend, tol
            )
            R_alpha = stability_from_alpha(alphas, dim_Y, p_linear, t.backend, tol)
            consistency["stability-function-routes"] = R.equals(R_alpha, tol)
            consistency["q-basis-orthogonality"] = bool(lemma_ok)
        except (PolynomialError, ValueError, RuntimeError) as err:
            warnings.append(f"stability-from-alpha route unavailable: {err}")
    if cls.s_reducible_partition is not None:
        warnings.append(
            f"scheme is stage-reducible: partition {cls.s_reducible_partition}"
        )
    if cls.dj_reducible_stages:
        warnings.append(
            f"stages {sorted(cls.dj_reducible_stages)} do not influence the output"
        )

    return Analysis(
        tableau=t,
        classification=cls,
        q1=q1,
        q2=q2,
        q_tilde=q_tilde,
        q_wso=q,
        p_classical=p_classical,
        p_linear=p_linear,
        dim_Y=dim_Y,
        dim_Kq=orth.dim_K,
        P=fact.P,
        Q=fact.Q,
        N=fact.N,
        char=fact.char,
        R=R,
        R_from_alpha=R_alpha,
        alphas=alphas,
        alpha_vanishing_ok=lemma_ok,
        barrier=barrier_report(t, tol, ctx),
        consistency=consistency,
        warnings=warnings,
        pmax=pmax,
        kcap=kcap,
    )


def _num(x):
    if x is None:
        return None
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    if isinstance(x, bool):
        return x
    return format_scalar(x) if not isinstance(x, int) else x


def _poly_coeffs(p):
    return [format_scalar(c) for c in p.coeffs]


def report_dict(analysis, tol=DEFAULT_TOL, file_bytes=None):
    """JSON-ready report with deterministic ordering."""
    t = analysis.tableau
    blob = file_bytes if file_bytes is not None else serialize_tableau(t).encode()
    digest = hashlib.sha256(blob).hexdigest()
    out = {
        "scheme": t.name or "(unnamed)",
        "sha256": digest,
        "backend": t.backend.name,
        "stages": t.s,
        "classification": analysis.classification.as_dict(),
        "orders": {
            "p_classical": analysis.p_classical,
            "p_linear": analysis.p_linear,
            "q_tilde": _num(analysis.q_tilde),
            "q_wso": _num(analysis.q_wso),
            "q1_quadrature": _num(analysis.q1),
            "q2_stage_quadrature": _num(analysis.q2),
        },
        "subspaces": {
            "dim_Y": analysis.dim_Y,
            "dim_K_q": analysis.dim_Kq,
        },
        "polynomials": {
            "P": _poly_coeffs(analysis.P),
            "Q": _poly_coeffs(analysis.Q),
            "N": _poly_coeffs(analysis.N),
            "char": _poly_coeffs(analysis.char),
        },
        "stability": {
            "numerator": _poly_coeffs(analysis.R.num),
            "denominator": _poly_coeffs(analysis.R.den),
            "order_vs_exp": analysis.p_linear,
            "alpha": (
                [format_scalar(a) for a in analysis.alphas]
                if analysis.alphas is not None
                else None
            ),
        },
        "barriers": analysis.barrier.as_dict(),
        "consistency": analysis.consistency,
        "warnings": analysis.warnings,
        "tolerances": tol.as_dict(),
        "options": {
            "pmax": analysis.pmax,
            "series_pmax": SERIES_PMAX,
            "kcap": analysis.kcap,
        },
    }
    return out


def consistency_ok(analysis):
    return all(analysis.consistency.values())
