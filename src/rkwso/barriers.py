"""Executable order barriers relating stages, order, WSO, and subspace dims.

Every checker runs only when its hypotheses hold; otherwise it reports a
not-applicable entry naming the failed hypothesis.  A sharp flag marks
equality in the satisfied inequality.

The checkers read every per-scheme quantity (WSO, R(z), Y, K_m, P, Q, the
classification) from one `orders.SchemeContext`, the one `analyze` built
when it calls `barrier_report`.  The rule is the context's: share inputs,
never results.  The barriers consume the results of the routes; the routes
never read each other's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .minpoly import min_poly_matrix
from .orders import SchemeContext
from .scalars import DEFAULT_TOL
from .stability import reduced_degrees
from .tableau import distinct_abscissas, has_zero_abscissa

NAME_STAB_DEGREE = "stability-degree-vs-dimY"
NAME_STAB_DEGREE_SA = "stability-degree-stiffly-accurate"
NAME_DIMY_LOWER = "dimY-lower-bound"
NAME_DIMY_DIRK = "dimY-dirk-order-bound"
NAME_DIMK_UPPER = "dimK-upper-bound"
NAME_DIMK_UPPER_DIRK = "dimK-upper-bound-dirk"
NAME_K_LOWER_GENERAL = "dimK-lower-bound-general"
NAME_K_MEMBER_E = "K-contains-ones-vector"
NAME_K_MEMBER_C = "K-contains-abscissa-vector"
NAME_K_SATURATION = "K-saturation"
NAME_K_LOWER_DIRK_NZ = "dimK-lower-bound-dirk-nonzero-diag"
NAME_K_LOWER_DIRK = "dimK-lower-bound-dirk"
NAME_WSO_CAP_NONZERO = "wso-cap-all-abscissae-nonzero"
NAME_WSO_CAP_ZERO = "wso-cap-with-zero-abscissa"
NAME_STAGE_ORDER_WSO_BUDGET = "wso-order-stage-budget"
NAME_DIRK_WSO_ORDER_BUDGET = "dirk-wso-order-stage-budget"
NAME_P_DIVISIBILITY = "P-divisible-by-leading-block-minpoly"
NAME_P_ROOTS = "P-roots-from-leading-diagonal"
NAME_Q_LAST_DIAG = "Q-root-at-last-diagonal"


@dataclass(frozen=True)
class BarrierEntry:
    name: str
    applicable: bool
    satisfied: bool | None
    sharp: bool
    lhs: object = None
    rhs: object = None
    reason: str = ""

    def as_dict(self):
        return {
            "name": self.name,
            "applicable": self.applicable,
            "satisfied": self.satisfied,
            "sharp": self.sharp,
            "lhs": _jsonable(self.lhs),
            "rhs": _jsonable(self.rhs),
            "reason": self.reason,
        }


def _jsonable(x):
    if x is None:
        return None
    if isinstance(x, bool):
        return x
    if isinstance(x, (int, float)):
        return "inf" if isinstance(x, float) and math.isinf(x) else x
    return str(x)


@dataclass
class BarrierReport:
    inputs: dict
    entries: list = field(default_factory=list)

    def add(self, name, lhs, rhs, sharp_when_equal=True):
        satisfied = bool(lhs <= rhs)
        sharp = bool(sharp_when_equal and lhs == rhs)
        self.entries.append(
            BarrierEntry(name, True, satisfied, sharp, lhs, rhs)
        )

    def add_bool(self, name, ok, reason=""):
        self.entries.append(BarrierEntry(name, True, bool(ok), False, reason=reason))

    def skip(self, name, reason):
        self.entries.append(BarrierEntry(name, False, None, False, reason=reason))

    def violations(self):
        return [e for e in self.entries if e.applicable and e.satisfied is False]

    def entry(self, name):
        found = [e for e in self.entries if e.name == name]
        return found[0] if found else None

    def as_dict(self):
        return {
            "inputs": {k: _jsonable(v) for k, v in self.inputs.items()},
            "entries": [e.as_dict() for e in self.entries],
        }


@dataclass(frozen=True)
class BarrierInputs:
    """Everything the inequality checkers consume."""

    t: object
    cls: object
    p: int  # order of R(z) against exp(z) -- the weaker order hypothesis
    q: object  # WSO, possibly math.inf
    n_c: int
    sigma: int
    kappa: int
    dim_Y: int
    dim_Kq: int
    deg_P: int
    deg_Q: int
    deg_num: int
    deg_den: int


def gather_inputs(t, tol=DEFAULT_TOL, ctx=None):
    ctx = ctx or SchemeContext(t, tol)
    cls = ctx.cls
    dn, dd = reduced_degrees(ctx.R, tol)
    return BarrierInputs(
        t=t,
        cls=cls,
        p=ctx.p_linear,
        q=ctx.q,
        n_c=cls.n_c,
        sigma=1 if (cls.is_stiffly_accurate and cls.a_invertible) else 0,
        kappa=1 if cls.is_gedirk else 0,
        dim_Y=ctx.Y.dim,
        dim_Kq=ctx.dim_Kq,
        deg_P=ctx.P.degree,
        deg_Q=ctx.Q.degree,
        deg_num=dn,
        deg_den=dd,
    )


def check_dimY_bounds(bi, report):
    """Stability degree bounds and the dim Y order bounds."""
    report.add(NAME_STAB_DEGREE, max(bi.deg_num, bi.deg_den), bi.dim_Y)
    if bi.sigma == 1:
        report.add(NAME_STAB_DEGREE_SA, bi.deg_num, bi.deg_den - 1)
    else:
        report.skip(NAME_STAB_DEGREE_SA, "not stiffly accurate with invertible A")
    report.add(NAME_DIMY_LOWER, (bi.p + 1 + bi.sigma) // 2, bi.dim_Y)
    if bi.cls.is_dirk:
        report.add(NAME_DIMY_DIRK, bi.p, bi.dim_Y + 1 - bi.sigma)
    else:
        report.skip(NAME_DIMY_DIRK, "not diagonally implicit")


def check_dimK_bounds(bi, report):
    """deg P <= dim K_q <= the stage-count budget.

    The general budget s - floor((p+1+sigma)/2) holds for every scheme; the
    diagonally implicit budget s - p - 1 + sigma is checked additionally.
    A negative upper bound means no scheme with these (s, p, sigma) exists
    at this q; such entries are reported not applicable, never asserted.
    """
    if math.isinf(bi.q):
        report.skip(NAME_DIMK_UPPER, "wso is infinite")
        report.skip(NAME_DIMK_UPPER_DIRK, "wso is infinite")
        return
    s = bi.t.s

    def one_bound(name, rhs):
        if rhs < 0:
            report.skip(
                name,
                f"upper bound {rhs} < 0: no scheme with these (s, p, sigma)"
                " at this q",
            )
            return
        ok = bi.deg_P <= bi.dim_Kq <= rhs
        report.entries.append(
            BarrierEntry(
                name,
                True,
                ok,
                bi.dim_Kq == rhs,
                f"deg P = {bi.deg_P} <= dim K_q = {bi.dim_Kq}",
                rhs,
            )
        )

    one_bound(NAME_DIMK_UPPER, s - (bi.p + 1 + bi.sigma) // 2)
    if bi.cls.is_dirk:
        one_bound(NAME_DIMK_UPPER_DIRK, s - bi.p - 1 + bi.sigma)
    else:
        report.skip(NAME_DIMK_UPPER_DIRK, "not diagonally implicit")


def check_Km_lower_bounds(t, bi, report, tol=DEFAULT_TOL, ctx=None):
    """Memberships and dimension lower bounds for K_m at m = m*."""
    ctx = ctx or SchemeContext(t, tol)
    n_c = bi.n_c
    zero_absc = has_zero_abscissa(t, tol)
    # one build serves every K_j needed here: K_j is a prefix of K_{m*+3}
    m = mstar = ctx.mstar
    K = ctx.K.prefix(m)
    # general lower bound: dim K_m >= max(m - n_c, 0) for m <= 2 n_c - 1
    if m <= 2 * n_c - 1:
        report.add(NAME_K_LOWER_GENERAL, max(m - n_c, 0), K.dim)
    else:
        report.skip(NAME_K_LOWER_GENERAL, f"m = {m} exceeds 2 n_c - 1")
    ones = list(t.ones)
    if not zero_absc and m >= 2 * n_c:
        report.add_bool(
            NAME_K_MEMBER_E,
            K.contains(ones, tol) and K.dim >= n_c,
            "ones vector in K and dim K >= n_c",
        )
    else:
        report.skip(NAME_K_MEMBER_E, "needs m >= 2 n_c and no zero abscissa")
    if zero_absc and m >= 2 * n_c - 1:
        report.add_bool(
            NAME_K_MEMBER_C,
            K.contains(list(t.c), tol) and K.dim >= n_c - 1,
            "abscissa vector in K and dim K >= n_c - 1",
        )
    else:
        report.skip(NAME_K_MEMBER_C, "needs m >= 2 n_c - 1 and a zero abscissa")
    # saturation: K at the saturation index equals K three steps later;
    # K_{m*} is a prefix of K_{m*+3}, so equal dimensions mean equal spans
    report.add_bool(
        NAME_K_SATURATION,
        ctx.K.dims[mstar - 1] == ctx.K.dims[mstar + 2],
        f"K_{mstar} == K_{mstar + 3}",
    )
    if bi.cls.is_dirk and not bi.cls.is_gedirk and m >= 2 * n_c:
        report.add(NAME_K_LOWER_DIRK_NZ, n_c, K.dim)
    else:
        report.skip(
            NAME_K_LOWER_DIRK_NZ,
            "needs a non-GEDIRK DIRK and m >= 2 n_c",
        )
    if bi.cls.is_dirk:
        lower = min((m + bi.kappa) // 2, n_c) - bi.kappa
        report.add(NAME_K_LOWER_DIRK, lower, K.dim)
    else:
        report.skip(NAME_K_LOWER_DIRK, "not diagonally implicit")


def check_main_results(bi, report, tol=DEFAULT_TOL):
    """The stage/WSO/order budgets for general and DIRK schemes."""
    s = bi.t.s
    zero_absc = has_zero_abscissa(bi.t, tol)
    q, p = bi.q, bi.p
    if not zero_absc:
        if p >= 1:
            # q = inf here would be a genuine violation (it forces b.e = 0)
            report.add(NAME_WSO_CAP_NONZERO, q, 2 * bi.n_c - 1)
        else:
            report.skip(NAME_WSO_CAP_NONZERO, "scheme is not order-1 consistent")
        report.skip(NAME_WSO_CAP_ZERO, "no zero abscissa")
    else:
        report.skip(NAME_WSO_CAP_NONZERO, "some abscissa vanishes")
        if math.isinf(q):
            # infinite q forces order at most 1
            report.entries.append(
                BarrierEntry(
                    NAME_WSO_CAP_ZERO,
                    True,
                    p <= 1,
                    p == 1,
                    f"q = inf, p = {p}",
                    "p <= 1",
                )
            )
        else:
            report.add(NAME_WSO_CAP_ZERO, q, 2 * bi.n_c - 2)
    if not math.isinf(q) and q <= 2 * bi.n_c - 1:
        report.add(
            NAME_STAGE_ORDER_WSO_BUDGET,
            q + (p + 1 + bi.sigma) // 2,
            s + bi.n_c,
        )
    else:
        report.skip(NAME_STAGE_ORDER_WSO_BUDGET, "needs finite q <= 2 n_c - 1")
    if bi.cls.is_dirk and not math.isinf(q) and q <= 2 * bi.n_c - 1:
        report.add(
            NAME_DIRK_WSO_ORDER_BUDGET,
            (q + bi.kappa) // 2 - bi.kappa + p,
            s + 1 - bi.sigma,
        )
    else:
        report.skip(
            NAME_DIRK_WSO_ORDER_BUDGET, "needs a DIRK with finite q <= 2 n_c - 1"
        )


def _leading_block(t, r):
    return [[t.a(i, j) for j in range(r)] for i in range(r)]


def _block_invertible(t, r, tol):
    # diagonal of a lower-triangular block decides invertibility
    return not any(t.backend.is_zero(t.a(i, i), tol.zero) for i in range(r))


def check_P_necessary_conditions(t, bi, report, tol=DEFAULT_TOL, ctx=None):
    """Root/divisibility conditions on P and Q for DIRK schemes."""
    ctx = ctx or SchemeContext(t, tol)
    P, Q = ctx.P, ctx.Q
    cls = bi.cls
    q = bi.q
    # (1) leading-block minimal polynomials divide P
    if not cls.is_dirk:
        report.skip(NAME_P_DIVISIBILITY, "not diagonally implicit")
    elif cls.is_gedirk:
        report.skip(NAME_P_DIVISIBILITY, "GEDIRK scheme")
    elif q < 2:
        report.skip(NAME_P_DIVISIBILITY, "wso < 2")
    else:
        r_cap = t.s if math.isinf(q) else min(t.s, int(q) // 2)
        reps = distinct_abscissas(t, tol)
        checked = 0
        ok = True
        for r in range(1, r_cap + 1):
            if reps[:r] != list(t.c[:r]):
                break  # abscissa prefix no longer distinct; later r excluded
            p_r = min_poly_matrix(_leading_block(t, r), t.backend, tol)
            ok = ok and p_r.divides(P, tol)
            checked += 1
        if checked == 0:
            report.skip(NAME_P_DIVISIBILITY, "no distinct abscissa prefix to check")
        else:
            report.add_bool(
                NAME_P_DIVISIBILITY, ok, f"checked leading blocks r = 1..{checked}"
            )
    # (2) roots of P from the leading diagonal (stage-irreducible DIRKs)
    r3 = min(3, t.s)
    if not cls.is_dirk:
        report.skip(NAME_P_ROOTS, "not diagonally implicit")
    elif cls.s_reducible_partition is not None:
        report.skip(NAME_P_ROOTS, "stage reducible")
    elif math.isinf(q):
        report.skip(NAME_P_ROOTS, "wso is infinite")
    elif not _block_invertible(t, r3, tol):
        report.skip(NAME_P_ROOTS, "leading block is singular")
    else:
        clauses_ok = True
        notes = []
        if q > 1:
            ok = P.degree >= 1 and _is_root(P, t.a(0, 0))
            clauses_ok = clauses_ok and ok
            notes.append(f"a11 root: {ok}")
        if q > 3 and t.s >= 2:
            ok = (
                P.degree >= 2
                and _is_root(P, t.a(0, 0))
                and _is_root(P, t.a(1, 1))
            )
            clauses_ok = clauses_ok and ok
            notes.append(f"a11,a22 roots: {ok}")
        if q > 5 and t.s >= 3:
            p3 = min_poly_matrix(_leading_block(t, 3), t.backend, tol)
            ok = p3.divides(P, tol)
            clauses_ok = clauses_ok and ok
            notes.append(f"p3 divides P: {ok}")
        if notes:
            report.add_bool(NAME_P_ROOTS, clauses_ok, "; ".join(notes))
        else:
            report.skip(NAME_P_ROOTS, "wso too small for any clause")
    # (3) last diagonal entry is a root of Q when the last weight is nonzero
    if not cls.is_dirk:
        report.skip(NAME_Q_LAST_DIAG, "not diagonally implicit")
    else:
        if t.backend.is_zero(t.b[t.s - 1], tol.zero):
            report.skip(NAME_Q_LAST_DIAG, "last weight vanishes (DJ-reducible)")
        else:
            report.add_bool(
                NAME_Q_LAST_DIAG,
                _is_root(Q, t.a(t.s - 1, t.s - 1)),
                "Q(a_ss) = 0",
            )


def _is_root(poly, x):
    bk = poly.backend
    return bk.is_zero(poly.evaluate(x), 1e-8, bk.size(poly.coeffs))


def barrier_report(t, tol=DEFAULT_TOL, ctx=None):
    """Runs every applicable barrier checker and returns the report."""
    ctx = ctx or SchemeContext(t, tol)
    bi = gather_inputs(t, tol, ctx)
    report = BarrierReport(
        inputs={
            "s": t.s,
            "p": bi.p,
            "q": bi.q,
            "n_c": bi.n_c,
            "sigma": bi.sigma,
            "kappa": bi.kappa,
            "dim_Y": bi.dim_Y,
            "dim_Kq": bi.dim_Kq,
            "deg_P": bi.deg_P,
            "deg_Q": bi.deg_Q,
        }
    )
    check_dimY_bounds(bi, report)
    check_dimK_bounds(bi, report)
    check_Km_lower_bounds(t, bi, report, tol, ctx)
    check_main_results(bi, report, tol)
    check_P_necessary_conditions(t, bi, report, tol, ctx)
    return report
