"""Constructors for the parameterized high-WSO DIRK families and a
necessary-condition-guided search over generic DIRK targets.

The two-stage family is closed form.  The three-stage family fixes the
leading block and last diagonal entry, solves the remaining third-row
entries by multi-start damped Newton (three solution branches: two stage
reducible, one not), and picks the irreducible branch.  A polished
third-row root is accepted when each residual is at most ROOT_REL_RESIDUAL
times the sum of the absolute values of its own terms, so roots with large
entries near a pole parameter are kept.  The returned scheme is confirmed
(stage-irreducible, WSO 3, classical order 3) before it is returned.

The parameter a must avoid 0, 2/3 and 1, and the degenerate parameters of
`degenerate_parameters`: a = 1 -/+ 1/sqrt(3), where the irreducible branch
passes through infinity, and the two roots of a33 = a11, where the
third-row solutions are not isolated.  Those, and any parameter next to them
where rounding defeats the solve or the confirmation, raise
DegenerateParameterError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .barriers import NAME_DIRK_WSO_ORDER_BUDGET, NAME_STAGE_ORDER_WSO_BUDGET
from .orders import classical_order, wso
from .scalars import DEFAULT_TOL
from .tableau import make_tableau, s_reducibility

SQRT2 = math.sqrt(2.0)

# 8 deterministic Newton seeds covering [-3, 3]^2
NEWTON_SEEDS = (
    (-3.0, -3.0),
    (-3.0, 3.0),
    (3.0, -3.0),
    (3.0, 3.0),
    (-1.0, 0.0),
    (1.0, 0.0),
    (0.0, -1.0),
    (0.0, 1.0),
)

# A third-row root is accepted when each residual is at most this fraction
# of the sum of the absolute values of its terms (rounding level in binary64)
ROOT_REL_RESIDUAL = 1e-13

# relative distance at which a is taken to be a degenerate parameter
DEGENERATE_TIE = 1e-12


class ConstructionError(RuntimeError):
    pass


class DegenerateParameterError(ConstructionError):
    """The (3,3,3) family's branch picture breaks down at (or, by rounding,
    next to) one of its degenerate parameters."""


@dataclass(frozen=True)
class ConstructionSpec:
    """Targets (s, p, q) of `generic_search`, and optionally the leading
    diagonal entries it keeps fixed."""

    targets: tuple
    diagonal_seed: tuple = ()


def _sign_factor(sign):
    if sign == "minus":
        return -1.0
    if sign == "plus":
        return 1.0
    raise ConstructionError(f"sign must be 'plus' or 'minus', got {sign!r}")


def _base2_entries(sign):
    """Two-stage family: a11 = 1 -/+ sqrt2/2 per the sign choice."""
    sg = _sign_factor(sign)
    a11 = 1.0 + sg * SQRT2 / 2.0
    a21 = 0.5 - sg * SQRT2 / 2.0
    b1 = 0.5 - sg * SQRT2 / 4.0
    b2 = 0.5 + sg * SQRT2 / 4.0
    return a11, a21, b1, b2


def build_wso3_p2_s2(sign="minus"):
    """Two-stage order-2 WSO-3 DIRK, either sign branch (float backend)."""
    a11, a21, b1, b2 = _base2_entries(sign)
    A = [[a11, 0.0], [a21, 0.5]]
    b = [b1, b2]
    return make_tableau(
        A,
        b,
        name=f"wso3-p2-s2-{sign}",
        source="two-stage WSO-3 family",
        exact=False,
        metadata=(("family", "wso3_p2_s2"), ("sign", sign)),
    )


def _third_row_residual(x, data, magnitude=False):
    """Rows 3 of (A - a11 I) tau^(j) = 0 for j = 2, 3.

    With magnitude=True every term of the same sums enters by its absolute
    value, which gives the size against which a root's residual is judged.
    """
    a31, a32 = x
    a11, a21, a22, a33 = data["a11"], data["a21"], data["a22"], data["a33"]
    c1, c2 = data["c1"], data["c2"]
    c3 = a31 + a32 + a33

    def add(*terms):
        return sum(abs(t) for t in terms) if magnitude else sum(terms)

    out = np.empty(2)
    for idx, j in enumerate((2, 3)):
        t1 = add(a11 * c1 ** (j - 1), -(c1 ** j / j))
        t2 = add(a21 * c1 ** (j - 1), a22 * c2 ** (j - 1), -(c2 ** j / j))
        t3 = add(
            a31 * c1 ** (j - 1),
            a32 * c2 ** (j - 1),
            a33 * c3 ** (j - 1),
            -(c3 ** j / j),
        )
        out[idx] = add(a31 * t1, a32 * t2, (a33 - a11) * t3)
    return out


def _is_third_row_root(x, data):
    """Residual at rounding level relative to the size of its own terms.

    An absolute target rejects genuine roots whose entries are large: near
    the parameters where the irreducible branch passes through infinity the
    entries reach 1e2..1e5, and rounding alone leaves residuals above 1e-12.
    """
    resid = np.abs(_third_row_residual(x, data))
    size = _third_row_residual(x, data, magnitude=True)
    return bool(np.all(resid <= ROOT_REL_RESIDUAL * size))


def _damped_newton(fun, x0, maxit=100):
    """Damped Newton with halving line search and FD Jacobian.

    The iteration keeps polishing while the residual still improves, so
    converged roots sit at machine precision rather than just inside an
    acceptance threshold.  Returns the best point and its max-norm residual;
    the caller decides whether it is a root.
    """
    x = np.array(x0, dtype=float)
    n = len(x)
    best, best_norm = None, math.inf
    for _ in range(maxit):
        F = fun(x)
        norm = float(np.max(np.abs(F)))
        if norm < best_norm:
            best, best_norm = x.copy(), norm
        if norm == 0.0:
            break
        J = np.empty((len(F), n))
        h = 1e-7 * max(1.0, float(np.max(np.abs(x))))
        for k in range(n):
            xp = x.copy()
            xp[k] += h
            J[:, k] = (fun(xp) - F) / h
        try:
            step, *_ = np.linalg.lstsq(J, -F, rcond=None)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        while lam > 1e-12:
            xn = x + lam * step
            if float(np.max(np.abs(fun(xn)))) < norm:
                break
            lam *= 0.5
        else:
            break
        x = x + lam * step
    return best, best_norm


@dataclass
class ThirdRowSolve:
    branches: list = field(default_factory=list)  # (a31, a32) solutions
    residuals: list = field(default_factory=list)
    irreducible_index: int = -1
    reducible_indices: list = field(default_factory=list)


def _branch_roots_via_elimination(data):
    """All third-row branches by eliminating (a31, a32).

    With c3 = a31 + a32 + a33 held fixed, both residual equations become
    linear in (a31, a32); together with the row-sum constraint this is an
    overdetermined 3x2 linear system whose consistency determinant is a
    cubic polynomial in c3.  Its real roots enumerate every branch, even
    those far outside any reasonable Newton seed box (the unreduced branch
    passes through infinity as the family parameter varies).
    """
    a11, a21, a22, a33 = data["a11"], data["a21"], data["a22"], data["a33"]
    c1, c2 = data["c1"], data["c2"]
    t1 = {j: a11 * c1 ** (j - 1) - c1 ** j / j for j in (2, 3)}
    t2 = {j: a21 * c1 ** (j - 1) + a22 * c2 ** (j - 1) - c2 ** j / j for j in (2, 3)}
    alpha = {j: t1[j] + (a33 - a11) * c1 ** (j - 1) for j in (2, 3)}
    beta = {j: t2[j] + (a33 - a11) * c2 ** (j - 1) for j in (2, 3)}

    def gamma(j, c3):
        return (a33 - a11) * (a33 * c3 ** (j - 1) - c3 ** j / j)

    def consistency_det(c3):
        M = np.array(
            [
                [1.0, 1.0, c3 - a33],
                [alpha[2], beta[2], -gamma(2, c3)],
                [alpha[3], beta[3], -gamma(3, c3)],
            ]
        )
        return float(np.linalg.det(M))

    # cubic in c3 via interpolation at 4 nodes
    nodes = np.array([0.0, 1.0, -1.0, 2.0])
    vals = np.array([consistency_det(z) for z in nodes])
    coeffs = np.polyfit(nodes, vals, 3)
    roots = np.roots(coeffs)
    scale = max(1.0, float(np.max(np.abs(roots)))) if len(roots) else 1.0
    out = []
    for r in roots:
        if abs(r.imag) > 1e-8 * scale:
            continue
        c3 = float(r.real)
        M = np.array([[1.0, 1.0], [alpha[2], beta[2]], [alpha[3], beta[3]]])
        rhs = np.array([c3 - a33, -gamma(2, c3), -gamma(3, c3)])
        sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        out.append(tuple(sol))
    return out


def _dedupe_roots(found, candidate):
    arr = np.array(candidate)
    for f in found:
        ref = np.array(f)
        scale = max(1.0, float(np.max(np.abs(ref))), float(np.max(np.abs(arr))))
        if float(np.max(np.abs(arr - ref))) < 1e-7 * scale:
            return False
    return True


def _solve_third_row(a, sign, tol=DEFAULT_TOL, seeds=NEWTON_SEEDS):
    sg = _sign_factor(sign)
    a11 = (1.0 + sg * SQRT2 / 2.0) * a
    a21 = (0.5 - sg * SQRT2 / 2.0) * a
    a22 = 0.5 * a
    a33 = (3 * a - 2) / (6 * (a - 1))
    data = {
        "a11": a11,
        "a21": a21,
        "a22": a22,
        "a33": a33,
        "c1": a11,
        "c2": a21 + a22,
    }
    fun = lambda x: _third_row_residual(x, data)
    found = []

    def polish(start):
        sol, _ = _damped_newton(fun, start)
        if (
            sol is not None
            and _is_third_row_root(sol, data)
            and _dedupe_roots(found, sol)
        ):
            found.append(tuple(sol))

    for seed in seeds:
        polish(seed)
    if len(found) < 3:
        # the seed grid missed a branch; enumerate them all by elimination
        # and polish each candidate with the same Newton iteration
        for candidate in _branch_roots_via_elimination(data):
            polish(candidate)
    # deterministic branch order regardless of which start found what
    found.sort()
    return data, found


def _assemble3(a, sign, a31, a32, data, branch_note="", strict_b=False):
    A = [
        [data["a11"], 0.0, 0.0],
        [data["a21"], data["a22"], 0.0],
        [a31, a32, data["a33"]],
    ]
    # b solves b^T (e, c, tau2) = (1, 1/2, 0); on stage-reducible branches
    # the system is singular and a least-squares b only serves classification
    An = np.array(A)
    c = An.sum(axis=1)
    tau2 = An @ c - c ** 2 / 2.0
    M = np.column_stack([np.ones(3), c, tau2])
    rhs = np.array([1.0, 0.5, 0.0])
    b, *_ = np.linalg.lstsq(M.T, rhs, rcond=None)
    if strict_b:
        # near the pole parameters the entries of M reach 1e5 and the
        # rounding in the solve grows with them
        resid = float(np.max(np.abs(M.T @ b - rhs)))
        if resid > 1e-10 * max(1.0, float(np.max(np.abs(M)))):
            raise ConstructionError(
                f"weight solve failed on the selected branch (residual {resid:g})"
            )
    meta = [
        ("family", "wso3_p3_s3"),
        ("a", repr(float(a))),
        ("sign", sign),
    ]
    if branch_note:
        meta.append(("branch", branch_note))
    return make_tableau(
        A,
        list(b),
        name=f"wso3-p3-s3-a{a}-{sign}",
        source="three-stage WSO-3 family",
        exact=False,
        metadata=tuple(meta),
    )


def solve_branches(a, sign, tol=DEFAULT_TOL):
    """All third-row branches with their reducibility classification."""
    _validate_a(a, sign)
    data, found = _solve_third_row(a, sign, tol)
    if not found:
        raise ConstructionError("Newton failed from every seed")
    result = ThirdRowSolve()
    for a31, a32 in found:
        t = _assemble3(a, sign, a31, a32, data)
        result.branches.append((a31, a32))
        result.residuals.append(
            float(np.max(np.abs(_third_row_residual(np.array([a31, a32]), data))))
        )
        if s_reducibility(t, tol) is None:
            if result.irreducible_index >= 0:
                raise _breakdown(a, sign, "more than one stage-irreducible branch")
            result.irreducible_index = len(result.branches) - 1
        else:
            result.reducible_indices.append(len(result.branches) - 1)
    if result.irreducible_index < 0:
        raise _breakdown(a, sign, "no stage-irreducible branch was resolved")
    return data, result


def degenerate_parameters(sign):
    """Parameters where the three-branch picture of the (3,3,3) family breaks
    down, sorted.

    At a = 1 -/+ 1/sqrt(3) (either sign) beta_2 = alpha_2 in the elimination,
    the consistency cubic loses its leading coefficient and the irreducible
    branch passes through infinity.  Where a33 = a11, that is
    6 k a (a - 1) = 3a - 2 with k = 1 -/+ sqrt(2)/2 for sign minus/plus, the
    third-row solutions are no longer isolated.
    """
    k = 1.0 + _sign_factor(sign) * SQRT2 / 2.0
    disc = math.sqrt((6 * k + 3) ** 2 - 48 * k)
    poles = (1.0 - 1.0 / math.sqrt(3.0), 1.0 + 1.0 / math.sqrt(3.0))
    ties = ((6 * k + 3 - disc) / (12 * k), (6 * k + 3 + disc) / (12 * k))
    return tuple(sorted(poles + ties))


EXCLUDED_PARAMETERS = (
    "a must avoid 0, 2/3 and 1, and the degenerate parameters "
    "1 -/+ 1/sqrt(3) and the roots of 6 (1 -/+ sqrt(2)/2) a (a - 1) = 3a - 2 "
    "(sign minus/plus)"
)


def _breakdown(a, sign, reason):
    nearest = min(degenerate_parameters(sign), key=lambda d: abs(a - d))
    return DegenerateParameterError(
        f"{reason} at a = {a!r} ({sign}); nearest degenerate parameter "
        f"{nearest!r} at distance {abs(a - nearest):.3g}; {EXCLUDED_PARAMETERS}"
    )


def _validate_a(a, sign):
    if a in (0.0, 1.0) or abs(a - 2.0 / 3.0) < 1e-14:
        raise ConstructionError(f"inadmissible a = {a!r}: {EXCLUDED_PARAMETERS}")
    for d in degenerate_parameters(sign):
        if abs(a - d) <= DEGENERATE_TIE * abs(d):
            raise DegenerateParameterError(
                f"a = {a!r} is the degenerate parameter {d!r} ({sign}); "
                f"{EXCLUDED_PARAMETERS}"
            )


def eigenvalue_sign_note(a):
    """The family has positive diagonal (eigenvalues) iff 0 < a < 2/3 or a > 1."""
    return bool(0.0 < a < 2.0 / 3.0 or a > 1.0)


def build_wso3_p3_s3(a, sign="minus", tol=DEFAULT_TOL):
    """Three-stage order-3 WSO-3 DIRK for parameter a (float backend).

    The returned scheme is confirmed under tol: stage-irreducible, WSO 3 and
    classical order 3.  Raises DegenerateParameterError where the branch
    picture breaks down or the scheme fails that confirmation.
    """
    import dataclasses

    data, result = solve_branches(a, sign, tol)
    a31, a32 = result.branches[result.irreducible_index]
    t = _assemble3(a, sign, a31, a32, data, branch_note="irreducible", strict_b=True)
    if (
        s_reducibility(t, tol) is not None
        or wso(t, tol=tol) != 3
        or classical_order(t, tol=tol) != 3
    ):
        raise _breakdown(a, sign, "the irreducible branch fails confirmation")
    meta = list(t.metadata)
    meta.append(("newton_residual", repr(result.residuals[result.irreducible_index])))
    meta.append(("branch_count", str(len(result.branches))))
    meta.append(("positive_eigenvalues", str(eigenvalue_sign_note(a))))
    return dataclasses.replace(t, metadata=tuple(sorted(meta)))


# ---------------------------------------------------------------------------
# Generic necessary-condition-guided search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchOutcome:
    tableau: object  # ButcherTableau | None
    feasible: bool
    diagnostic: str


def feasibility_barriers(s, p, q):
    """Feasibility of (s, p, q) DIRK targets against the order barriers.

    Returns (ok, diagnostic).  Checked with kappa = sigma = 0, the loosest
    DIRK setting, and n_c <= s.
    """
    if q // 2 + p > s + 1:
        return False, (
            f"infeasible by {NAME_DIRK_WSO_ORDER_BUDGET}: "
            f"floor(q/2) + p = {q // 2 + p} > s + 1 = {s + 1}"
        )
    if q + (p + 1) // 2 > 2 * s:
        return False, (
            f"infeasible by {NAME_STAGE_ORDER_WSO_BUDGET}: "
            f"q + floor((p+1)/2) = {q + (p + 1) // 2} > s + n_c <= {2 * s}"
        )
    return True, "targets pass the order barriers"


def generic_search(spec, tol=DEFAULT_TOL, n_starts=40, rng_seed=20240901):
    """Best-effort DIRK search for targets (s, p, q).

    Fixes P(x) = (x - a_11)...(x - a_rr) with r = floor(q/2), then solves
    P(A) tau^(k) = 0 (k <= q), the tall-tree conditions b^T A^j e = 1/(j+1)!
    (j < p), and the WSO orthogonality conditions by multi-start damped
    least-squares Newton over the free entries.  A tableau is returned only
    when the analyzer confirms (s, p, q); absence is a valid result.
    """
    s, p, q = spec.targets
    ok, diag = feasibility_barriers(s, p, q)
    if not ok:
        return SearchOutcome(None, False, diag)
    r = q // 2
    seed_diag = list(spec.diagonal_seed)
    n_lower = s * (s - 1) // 2
    free_diag = list(range(len(seed_diag), s))
    n_free = n_lower + len(free_diag) + s

    def unpack(x):
        A = np.zeros((s, s))
        idx = 0
        for i in range(1, s):
            for j in range(i):
                A[i, j] = x[idx]
                idx += 1
        for i, d in enumerate(seed_diag):
            A[i, i] = d
        for i in free_diag:
            A[i, i] = x[idx]
            idx += 1
        b = x[idx : idx + s]
        return A, b

    def residual(x):
        A, b = unpack(x)
        c = A.sum(axis=1)
        taus = {}
        for k in range(2, q + 1):
            taus[k] = A @ (c ** (k - 1)) - (c ** k) / k
        P_roots = [A[i, i] for i in range(r)]
        res = []
        for k in range(2, q + 1):
            v = taus[k].copy()
            for root in P_roots:
                v = A @ v - root * v
            res.extend(v)
        fact = 1.0
        Aje = np.ones(s)
        for j in range(p):
            fact *= j + 1
            res.append(float(b @ Aje) - 1.0 / fact)
            Aje = A @ Aje
        row = b.copy()
        for _ in range(s):
            for k in range(2, q + 1):
                res.append(float(row @ taus[k]))
            row = A.T @ row
        return np.array(res)

    rng = np.random.default_rng(rng_seed)
    starts = rng.uniform(-2.0, 2.0, size=(n_starts, n_free))
    for start in starts:
        sol, norm = _damped_newton(residual, start, maxit=200)
        if norm >= 1e-12:
            continue
        A, b = unpack(sol)
        try:
            t = make_tableau(
                [list(row) for row in A],
                list(b),
                name=f"generic-s{s}-p{p}-q{q}",
                source="generic DIRK search",
                exact=False,
                metadata=(
                    ("family", "generic"),
                    ("targets", f"({s},{p},{q})"),
                ),
            )
        except Exception:
            continue
        if _confirm_targets(t, s, p, q, tol):
            return SearchOutcome(t, True, "targets confirmed by the analyzer")
    return SearchOutcome(
        None, True, "no converged start confirmed the targets"
    )


def _confirm_targets(t, s, p, q, tol):
    # classical (non-tall-tree) conditions are diagnostics, not imposed:
    # confirmation is WSO plus the order of R(z) against exp(z)
    from .stability import order_vs_exp, stability_function

    if t.s != s:
        return False
    if wso(t, tol=tol) != q:
        return False
    try:
        p_lin = order_vs_exp(stability_function(t, tol), tol=tol)
    except ValueError:
        return False
    return p_lin == p
