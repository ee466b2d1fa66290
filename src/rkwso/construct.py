"""Constructors for the parameterized high-WSO DIRK families and a
necessary-condition-guided search over generic DIRK targets.

Both families are closed form.  The three-stage family fixes the leading
block (the two-stage matrix scaled by a) and a33 = (3a - 2)/(6(a - 1)).  Its
third-row equations, row 3 of (A - a11 I) tau^(j) = 0 for j = 2, 3, have
three solution branches: c3 = c1 and c3 = c2, which are stage reducible, and

    c3* = (3a - 2)(a^2 - 4a + 2) / (2 (a - 1)(3a^2 - 6a + 2)),

the same for both signs.  On that branch (a31, a32) solve the row sum
a31 + a32 = c3* - a33 and the j = 2 equation (Cramer's rule), and b solves
b^T (e, c, tau2) = (1, 1/2, 0).  The branches are classified by
`s_reducibility`, and the returned scheme is confirmed (stage-irreducible,
WSO 3, classical order 3) before it is returned.

The parameter a must avoid 0, 2/3 and 1, and the degenerate parameters of
`degenerate_parameters`: a = 1 -/+ 1/sqrt(3), where c3* and the 2x2 solve
pass through infinity.  Within about 6e-4 of them the entries exceed 3e9,
the float confirmation fails (see `build_wso3_p3_s3`), and
DegenerateParameterError is raised as well.

`generic_search` runs damped Newton on a residual over stacks of points, each
row independent of the others: one call per iteration for the point and its
finite-difference Jacobian, one for every step of its line search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barriers import NAME_DIRK_WSO_ORDER_BUDGET, NAME_STAGE_ORDER_WSO_BUDGET
from .orders import classical_order, wso
from .scalars import DEFAULT_TOL
from .stability import order_vs_exp, stability_function
from .tableau import TableauError, make_tableau, s_reducibility

SQRT2 = math.sqrt(2.0)

# relative distance at which a is taken to be a degenerate parameter
DEGENERATE_TIE = 1e-12


class ConstructionError(RuntimeError):
    pass


class DegenerateParameterError(ConstructionError):
    """The (3,3,3) family's irreducible branch is undefined at (or, by
    rounding, fails its confirmation next to) a degenerate parameter."""


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


def _third_row_residual(x, data):
    """Max-norm of rows 3 of (A - a11 I) tau^(j) for j = 2, 3."""
    a31, a32 = x
    a11, a21, a22, a33 = data["a11"], data["a21"], data["a22"], data["a33"]
    c1, c2 = data["c1"], data["c2"]
    c3 = a31 + a32 + a33
    out = []
    for j in (2, 3):
        t1 = a11 * c1 ** (j - 1) - c1 ** j / j
        t2 = a21 * c1 ** (j - 1) + a22 * c2 ** (j - 1) - c2 ** j / j
        t3 = a31 * c1 ** (j - 1) + a32 * c2 ** (j - 1) + a33 * c3 ** (j - 1) - c3 ** j / j
        out.append(abs(a31 * t1 + a32 * t2 + (a33 - a11) * t3))
    return max(out)


@dataclass(frozen=True)
class ThirdRowSolve:
    branches: tuple  # (a31, a32) for c3 = c1, c3 = c2 and c3 = c3*
    irreducible_index: int
    reducible_indices: tuple


def _family_data(a, sign):
    sg = _sign_factor(sign)
    a11 = (1.0 + sg * SQRT2 / 2.0) * a
    a21 = (0.5 - sg * SQRT2 / 2.0) * a
    a22 = 0.5 * a
    a33 = (3 * a - 2) / (6 * (a - 1))
    return {"a11": a11, "a21": a21, "a22": a22, "a33": a33, "c1": a11, "c2": a21 + a22}


def _irreducible_row(a, data):
    """(a31, a32) on the branch c3 = c3*: with c3 fixed, the row sum and the
    j = 2 third-row equation alpha a31 + beta a32 + gamma = 0 are linear in
    (a31, a32); beta - alpha vanishes only at a = 0 and at the poles."""
    a11, a21, a22, a33 = data["a11"], data["a21"], data["a22"], data["a33"]
    c1, c2 = data["c1"], data["c2"]
    c3 = (3 * a - 2) * (a * a - 4 * a + 2) / (2 * (a - 1) * (3 * a * a - 6 * a + 2))
    alpha = a11 * c1 - c1 ** 2 / 2 + (a33 - a11) * c1
    beta = a21 * c1 + a22 * c2 - c2 ** 2 / 2 + (a33 - a11) * c2
    gamma = (a33 - a11) * (a33 * c3 - c3 ** 2 / 2)
    rowsum = c3 - a33
    det = beta - alpha
    return (rowsum * beta + gamma) / det, -(rowsum * alpha + gamma) / det


def _assemble3(a, sign, a31, a32, data, extra=(), strict_b=False):
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
    if strict_b:
        b = np.linalg.solve(M.T, rhs)
        # near the pole parameters the entries of M grow without bound, and
        # the rounding in the solve with them
        resid = float(np.max(np.abs(M.T @ b - rhs)))
        if resid > 1e-10 * max(1.0, float(np.max(np.abs(M)))):
            raise ConstructionError(
                f"weight solve failed on the selected branch (residual {resid:g})"
            )
    else:
        b, *_ = np.linalg.lstsq(M.T, rhs, rcond=None)
    meta = [("family", "wso3_p3_s3"), ("a", repr(float(a))), ("sign", sign), *extra]
    return make_tableau(
        A,
        list(b),
        name=f"wso3-p3-s3-a{a}-{sign}",
        source="three-stage WSO-3 family",
        exact=False,
        metadata=tuple(sorted(meta)),
    )


def solve_branches(a, sign, tol=DEFAULT_TOL):
    """The three third-row branches in closed form, (a31, a32) for c3 = c1,
    c3 = c2 and c3 = c3*, each classified by `s_reducibility`."""
    _validate_a(a, sign)
    data = _family_data(a, sign)
    branches = (
        (data["a11"] - data["a33"], 0.0),
        (data["a21"], data["a22"] - data["a33"]),
        _irreducible_row(a, data),
    )
    irreducible = [
        i
        for i, (a31, a32) in enumerate(branches)
        if s_reducibility(_assemble3(a, sign, a31, a32, data), tol) is None
    ]
    if len(irreducible) != 1:
        raise _breakdown(a, sign, f"{len(irreducible)} stage-irreducible branches")
    reducible = tuple(i for i in range(len(branches)) if i not in irreducible)
    return data, ThirdRowSolve(branches, irreducible[0], reducible)


def degenerate_parameters(sign):
    """Parameters where the (3,3,3) family's irreducible branch is undefined,
    sorted: the zeros a = 1 -/+ 1/sqrt(3) of 3a^2 - 6a + 2, where c3* and the
    2x2 solve for (a31, a32) pass through infinity.  They are the same for
    either sign.

    No other real parameter is degenerate.  c3* meets c1 or c2, and the
    weight system b^T (e, c, tau2) is singular, only at non-real a.  Where
    a33 = a11 the two third-row equations coincide, but the closed form still
    gives a stage-irreducible scheme with WSO 3 and order 3.
    """
    _sign_factor(sign)
    return (1.0 - 1.0 / math.sqrt(3.0), 1.0 + 1.0 / math.sqrt(3.0))


EXCLUDED_PARAMETERS = (
    "a must avoid 0, 2/3 and 1, and the degenerate parameters 1 -/+ 1/sqrt(3)"
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
    """Three-stage order-3 WSO-3 DIRK for parameter a (float backend), from
    the closed form of its irreducible branch.

    The returned scheme is confirmed under tol: stage-irreducible, WSO 3 and
    classical order 3.  Its metadata records the third-row residual.  Raises
    DegenerateParameterError at a = 1 -/+ 1/sqrt(3), and where the scheme
    fails that confirmation: within about 6e-4 of 1 + 1/sqrt(3) and 1e-4 of
    1 - 1/sqrt(3), where max|A| passes 3e9 and the float WSO test reports
    WSO inf.

    The weights come from an LU solve.  A least-squares (SVD) solve loses
    accuracy as the entries grow: at a ~ 1.5555 (sign plus, 0.022 from
    1 + 1/sqrt(3), max|A| = 6e4) it leaves b^T A c - 1/6 = -3.3e-10, which
    `orders.classical_order` does not take for zero, since it scales its
    zero test by |weight| + 1 and not by the size of the terms; at
    a ~ 1.5757 (max|A| = 1.5e8) the order it leaves is 0.
    """
    data, result = solve_branches(a, sign, tol)
    a31, a32 = result.branches[result.irreducible_index]
    extra = (
        ("branch", "irreducible"),
        ("residual", repr(_third_row_residual((a31, a32), data))),
        ("positive_eigenvalues", str(eigenvalue_sign_note(a))),
    )
    t = _assemble3(a, sign, a31, a32, data, extra, strict_b=True)
    if (
        s_reducibility(t, tol) is not None
        or wso(t, tol=tol) != 3
        or classical_order(t, tol=tol) != 3
    ):
        raise _breakdown(a, sign, "the irreducible branch fails confirmation")
    return t


# ---------------------------------------------------------------------------
# Generic necessary-condition-guided search
# ---------------------------------------------------------------------------


def _damped_newton(fun, x0, maxit=100):
    """Damped Newton with halving line search and FD Jacobian.

    `fun` maps points (m, n) to residual rows (m, N), each row from its own
    point alone.  An iteration makes two calls: on the current point and its
    n forward-difference neighbours, then on the whole halving ladder
    lam = 1, 1/2, ..., 2^-39, of which it takes the first rung that lowers
    the max-norm residual.  It keeps polishing while the residual improves,
    so roots sit at machine precision, not just inside an acceptance
    threshold.  Returns the best point and its max-norm residual; the caller
    decides whether it is a root.
    """
    x = np.array(x0, dtype=float)
    n = len(x)
    diag = np.arange(n)
    ladder = 0.5 ** np.arange(40)[:, None]
    best, best_norm = None, math.inf
    for _ in range(maxit):
        h = 1e-7 * max(1.0, float(np.max(np.abs(x))))
        X = np.repeat(x[None], n + 1, axis=0)
        X[diag + 1, diag] += h
        F = fun(X)
        norm = float(np.max(np.abs(F[0])))
        if norm < best_norm:
            best, best_norm = x.copy(), norm
        if norm == 0.0:
            break
        J = ((F[1:] - F[0]) / h).T
        try:
            step, *_ = np.linalg.lstsq(J, -F[0], rcond=None)
        except np.linalg.LinAlgError:
            break
        trial = x + ladder * step
        lower = np.max(np.abs(fun(trial)), axis=1) < norm
        if not lower.any():
            break
        x = trial[np.argmax(lower)]
    return best, best_norm


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


def _search_system(s, p, q, diagonal_seed=()):
    """(n, unpack, residual) of `generic_search` for targets (s, p, q).

    The n unknowns are the strictly lower entries of A by rows, the unseeded
    diagonal entries, then b.  `unpack` maps points (m, n) to A (m, s, s) and
    b (m, s), `residual` to rows (m, N).  Every product is an np.matmul, one
    BLAS gemv or dot per point, so a row is bit for bit the same in any stack.
    """
    rows, cols = np.tril_indices(s, -1)
    seeded, free = np.arange(len(diagonal_seed)), np.arange(len(diagonal_seed), s)
    n = len(rows) + len(free) + s

    def unpack(X):
        A = np.zeros((len(X), s, s))
        A[:, rows, cols] = X[:, : len(rows)]
        A[:, seeded, seeded] = diagonal_seed
        A[:, free, free] = X[:, len(rows) : n - s]
        return A, X[:, n - s :]

    def mv(M, v):
        # M v per point; with M = u[:, None, :] it is the dot product u . v
        return np.matmul(M, v[:, :, None])[:, :, 0]

    def residual(X):
        A, b = unpack(X)
        c = A.sum(axis=2)
        taus = [mv(A, c ** (k - 1)) - (c ** k) / k for k in range(2, q + 1)]
        res = []
        # P(A) tau^(k) with the roots of P on the leading diagonal
        for v in taus:
            for i in range(q // 2):
                v = mv(A, v) - A[:, i, i, None] * v
            res.append(v)
        fact, Aje = 1.0, np.ones((len(X), s))
        for j in range(p):
            fact *= j + 1
            res.append(mv(b[:, None, :], Aje) - 1.0 / fact)
            Aje = mv(A, Aje)
        row, AT = b, A.transpose(0, 2, 1)
        for _ in range(s):
            res.extend(mv(row[:, None, :], t) for t in taus)
            row = mv(AT, row)
        return np.hstack(res)

    return n, unpack, residual


def generic_search(spec, tol=DEFAULT_TOL, n_starts=40, rng_seed=20240901):
    """Best-effort DIRK search for targets (s, p, q).

    Fixes P(x) = (x - a_11)...(x - a_rr) with r = floor(q/2), then solves
    P(A) tau^(k) = 0 (k <= q), the tall-tree conditions b^T A^j e = 1/(j+1)!
    (j < p), and the WSO orthogonality conditions by multi-start damped
    least-squares Newton over the free entries.  The residual is evaluated
    on stacks of points (`_search_system`), two calls per Newton iteration.
    A tableau is returned only when the analyzer confirms (s, p, q); absence
    is a valid result.
    """
    s, p, q = spec.targets
    ok, diag = feasibility_barriers(s, p, q)
    if not ok:
        return SearchOutcome(None, False, diag)
    n_free, unpack, residual = _search_system(s, p, q, spec.diagonal_seed)
    rng = np.random.default_rng(rng_seed)
    starts = rng.uniform(-2.0, 2.0, size=(n_starts, n_free))
    for start in starts:
        sol, norm = _damped_newton(residual, start, maxit=200)
        if norm >= 1e-12:
            continue
        A, b = unpack(sol[None])
        meta = (("family", "generic"), ("targets", f"({s},{p},{q})"))
        try:
            t = make_tableau(
                [list(row) for row in A[0]],
                list(b[0]),
                name=f"generic-s{s}-p{p}-q{q}",
                source="generic DIRK search",
                exact=False,
                metadata=meta,
            )
        except TableauError:
            continue
        if _confirm_targets(t, s, p, q, tol):
            return SearchOutcome(t, True, "targets confirmed by the analyzer")
    return SearchOutcome(None, True, "no converged start confirmed the targets")


def _confirm_targets(t, s, p, q, tol):
    # classical (non-tall-tree) conditions are diagnostics, not imposed:
    # confirmation is WSO plus the order of R(z) against exp(z)
    if t.s != s or wso(t, tol=tol) != q:
        return False
    try:
        p_lin = order_vs_exp(stability_function(t, tol), tol=tol)
    except ValueError:
        return False
    return p_lin == p
