"""Stage-order residuals, classical order, weak stage order, the
residual/left Krylov subspaces, and the per-scheme analysis context.

The weak stage order (WSO) of a scheme is the largest q such that
b^T A^j tau^(k) = 0 for all 0 <= j <= s-1 and 1 <= k <= q, where
tau^(k) = A c^(k-1) - c^k / k.  Residual generation saturates at
m* = 2 n_c (no zero abscissa) or m* = 2 n_c - 1 (zero abscissa); if the
conditions still hold at m*, the WSO is infinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .linalg import (
    Eliminator,
    integer_matrix,
    matvec,
    primitive,
    transpose,
    vdot,
    vec_pow,
)
from .scalars import DEFAULT_TOL
from .trees import density, elementary_weight, trees_of_order

INF = math.inf


def tau(t, k):
    """Stage order residual tau^(k) = A c^(k-1) - c^k / k."""
    ck1 = vec_pow(t.c, k - 1)
    ck = vec_pow(t.c, k)
    inv_k = t.backend.one / k
    return [a - inv_k * b for a, b in zip(matvec(t.A, ck1), ck)]


def saturation_index(t, tol=DEFAULT_TOL):
    """Smallest m beyond which K_m cannot grow (2 n_c, or 2 n_c - 1 when
    some abscissa vanishes)."""
    from .tableau import distinct_abscissas, has_zero_abscissa

    n_c = len(distinct_abscissas(t, tol))
    return 2 * n_c - (1 if has_zero_abscissa(t, tol) else 0)


def _b_single(t, k, tol):
    bk = t.backend
    val = vdot(t.b, vec_pow(t.c, k - 1))
    scale = bk.scale(lambda: abs(val) + 1.0)
    return bk.is_zero(val - bk.one / k, tol.zero, scale)


def _c_single(t, tk, tol):
    scale = t.backend.size(tk)
    return all(t.backend.is_zero(x, tol.zero, scale) for x in tk)


def stage_order_components(t, tol=DEFAULT_TOL, ctx=None):
    """Largest q1 with B(q1) and q2 with C(q2); q2 may be INF.

    B(2s+1) is impossible for an s-stage rule (quadrature exactness caps at
    degree 2s-1), so the B loop stops there.  The C loop stops at the
    saturation index: if all residuals through m* vanish, they all do.
    """
    ctx = ctx or SchemeContext(t, tol)
    top = 2 * t.s + 1
    q1 = next((k - 1 for k in range(1, top + 1) if not _b_single(t, k, tol)), top)
    q2 = next(
        (k - 1 for k in range(1, ctx.mstar + 1) if not _c_single(t, ctx.tau(k), tol)),
        INF,
    )
    return q1, q2


def classical_order(t, pmax=6, tol=DEFAULT_TOL):
    """Largest p <= pmax with all rooted-tree conditions of order <= p.

    A float condition is scaled by the elementary weight of |A| and |b|,
    the sum of the magnitudes of the terms whose rounding it sees.
    """
    if pmax > 6:
        raise ValueError("classical order checks are enumerated up to 6")
    bk = t.backend
    abs_A = [[abs(x) for x in row] for row in t.A]
    abs_b = [abs(x) for x in t.b]
    p = 0
    for order in range(1, pmax + 1):
        for tree in trees_of_order(order):
            weight = elementary_weight(tree, t.A, t.b, t.ones)
            scale = bk.scale(elementary_weight, tree, abs_A, abs_b, t.ones)
            if not bk.is_zero(weight - bk.one / density(tree), tol.zero, scale):
                return p
        p = order
    return p


def _left_krylov_rows(t, count=None):
    rows = [list(t.b)]
    for _ in range((count or t.s) - 1):
        rows.append(matvec(transpose(t.A), rows[-1]))
    return rows


def wso(t, kcap=None, tol=DEFAULT_TOL, ctx=None):
    """Weak stage order by the algebraic definition; INF when the conditions
    survive through the saturation index."""
    ctx = ctx or SchemeContext(t, tol, kcap)
    mstar = ctx.mstar
    cap = mstar if kcap is None else min(kcap, mstar)
    bk = t.backend
    b_rows = ctx.b_rows
    row_scale = bk.size(*b_rows)
    q = 0
    for k in range(1, cap + 1):
        tk = ctx.tau(k)
        scale = bk.size(tk) * row_scale
        # b^T A^j tau^(k) = 0 for every left Krylov row b^T A^j
        if all(bk.is_zero(vdot(row, tk), tol.zero, scale) for row in b_rows):
            q = k
        else:
            return q
    if kcap is not None and cap < mstar:
        return q  # truncated by the caller's cap; q is a lower bound
    return INF if q == mstar else q


@dataclass(frozen=True)
class SubspaceBasis:
    """Rank-revealed basis of K_m (kind "K") or Y (kind "Y").

    For K_m, dims[j-1] = dim K_j for j = 1..m, and the basis of K_j is the
    first dims[j-1] vectors of this basis (see `prefix`).  An exact basis
    holds primitive integer multiples of the Krylov vectors (as Fractions),
    not the vectors themselves; they span the same space.
    """

    kind: str
    m: int | None
    basis: tuple  # tuple of vectors (tuples)
    dim: int
    backend: object
    dims: tuple = ()

    @property
    def exact(self):
        return self.backend.exact

    def prefix(self, j):
        """The basis of K_j, for 1 <= j <= m."""
        if self.kind != "K" or not 1 <= j <= self.m:
            raise ValueError(f"K_{j} is not a prefix of this basis")
        n = self.dims[j - 1]
        return SubspaceBasis("K", j, self.basis[:n], n, self.backend, self.dims[:j])

    def eliminator(self, tol=DEFAULT_TOL):
        elim = Eliminator(self.backend, tol)
        for v in self.basis:
            elim.add(v)
        return elim

    def contains(self, v, tol=DEFAULT_TOL):
        return self.eliminator(tol).contains(v)


def _krylov(t, starts, M, tol):
    """Basis of the span of the Krylov sequences v, M v, M^2 v, ... (at most
    s vectors each) of the start vectors, and the dimension reached after
    each sequence.

    A sequence stops at its first dependent vector: the span of the earlier
    sequences and of the vectors accepted so far is then M-invariant, so
    every later vector of the sequence is dependent too.  Exact mode runs on
    the integer matrix d M and primitive integer vectors, which span the
    same spaces.
    """
    bk = t.backend
    ray = list
    if bk.exact:
        _, M = integer_matrix(M)
        ray = primitive
    elim = Eliminator(bk, tol)
    basis, dims = [], []
    for v in starts:
        for _ in range(t.s):
            v = ray(v)
            if not elim.add(v):
                break
            basis.append(tuple(bk.convert(x) for x in v))
            v = matvec(M, v)
        dims.append(len(basis))
    return tuple(basis), tuple(dims)


def space_K(t, m, tol=DEFAULT_TOL):
    """Invariant subspace spanned by A^j tau^(k), 0 <= j < s, 1 <= k <= m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    basis, dims = _krylov(t, _tau_starts(t, m), t.A, tol)
    return SubspaceBasis("K", m, basis, len(basis), t.backend, dims)


def _tau_starts(t, m):
    """tau^(1..m), or in exact mode the integer vectors k (d c)^(k-1) (d A)
    - (d c)^k = k d^k tau^(k) for the least common denominator d of A."""
    if not t.exact:
        for k in range(1, m + 1):
            yield tau(t, k)
        return
    _, dA = integer_matrix(t.A)
    dc = [sum(row) for row in dA]
    for k in range(1, m + 1):
        ck1 = [x ** (k - 1) for x in dc]
        yield [k * a - x * y for a, x, y in zip(matvec(dA, ck1), dc, ck1)]


def space_Y(t, tol=DEFAULT_TOL):
    """Left Krylov subspace spanned by (A^T)^j b, 0 <= j < s."""
    basis, _ = _krylov(t, [list(t.b)], transpose(t.A), tol)
    return SubspaceBasis("Y", None, basis, len(basis), t.backend)


def wso_via_subspaces(t, kcap=None, tol=DEFAULT_TOL, ctx=None):
    """WSO as the largest q with Y orthogonal to K_q (INF at saturation)."""
    ctx = ctx or SchemeContext(t, tol, kcap)
    mstar = ctx.mstar
    cap = mstar if kcap is None else min(kcap, mstar)
    Y = ctx.Y
    bk = t.backend
    q = 0
    for m in range(1, cap + 1):
        K = ctx.K.prefix(m)
        scale = bk.size(*Y.basis, *K.basis) ** 2
        ortho = all(
            bk.is_zero(vdot(y, k), tol.zero, scale)
            for y in Y.basis
            for k in K.basis
        )
        if ortho:
            q = m
        else:
            return q
    return INF if q == mstar else q


@dataclass(frozen=True)
class WsoOrthogonalityReport:
    q_algebraic: int | float
    q_subspace: int | float
    dim_Y: int
    dim_K: int
    dim_sum_ok: bool
    consistent: bool


def verify_wso_orthogonality(t, kcap=None, tol=DEFAULT_TOL, ctx=None):
    """Cross-checks the algebraic WSO against the subspace route and the
    dimension bound dim Y + dim K_q <= s."""
    ctx = ctx or SchemeContext(t, tol, kcap)
    q_alg = ctx.q
    q_sub = wso_via_subspaces(t, kcap, tol, ctx)
    dim_ok = ctx.Y.dim + ctx.dim_Kq <= t.s
    return WsoOrthogonalityReport(
        q_algebraic=q_alg,
        q_subspace=q_sub,
        dim_Y=ctx.Y.dim,
        dim_K=ctx.dim_Kq,
        dim_sum_ok=dim_ok,
        consistent=(q_alg == q_sub) and dim_ok,
    )


def check_albrecht(t, p=None, tol=DEFAULT_TOL):
    """Self-check: order p forces b^T A^j tau^(k) = 0 for 1 <= j+k <= p-1.

    Returns (ok, violations) with violations a list of (j, k) pairs.
    """
    if p is None:
        p = classical_order(t, tol=tol)
    bk = t.backend
    b_rows = _left_krylov_rows(t, count=max(t.s, p - 1))
    violations = []
    for k in range(1, max(0, p - 1) + 1):
        tk = tau(t, k)
        for j in range(0, p - 1 - k + 1):
            scale = bk.size(tk) * bk.size(b_rows[j])
            if not bk.is_zero(vdot(b_rows[j], tk), tol.zero, scale):
                violations.append((j, k))
    return (not violations), violations


class SchemeContext:
    """The per-scheme quantities more than one analysis function reads, each
    built once, on first use, for the length of one call.

    Inputs: m* (`mstar`), tau^(k) (`tau(k)`), the left Krylov rows b^T A^j
    (`b_rows`), Y, K_{m*+3} with its `dims` (K_m for m <= m*+3 is
    `K.prefix(m)`) and the classification.  Results: the algebraic WSO `q`
    under `kcap`, dim K_q, R(z), `p_linear`, P and Q.

    Share inputs, never results: the three WSO routes (`wso`,
    `wso_via_subspaces`, `stability.wso_via_wtilde`) and the two R(z)
    routes read inputs from the context, never `q`, `R` or each other's
    results, so that their agreement stays an independent check.  (The
    alpha route is applied only where `p_linear` meets its hypothesis
    p >= dim Y.)

    A context lives for one call: `report.analyze` builds one, hands it to
    every route and to `barrier_report`, and drops it; none is attached to
    a tableau.  A function handed a context must be handed the tableau and
    tolerances (and kcap) the context was built with; a function handed
    none builds a fresh one.
    """

    def __init__(self, t, tol=DEFAULT_TOL, kcap=None):
        self.t = t
        self.tol = tol
        self.kcap = kcap
        self._tau = {}

    def tau(self, k):
        if k not in self._tau:
            self._tau[k] = tau(self.t, k)
        return self._tau[k]

    @cached_property
    def mstar(self):
        return saturation_index(self.t, self.tol)

    @cached_property
    def b_rows(self):
        return _left_krylov_rows(self.t)

    @cached_property
    def Y(self):
        return space_Y(self.t, self.tol)

    @cached_property
    def K(self):
        return space_K(self.t, self.mstar + 3, self.tol)

    @cached_property
    def cls(self):
        from .tableau import classify

        return classify(self.t, self.tol)

    @cached_property
    def q(self):
        return wso(self.t, self.kcap, self.tol, self)

    @cached_property
    def dim_Kq(self):
        """dim K_q, with K_q = K_{m*} for infinite q and K_0 = {0}."""
        if self.q < 1:
            return 0
        m = self.mstar if math.isinf(self.q) else min(int(self.q), self.mstar)
        return self.K.dims[m - 1]

    @cached_property
    def R(self):
        from .stability import stability_function

        return stability_function(self.t, self.tol)

    @cached_property
    def p_linear(self):
        from .stability import order_vs_exp

        return order_vs_exp(self.R, tol=self.tol)

    @cached_property
    def P(self):
        from .minpoly import poly_P

        return poly_P(self.t, tol=self.tol, ctx=self)

    @cached_property
    def Q(self):
        from .minpoly import poly_Q

        return poly_Q(self.t, self.tol, self)
