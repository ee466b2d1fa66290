"""Characteristic and minimal polynomials attached to an RK scheme.

Q(x) is the lowest-degree monic annihilator of b^T under A (deg Q = dim Y);
for schemes of weak stage order q >= 2, P(x) is the lowest-degree monic
polynomial with P(A) tau^(k) = 0 for k = 2..q.  Their product divides the
characteristic polynomial, char_A = P * Q * N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import char_coeffs, eye, matmul, matvec, solve_in_span, transpose
from .orders import SchemeContext
from .poly import Polynomial, lagrange_interpolate
from .scalars import DEFAULT_TOL


class SubspaceNotInvariantError(ValueError):
    pass


def char_poly(A, backend, tol=DEFAULT_TOL):
    """Monic characteristic polynomial det(xI - A)."""
    n = len(A)
    if n == 0:
        return Polynomial.one(backend)
    if backend.exact:
        # chi_A(x) = d^-n chi_dA(d x), so coefficient i is C_i / d^(n-i)
        d, C = char_coeffs(A)
        return Polynomial(
            [Fraction(c, d ** (n - i)) for i, c in enumerate(C)], backend
        )
    # float: interpolate det(xI - A) at n+1 integer nodes
    nodes = [float(k) for k in range(n + 1)]
    values = []
    for x in nodes:
        M = x * np.eye(n) - np.array(A, dtype=float)
        values.append(float(np.linalg.det(M)))
    return lagrange_interpolate(nodes, values, backend)


def min_poly_matrix(M, backend, tol=DEFAULT_TOL):
    """Minimal monic annihilator of a square matrix.

    Exact: first linear dependence among vec(M^j) solved exactly.  Float:
    degree is incremented until a least-squares annihilator has residual
    below tol.rank times the power scale.
    """
    d = len(M)
    if d == 0:
        return Polynomial.one(backend)
    powers = [eye(d, backend)]
    for _ in range(d):
        powers.append(matmul(M, powers[-1]))
    flat = [[x for row in p for x in row] for p in powers]
    if backend.exact:
        for deg in range(1, d + 1):
            coeffs = solve_in_span(flat[:deg], [-x for x in flat[deg]], backend, tol)
            if coeffs is not None:
                return Polynomial(list(coeffs) + [backend.one], backend)
        raise RuntimeError("Cayley-Hamilton violated (internal bug)")
    target_scale = [max(1.0, max(abs(x) for x in f)) for f in flat]
    for deg in range(1, d + 1):
        Mat = np.array(flat[:deg], dtype=float).T
        rhs = -np.array(flat[deg], dtype=float)
        coeffs, *_ = np.linalg.lstsq(Mat, rhs, rcond=None)
        resid = float(np.linalg.norm(Mat @ coeffs - rhs))
        if resid <= tol.rank * target_scale[deg]:
            return Polynomial(list(coeffs) + [1.0], backend)
    return Polynomial(list(coeffs) + [1.0], backend)


def restriction_matrix(A, basis, backend, tol=DEFAULT_TOL):
    """Matrix of A restricted to span(basis), in that basis.

    Raises SubspaceNotInvariantError when some A*u leaves the span.
    """
    cols = [list(v) for v in basis]
    out = []
    for v in cols:
        image = matvec(A, v)
        coords = solve_in_span(cols, image, backend, tol)
        if coords is None:
            raise SubspaceNotInvariantError(
                "subspace is not invariant under the matrix"
            )
        out.append(coords)
    # out[j] are coordinates of A*basis_j: columns of the restriction
    d = len(cols)
    return [[out[j][i] for j in range(d)] for i in range(d)]


def min_poly_on_subspace(A, basis, backend, tol=DEFAULT_TOL):
    """Unique monic p of least degree with p(A)u = 0 on span(basis)."""
    basis = [list(v) for v in basis]
    if not basis:
        return Polynomial.one(backend)
    M = restriction_matrix(A, basis, backend, tol)
    return min_poly_matrix(M, backend, tol)


def poly_Q(t, tol=DEFAULT_TOL, ctx=None):
    """Minimal monic Q with b^T Q(A) = 0; deg Q = dim Y."""
    Y = (ctx or SchemeContext(t, tol)).Y
    At = transpose([list(r) for r in t.A])
    Q = min_poly_on_subspace(At, Y.basis, t.backend, tol)
    if Q.degree != Y.dim:
        raise RuntimeError("deg Q != dim Y (internal bug)")
    return Q


def poly_P(t, q=None, tol=DEFAULT_TOL, ctx=None):
    """Minimal monic P with P(A) tau^(k) = 0 for k = 2..q; 1 when q < 2.

    q defaults to the context's WSO.
    """
    ctx = ctx or SchemeContext(t, tol)
    if q is None:
        q = ctx.q
    if q < 2:
        return Polynomial.one(t.backend)
    K = ctx.K.prefix(ctx.mstar if math.isinf(q) else int(q))
    A = [list(r) for r in t.A]
    P = min_poly_on_subspace(A, K.basis, t.backend, tol)
    if P.degree > K.dim:
        raise RuntimeError("deg P exceeds dim K_q (internal bug)")
    return P


@dataclass(frozen=True)
class Factorization:
    P: Polynomial
    Q: Polynomial
    N: Polynomial
    char: Polynomial
    product_matches: bool


def factorization(t, q=None, tol=DEFAULT_TOL, ctx=None):
    """char_A = P * Q * N with the product verified by multiplication.

    N is the quotient of char_A by P * Q.  `product_matches` is False when
    P * Q does not divide char_A: a fault upstream in exact mode, a
    tolerance breach in float mode.
    """
    ctx = ctx or SchemeContext(t, tol)
    bk = t.backend
    char = char_poly([list(r) for r in t.A], bk, tol)
    P = ctx.P if q is None else poly_P(t, q, tol, ctx)
    Q = ctx.Q
    PQ = P * Q
    N, _ = char.divmod(PQ)
    product = PQ * N
    scale = bk.size(char.coeffs)
    matches = PQ.divides(char, tol) and all(
        bk.is_zero(a - b, tol.factor_check, scale)
        for a, b in zip(
            list(product.coeffs) + [bk.zero] * len(char.coeffs),
            list(char.coeffs) + [bk.zero] * len(product.coeffs),
        )
    )
    return Factorization(P=P, Q=Q, N=N, char=char, product_matches=matches)
