"""Small dense linear algebra over exact rationals or binary64.

Matrices are sequences of row sequences, vectors are flat sequences.  The
exact path runs in integer arithmetic: solves and span tests through the
fraction-free `Eliminator`, determinants through the integer
Faddeev-LeVerrier recurrence of `char_coeffs`.  The float path defers to
numpy.  Everything here is sized for Runge-Kutta stage counts (s <= ~8), so
clarity beats asymptotics.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .scalars import DEFAULT_TOL


class SingularMatrixError(ValueError):
    pass


def zero(exact):
    return Fraction(0) if exact else 0.0


def one(exact):
    return Fraction(1) if exact else 1.0


def eye(n, exact):
    o, z = one(exact), zero(exact)
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def matvec(A, v):
    return [sum(aij * vj for aij, vj in zip(row, v)) for row in A]


def matmul(A, B):
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def vdot(u, v):
    return sum(a * b for a, b in zip(u, v))


def vec_pow(v, k):
    """Componentwise power with 0^0 = 1."""
    return [x ** k if k else x ** 0 for x in v]


def primitive(v):
    """The primitive integer vector on the ray of a rational vector v:
    denominators cleared, content divided out.  Zero stays zero."""
    den = math.lcm(*(x.denominator for x in v))
    w = [x.numerator * (den // x.denominator) for x in v]
    g = math.gcd(*w)
    return [x // g for x in w] if g > 1 else w


def integer_matrix(A):
    """(d, d A) with d the least common denominator of the entries of A, so
    that d A is an integer matrix."""
    d = math.lcm(*(x.denominator for row in A for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in A]


def max_abs(rows):
    m = 0.0
    for row in rows:
        for x in row:
            m = max(m, abs(float(x)))
    return m


def char_coeffs(A):
    """(d, C) with d the least common denominator of the rational matrix A
    and C the integer coefficients, constant term first, of the
    characteristic polynomial det(xI - dA).

    Faddeev-LeVerrier on the integer matrix dA: exact traces, exact
    divisions by k, no pivoting.
    """
    n = len(A)
    d, dA = integer_matrix(A)
    C = [0] * n + [1]
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        M = matmul(dA, M)
        c = -sum(M[i][i] for i in range(n)) // k
        C[n - k] = c
        for i in range(n):
            M[i][i] += c
    return d, C


def det(A, exact):
    """det A; exact mode reads it off the characteristic polynomial,
    det A = (-1)^n chi_A(0)."""
    if not exact:
        return float(np.linalg.det(np.array(A, dtype=float)))
    n = len(A)
    d, C = char_coeffs(A)
    return Fraction((-1) ** n * C[0], d ** n)


def solve(A, rhs, exact):
    """Solve A x = rhs; raises SingularMatrixError when A is singular."""
    if exact:
        x, independent = _tagged_solve(transpose(A), rhs)
        if not independent:
            raise SingularMatrixError("singular exact system")
        return x
    try:
        x = np.linalg.solve(np.array(A, dtype=float), np.array(rhs, dtype=float))
    except np.linalg.LinAlgError as err:
        raise SingularMatrixError(str(err)) from None
    return list(x)


class Eliminator:
    """Incremental rank-revealing column elimination.

    Exact mode is fraction-free: it keeps primitive integer vectors, each
    with a pivot at which every later one vanishes, and reduces by
    cross-multiplication followed by division by the content, so it creates
    no Fraction.  Float mode keeps an orthonormal set (modified Gram-Schmidt)
    with a relative rank threshold.
    """

    def __init__(self, exact, tol=DEFAULT_TOL):
        self.exact = exact
        self.tol = tol
        self._reduced = []  # exact: (pivot_index, vector); float: unit vectors

    @property
    def rank(self):
        return len(self._reduced)

    def residual(self, v):
        """v reduced against the span.  Exact mode returns a primitive
        integer multiple of the rational residual; it is zero exactly when
        v lies in the span."""
        if self.exact:
            w = primitive(v)
            for piv, u in self._reduced:
                f = w[piv]
                if f:
                    g = u[piv]
                    w = [g * x - f * y for x, y in zip(w, u)]
                    c = math.gcd(*w)
                    if c > 1:
                        w = [x // c for x in w]
            return w
        w = np.array(v, dtype=float)
        for u in self._reduced:
            w = w - np.dot(u, w) * u
        # second pass stabilizes near-dependent vectors
        for u in self._reduced:
            w = w - np.dot(u, w) * u
        return list(w)

    def contains(self, v):
        r = self.residual(v)
        if self.exact:
            return not any(r)
        scale = max(1.0, float(np.linalg.norm(np.array(v, dtype=float))))
        return float(np.linalg.norm(np.array(r))) <= self.tol.rank * scale

    def add(self, v):
        """Returns True when v enlarges the span."""
        r = self.residual(v)
        if self.exact:
            piv = next((i for i, x in enumerate(r) if x), None)
            if piv is None:
                return False
            self._reduced.append((piv, r))
            return True
        norm_v = max(1.0, float(np.linalg.norm(np.array(v, dtype=float))))
        rn = np.array(r, dtype=float)
        nr = float(np.linalg.norm(rn))
        if nr <= self.tol.rank * norm_v:
            return False
        self._reduced.append(rn / nr)
        return True


def _tagged_solve(columns, target):
    """(x, independent): exact x with sum_j x_j columns[j] = target, or None
    when target is outside the span, and whether the columns are linearly
    independent.

    Each column gets a unit tag, [col_j | e_j | 0], and [target | 0 | -1] is
    reduced against them.  The residual is a multiple of
    [target - sum_j x_j col_j | -x | -1]; its data part vanishes exactly
    when target lies in the span, and then x_j = w[m + j] / w[-1].  A column
    whose data part reduces to zero keeps its pivot in the tags.
    """
    m, n = len(target), len(columns)
    elim = Eliminator(True)
    for j, col in enumerate(columns):
        elim.add([*col, *(int(i == j) for i in range(n)), 0])
    independent = all(piv < m for piv, _ in elim._reduced)
    w = elim.residual([*target, *[0] * n, -1])
    if any(w[:m]):
        return None, independent
    return [Fraction(x, w[-1]) for x in w[m:-1]], independent


def solve_in_span(columns, target, exact, tol=DEFAULT_TOL):
    """Coefficients x with sum_j x_j columns[j] = target, or None.

    Exact mode solves consistently or returns None; float mode accepts a
    least-squares fit whose residual is below the rank tolerance.
    """
    if exact:
        return _tagged_solve(columns, target)[0]
    t = np.array(target, dtype=float)
    if not columns:
        return [] if float(np.linalg.norm(t)) <= tol.rank else None
    M = np.array(columns, dtype=float).T
    x, *_ = np.linalg.lstsq(M, t, rcond=None)
    resid = float(np.linalg.norm(M @ x - t))
    scale = max(1.0, float(np.linalg.norm(t)))
    if resid > tol.rank * scale:
        return None
    return list(x)
