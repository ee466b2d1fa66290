"""Small dense linear algebra over exact rationals or binary64.

Matrices are sequences of row sequences, vectors are flat sequences.  The
exact path runs fraction Gaussian elimination, except the `Eliminator`,
which works fraction-free on integer vectors; the float path defers to
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


def det(A, exact):
    n = len(A)
    if n == 0:
        return one(exact)
    if not exact:
        return float(np.linalg.det(np.array(A, dtype=float)))
    M = [list(row) for row in A]
    d = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            d = -d
        d *= M[col][col]
        inv = 1 / M[col][col]
        for r in range(col + 1, n):
            if M[r][col] == 0:
                continue
            f = M[r][col] * inv
            M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return d


def solve(A, rhs, exact):
    """Solve A x = rhs; raises SingularMatrixError when A is singular."""
    n = len(A)
    if not exact:
        M = np.array(A, dtype=complex if _is_complex(A, rhs) else float)
        b = np.array(rhs, dtype=M.dtype)
        if n and abs(np.linalg.det(M)) == 0.0:
            raise SingularMatrixError("singular float system")
        try:
            x = np.linalg.solve(M, b)
        except np.linalg.LinAlgError as err:
            raise SingularMatrixError(str(err)) from None
        return list(x)
    M = [list(row) + [r] for row, r in zip(A, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise SingularMatrixError("singular exact system")
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def _is_complex(A, rhs):
    return any(isinstance(x, complex) for row in A for x in row) or any(
        isinstance(x, complex) for x in rhs
    )


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


def solve_in_span(columns, target, exact, tol=DEFAULT_TOL):
    """Coefficients x with sum_j x_j columns[j] = target, or None.

    Exact mode solves consistently or returns None; float mode accepts a
    least-squares fit whose residual is below the rank tolerance.
    """
    if not columns:
        if exact:
            return [] if all(x == 0 for x in target) else None
        n = float(np.linalg.norm(np.array(target, dtype=float)))
        return [] if n <= tol.rank else None
    n_rows = len(target)
    if not exact:
        M = np.array(columns, dtype=float).T
        t = np.array(target, dtype=float)
        x, *_ = np.linalg.lstsq(M, t, rcond=None)
        resid = float(np.linalg.norm(M @ x - t))
        scale = max(1.0, float(np.linalg.norm(t)))
        if resid > tol.rank * scale:
            return None
        return list(x)
    # exact: eliminate [columns | target]
    ncols = len(columns)
    M = [[columns[j][i] for j in range(ncols)] + [target[i]] for i in range(n_rows)]
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, n_rows) if M[r][col] != 0), None)
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        inv = 1 / M[row][col]
        M[row] = [x * inv for x in M[row]]
        for r in range(n_rows):
            if r != row and M[r][col] != 0:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[row])]
        pivots.append((row, col))
        row += 1
    for r in range(row, n_rows):
        if M[r][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, col in pivots:
        x[col] = M[r][ncols]
    return x
