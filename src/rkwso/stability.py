"""Stability functions, moment functionals, and the orthogonal basis.

R(z) is computed two independent ways: as a quotient of determinants of
linear pencils (reversed characteristic polynomials in exact mode,
interpolated at integer nodes in float mode), and from the expansion of
the left-annihilator polynomial Q in the orthogonal basis (Q_j) of the
moment functional with mu_n = 1/(n+1)!.  The two must agree whenever the
scheme's order (against exp(z)) is at least dim Y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import SingularMatrixError, det, solve, vdot
from .minpoly import char_poly
from .orders import SchemeContext, tau
from .poly import Polynomial, RationalFunction, lagrange_interpolate
from .scalars import DEFAULT_TOL, EXACT

STANDARD = "standard"  # moments 1/(n+1)!  (Hankel shift m = 1)
STIFF = "stiff"        # moments 1/n!      (Hankel shift m = 0)

_VARIANT_SHIFT = {STANDARD: 1, STIFF: 0}

SERIES_PMAX = 12  # Taylor terms of R(z) compared with exp(z) by order_vs_exp


def _pencil_matrix(t, z, with_ebt):
    """I - zA (+ z e b^T) evaluated at a scalar z."""
    s = t.s
    one = t.backend.one
    out = []
    for i in range(s):
        row = []
        for j in range(s):
            val = (one if i == j else 0 * one) - z * t.a(i, j)
            if with_ebt:
                val = val + z * t.b[j]
            row.append(val)
        out.append(row)
    return out


def _det_poly(t, with_ebt, degree):
    """Determinant of the pencil as a polynomial in z.

    The pencil is I - zM with M = A, or M = A - e b^T when with_ebt.  Exact
    mode reverses the characteristic polynomial, det(I - zM) = z^s
    chi_M(1/z); float mode interpolates at integer nodes.
    """
    bk = t.backend
    if bk.exact:
        M = [
            [t.a(i, j) - (t.b[j] if with_ebt else 0) for j in range(t.s)]
            for i in range(t.s)
        ]
        return Polynomial(char_poly(M, bk).coeffs[::-1], bk)
    nodes = [float(k) for k in range(degree + 1)]
    values = [det(_pencil_matrix(t, z, with_ebt), bk) for z in nodes]
    return lagrange_interpolate(nodes, values, bk)


def stability_function(t, tol=DEFAULT_TOL):
    """R(z) = det(I - zA + z e b^T) / det(I - zA)."""
    num = _det_poly(t, True, t.s)
    den = _det_poly(t, False, t.s)
    return RationalFunction(num, den, tol)


def order_vs_exp(R, pmax=SERIES_PMAX, tol=DEFAULT_TOL):
    """Largest p <= pmax with R(z) = exp(z) + O(z^(p+1))."""
    bk = R.backend
    if not bk.is_zero(R.evaluate(bk.zero) - bk.one, tol.series_match):
        raise ValueError("R(0) != 1")
    series = R.taylor(pmax + 1)
    p = 0
    fact = bk.one
    for n in range(1, pmax + 2):
        fact = fact / n
        if n >= len(series):
            break
        if bk.is_zero(series[n] - fact, tol.series_match):
            p = n
        else:
            break
    return min(p, pmax)


def _admits_degrees(R, dn, dd, tol):
    """Can R be written as N/D with deg N <= dn, deg D <= dd, D(0) = 1?

    Linear least squares on N * den - D * num = 0: robust for float pairs,
    where explicit root cancellation would be ill-posed at repeated
    eigenvalues (a multiplicity-k root wanders by O(eps^(1/k)))."""
    num, den = R.num, R.den
    if dn < 0 or dd < 0:
        return False
    kmax = max(dn + den.degree, dd + num.degree, 0)
    n_unk = (dn + 1) + dd  # D(0) fixed to 1
    rows = []
    rhs = []
    for k in range(kmax + 1):
        row = [0.0] * n_unk
        for i in range(dn + 1):
            if 0 <= k - i <= den.degree:
                row[i] = float(den.coeff(k - i))
        for j in range(1, dd + 1):
            if 0 <= k - j <= num.degree:
                row[dn + j] = -float(num.coeff(k - j))
        rows.append(row)
        rhs.append(float(num.coeff(k)))
    M = np.array(rows)
    t = np.array(rhs)
    if n_unk == 0:
        resid = float(np.linalg.norm(t))
    else:
        x, *_ = np.linalg.lstsq(M, t, rcond=None)
        resid = float(np.linalg.norm(M @ x - t))
    scale = max(
        [1.0]
        + [abs(float(c)) for c in num.coeffs]
        + [abs(float(c)) for c in den.coeffs]
    )
    return resid <= 1e-8 * scale


def reduced_degrees(R, tol=DEFAULT_TOL):
    """(deg num, deg den) after removing common factors.

    Exact pairs are already GCD-reduced.  Float pairs report the smallest
    degrees for which an equivalent representation exists.
    """
    if R.exact:
        return R.num.degree, R.den.degree
    cap = max(R.num.degree, R.den.degree, 0)
    dmax = next(
        (d for d in range(cap + 1) if _admits_degrees(R, d, d, tol)), cap
    )
    dn = next(
        (d for d in range(dmax + 1) if _admits_degrees(R, d, dmax, tol)), dmax
    )
    dd = next(
        (d for d in range(dmax + 1) if _admits_degrees(R, dmax, d, tol)), dmax
    )
    return dn, dd


# ---------------------------------------------------------------------------
# Moments, Hankel determinants, orthogonal basis
# ---------------------------------------------------------------------------


def moment(n, variant=STANDARD):
    m = _VARIANT_SHIFT[variant]
    return Fraction(1, math.factorial(m + n))


def functional_L(p, variant=STANDARD):
    """Linear extension of the moment sequence to a polynomial."""
    return sum(
        p.backend.convert(moment(k, variant)) * c for k, c in enumerate(p.coeffs)
    )


def hankel_det(n, m):
    """Exact determinant of the n x n matrix with entries 1/(m+i+j-2)!."""
    if n < 0 or m < 0:
        raise ValueError("n, m must be nonnegative")
    if n == 0:
        return Fraction(1)
    H = [
        [Fraction(1, math.factorial(m + i + j)) for j in range(n)]
        for i in range(n)
    ]
    return det(H, EXACT)


def hankel_det_formula(n, m):
    """Closed form sigma(n) c(n) c(m+n-1) / c(m+2n-1), c(n) = prod i!."""
    if n == 0:
        return Fraction(1)

    def c(k):
        out = 1
        for i in range(1, k):
            out *= math.factorial(i)
        return out

    r = n % 4
    sigma = 1 if r in (0, 1) else -1
    return Fraction(sigma * c(n) * c(m + n - 1), c(m + 2 * n - 1))


def xi_squared(n):
    """Recurrence weight 1/(4(4n^2 - 1)) of the standard basis."""
    return Fraction(1, 4 * (4 * n * n - 1))


def lambda_subleading(n, m):
    """Second-leading coefficient of the monic orthogonal Q_n: -n/(m+2n-1)."""
    if n == 0:
        return Fraction(0)
    return Fraction(-n, m + 2 * n - 1)


def beta_recurrence(n, m):
    """Recurrence weight beta_n(m) = n(m+n-1)/((m+2n)(m+2n-1)^2(m+2n-2)).

    The displayed form is 0/0 at (n, m) = (1, 0); the common factor m
    cancels there, leaving 1/((m+2)(m+1)^2).
    """
    if n < 1:
        raise ValueError("beta_n defined for n >= 1")
    if n == 1:
        return Fraction(1, (m + 2) * (m + 1) ** 2)
    return Fraction(
        n * (m + n - 1), (m + 2 * n) * (m + 2 * n - 1) ** 2 * (m + 2 * n - 2)
    )


def gamma_recurrence(n, m):
    return lambda_subleading(n + 1, m) - lambda_subleading(n, m)


@dataclass(frozen=True)
class OrthoBasis:
    """Monic polynomials orthogonal for the chosen moment functional.

    polys[j] has degree j; L(Q_i Q_j) = zeta_i delta_ij with every zeta
    nonzero (the functional is quasi-definite, not positive definite).
    """

    variant: str
    polys: tuple
    zetas: tuple
    gammas: tuple
    betas: tuple

    @property
    def degree(self):
        return len(self.polys) - 1


def ortho_basis(d, variant=STANDARD):
    """Basis Q_0..Q_d by the three-term recurrence
    Q_{n+1} = (x + gamma_n) Q_n + beta_n Q_{n-1}."""
    m = _VARIANT_SHIFT[variant]
    polys = [Polynomial.one(EXACT)]
    if d >= 1:
        polys.append(Polynomial((-Fraction(1, m + 1), Fraction(1)), EXACT))
    gammas, betas = [], []
    x = Polynomial.x(EXACT)
    for n in range(1, d):
        g = gamma_recurrence(n, m)
        bt = beta_recurrence(n, m)
        gammas.append(g)
        betas.append(bt)
        nxt = (x + Polynomial((g,), EXACT)) * polys[n] + polys[n - 1].scale(bt)
        polys.append(nxt)
    zetas = tuple(
        hankel_det_formula(i + 1, m) / hankel_det_formula(i, m)
        for i in range(d + 1)
    )
    return OrthoBasis(
        variant=variant,
        polys=tuple(polys),
        zetas=zetas,
        gammas=tuple(gammas),
        betas=tuple(betas),
    )


def expand_in_basis(Q, basis):
    """Coefficients alpha with Q = Q_d + alpha_{d-1} Q_{d-1} + ... + alpha_0.

    Q must be monic of degree d <= basis.degree.  Exact Fractions in, exact
    out; float polynomials are lifted termwise.
    """
    bk = Q.backend
    d = Q.degree
    if d < 0:
        raise ValueError("Q must be nonzero")
    if not bk.is_zero(Q.coeffs[-1] - bk.one, 1e-9):
        raise ValueError("Q must be monic")
    if d > basis.degree:
        raise ValueError("basis too short for deg Q")
    rem = list(Q.coeffs)
    alphas = [None] * d
    # subtract Q_d, then peel monic basis polynomials downwards
    for j in range(d, -1, -1):
        factor = rem[j]  # the leading coefficient, 1 for monic Q, at j = d
        if j < d:
            alphas[j] = factor
        for i, c in enumerate(basis.polys[j].coeffs):
            rem[i] -= factor * bk.convert(c)
    scale = bk.size(Q.coeffs)
    if not all(bk.is_zero(r, 1e-9, scale) for r in rem):
        raise RuntimeError("change of basis failed to terminate at zero")
    return alphas


def check_alpha_vanishing(alphas, d, p, backend, tol=DEFAULT_TOL):
    """alpha_j must vanish for j <= p - d - 1 when R has order p."""
    limit = p - d - 1
    bad = [
        j
        for j, a in enumerate(alphas)
        if j <= limit and not backend.is_zero(a, tol.zero)
    ]
    return (not bad), bad


def stability_from_alpha(alphas, d, p, backend, tol=DEFAULT_TOL):
    """R(z) = 1 + z beta_0(z) from the companion matrix of the recurrence.

    Valid when p >= d (order of R against exp(z) at least dim Y).  The
    d x d matrix S has first row (1/2, 1, 0, ...), subdiagonal -xi_n^2,
    superdiagonal ones, minus e_d alpha^T; beta solves (I - z S^T) beta = e1.
    """
    if p < d:
        raise ValueError("stability-from-alpha requires p >= dim Y")
    if d == 0:
        one_poly = Polynomial.one(backend)
        return RationalFunction(one_poly, one_poly, tol)
    if len(alphas) != d:
        raise ValueError("need exactly d alpha coefficients")
    one, zero, conv = backend.one, backend.zero, backend.convert
    S = [[zero for _ in range(d)] for _ in range(d)]
    S[0][0] = conv(Fraction(1, 2))
    for i in range(d - 1):
        S[i][i + 1] = one
    for i in range(1, d):
        S[i][i - 1] = -conv(xi_squared(i))
    for j in range(d):
        S[d - 1][j] -= conv(alphas[j])
    # beta_0 = det((I - z S^T)_1) / det(I - z S^T), column 1 replaced by e1
    St = [[S[j][i] for j in range(d)] for i in range(d)]

    def pencil(z):
        return [
            [(one if i == j else zero) - z * St[i][j] for j in range(d)]
            for i in range(d)
        ]

    def pencil_col_replaced(z):
        M = pencil(z)
        for i in range(d):
            M[i][0] = one if i == 0 else zero
        return M

    nodes = [conv(k) for k in range(d + 1)]
    den_vals = [det(pencil(z), backend) for z in nodes]
    num_vals = [det(pencil_col_replaced(z), backend) for z in nodes]
    den = lagrange_interpolate(nodes, den_vals, backend)
    num = lagrange_interpolate(nodes, num_vals, backend)
    # R = 1 + z * num/den = (den + z num) / den
    R_num = den + num.shift(1)
    return RationalFunction(R_num, den, tol)


# ---------------------------------------------------------------------------
# The rational functions driving the semi-stiff local error
# ---------------------------------------------------------------------------


def _resolvent_form(t, tk):
    """phi(z) = b^T adj(I - zA) tau^(k) as a polynomial (degree <= s-1),
    given tk = tau^(k)."""
    s, bk = t.s, t.backend
    max_a = bk.scale(lambda: max(abs(x) for row in t.A for x in row))
    nodes, values = [], []
    z_int = 0
    while len(nodes) < s:
        z = bk.convert(z_int)
        M = _pencil_matrix(t, z, False)
        dz = det(M, bk)
        # well-conditioned nodes only: the pencil det scales like
        # (1 + |z| max|A|)^s
        if not bk.is_zero(dz, 1e-8, bk.scale(lambda: (1.0 + abs(z) * max_a) ** s)):
            x = solve(M, list(tk), bk)
            values.append(vdot(t.b, x) * dz)
            nodes.append(z)
        z_int += 1
        if z_int > 20 * s + 20:
            raise SingularMatrixError("could not find nonsingular nodes")
    return lagrange_interpolate(nodes, values, bk)


def wtilde_k(t, k, tol=DEFAULT_TOL):
    """W~_k(z) = z b^T (I - zA)^{-1} tau^(k) as a rational function."""
    phi = _resolvent_form(t, tau(t, k))
    return RationalFunction(phi.shift(1), _det_poly(t, False, t.s), tol)


def w_k(t, k, tol=DEFAULT_TOL):
    """W_k(z) = k b^T (I - zA)^{-1} tau^(k) / (R(z) - 1)."""
    phi = _resolvent_form(t, tau(t, k))
    den = _det_poly(t, False, t.s)
    num_R = _det_poly(t, True, t.s)
    r_minus_1 = num_R - den
    if r_minus_1.is_zero:
        raise ValueError("R(z) is identically 1")
    knum = phi.scale(t.backend.convert(k))
    # (k phi / den) / ((num_R - den)/den) = k phi / (num_R - den);
    # R(0) = 1 makes the denominator vanish at 0, so skip that normalization
    return RationalFunction(knum, r_minus_1, tol, require_origin=False)


def wtilde_is_zero(t, k, tol=DEFAULT_TOL, ctx=None):
    """Exact (or toleranced) test of W~_k == 0 as a polynomial identity."""
    tk = (ctx or SchemeContext(t, tol)).tau(k)
    phi = _resolvent_form(t, tk)
    scale = t.backend.size(tk, t.b)
    return all(t.backend.is_zero(c, tol.zero, scale) for c in phi.coeffs)


def wso_via_wtilde(t, kcap=None, tol=DEFAULT_TOL, ctx=None):
    """WSO as the longest prefix of identically-vanishing W~_k."""
    ctx = ctx or SchemeContext(t, tol, kcap)
    mstar = ctx.mstar
    cap = mstar if kcap is None else min(kcap, mstar)
    q = 0
    for k in range(1, cap + 1):
        if wtilde_is_zero(t, k, tol, ctx):
            q = k
        else:
            return q
    return math.inf if q == mstar else q
