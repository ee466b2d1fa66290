"""Univariate polynomials and rational functions over both scalar backends.

Coefficients are stored ascending; the zero polynomial has an empty
coefficient tuple and degree -1.  Each polynomial carries its scalar
backend, which trims its trailing coefficients (exact zeros, or float
coefficients below a tolerance) and decides whether a rational function is
reduced by a GCD (exact only).
"""

from __future__ import annotations

from .scalars import DEFAULT_TOL, FLOAT


class PolynomialError(ValueError):
    pass


class Polynomial:
    __slots__ = ("coeffs", "backend")

    def __init__(self, coeffs, backend, tol=DEFAULT_TOL):
        self.backend = backend
        self.coeffs = tuple(backend.trim(coeffs, tol))

    @property
    def exact(self):
        return self.backend.exact

    @classmethod
    def zero(cls, backend):
        return cls((), backend)

    @classmethod
    def one(cls, backend):
        return cls((1,), backend)

    @classmethod
    def x(cls, backend):
        return cls((0, 1), backend)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.backend.zero

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            [self.coeff(i) + other.coeff(i) for i in range(n)], self.backend
        )

    def __sub__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            [self.coeff(i) - other.coeff(i) for i in range(n)], self.backend
        )

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs], self.backend)

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return Polynomial.zero(self.backend)
        out = [self.backend.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out, self.backend)

    def scale(self, k):
        return Polynomial([k * c for c in self.coeffs], self.backend)

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.backend is not self.backend:
                raise PolynomialError("mixed polynomial backends")
            return other
        return Polynomial((other,), self.backend)

    def shift(self, k):
        """Multiply by x^k."""
        if self.is_zero:
            return self
        pad = [self.backend.zero] * k
        return Polynomial(pad + list(self.coeffs), self.backend)

    def divmod(self, divisor):
        divisor = self._coerce(divisor)
        if divisor.is_zero:
            raise PolynomialError("division by zero polynomial")
        q = [self.backend.zero] * max(0, self.degree - divisor.degree + 1)
        rem = list(self.coeffs)
        dlead = divisor.coeffs[-1]
        dd = divisor.degree
        for k in range(len(rem) - 1, dd - 1, -1):
            if k - dd >= len(q):
                continue
            f = rem[k] / dlead
            q[k - dd] = f
            if f != 0:
                for i, c in enumerate(divisor.coeffs):
                    rem[k - dd + i] -= f * c
        return Polynomial(q, self.backend), Polynomial(rem, self.backend)

    def divides(self, other, tol=DEFAULT_TOL):
        """True when self divides other (remainder zero within tolerance)."""
        other = self._coerce(other)
        if self.is_zero:
            return other.is_zero
        _, r = other.divmod(self)
        bk = self.backend
        scale = bk.size(other.coeffs)
        return all(bk.is_zero(c, tol.poly_divides, scale) for c in r.coeffs)

    def gcd(self, other):
        a, b = self, self._coerce(other)
        while not b.is_zero:
            a, b = b, a.divmod(b)[1]
        if a.is_zero:
            return a
        return a.monic()

    def monic(self):
        if self.is_zero:
            raise PolynomialError("zero polynomial has no monic form")
        lead = self.coeffs[-1]
        return Polynomial([c / lead for c in self.coeffs], self.backend)

    def evaluate(self, x):
        acc = self.backend.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.backend is other.backend and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.backend.name, self.coeffs))

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return "Poly(" + " + ".join(terms) + ")"


def lagrange_interpolate(nodes, values, backend):
    """Unique polynomial of degree < len(nodes) through (node, value) pairs."""
    if len(nodes) != len(values):
        raise PolynomialError("node/value length mismatch")
    result = Polynomial.zero(backend)
    for i, (xi, yi) in enumerate(zip(nodes, values)):
        if yi == 0:
            continue
        basis = Polynomial.one(backend)
        denom = backend.one
        for j, xj in enumerate(nodes):
            if j == i:
                continue
            basis = basis * Polynomial((-xj, 1), backend)
            denom *= xi - xj
        result = result + basis.scale(yi / denom)
    return result


class RationalFunction:
    """Quotient of polynomials with a nonzero constant denominator term.

    The backend reduces the pair (exact: by GCD; float: not at all, since a
    float GCD is unstable), and both are normalized to den(0) = 1 for
    deterministic output.  Equality is by cross-multiplication.
    """

    __slots__ = ("num", "den", "backend")

    def __init__(self, num, den, tol=DEFAULT_TOL, require_origin=True):
        if num.backend is not den.backend:
            raise PolynomialError("mixed backends in rational function")
        if den.is_zero:
            raise PolynomialError("zero denominator")
        num, den = num.backend.reduce(num, den)
        d0 = den.coeff(0)
        if d0 != 0:
            num = num.scale(1 / d0)
            den = den.scale(1 / d0)
        elif require_origin:
            raise PolynomialError("denominator vanishes at 0")
        self.num, self.den, self.backend = num, den, num.backend

    @property
    def exact(self):
        return self.backend.exact

    def evaluate(self, z):
        return self.num.evaluate(z) / self.den.evaluate(z)

    def taylor(self, n):
        """First n+1 Taylor coefficients at 0 by series division."""
        out = []
        d0 = self.den.coeff(0)
        for k in range(n + 1):
            acc = self.num.coeff(k)
            for i in range(1, k + 1):
                acc -= self.den.coeff(i) * out[k - i]
            out.append(acc / d0)
        return out

    def as_float(self):
        return RationalFunction(
            Polynomial([float(c) for c in self.num.coeffs], FLOAT),
            Polynomial([float(c) for c in self.den.coeffs], FLOAT),
            require_origin=False,
        )

    def equals(self, other, tol=DEFAULT_TOL):
        """R1 == R2 via num1*den2 - num2*den1 = 0 (within tolerance); both
        must be on the same backend."""
        lhs = self.num * other.den
        rhs = other.num * self.den
        bk = self.backend
        scale = bk.size(lhs.coeffs, rhs.coeffs)
        return all(
            bk.is_zero(c, tol.ratfunc_compare, scale) for c in (lhs - rhs).coeffs
        )

    def __repr__(self):
        return f"RationalFunction({self.num!r} / {self.den!r})"
