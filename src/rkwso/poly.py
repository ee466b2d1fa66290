"""Univariate polynomials and rational functions over both scalar backends.

Coefficients are stored ascending; the zero polynomial has an empty
coefficient tuple and degree -1.  Exact polynomials use Fractions and admit
Euclidean division and GCDs; float polynomials trim trailing coefficients
below a tolerance and never attempt a GCD.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import DEFAULT_TOL


class PolynomialError(ValueError):
    pass


def _trim(coeffs, exact, tol):
    cs = list(coeffs)
    if exact:
        while cs and cs[-1] == 0:
            cs.pop()
        return [Fraction(c) for c in cs]
    scale = max([1.0] + [abs(float(c)) for c in cs])
    eps = tol.poly_trim * scale
    while cs and abs(float(cs[-1])) <= eps:
        cs.pop()
    return [float(c) for c in cs]


class Polynomial:
    __slots__ = ("coeffs", "exact")

    def __init__(self, coeffs, exact, tol=DEFAULT_TOL):
        self.exact = bool(exact)
        self.coeffs = tuple(_trim(coeffs, self.exact, tol))

    @classmethod
    def zero(cls, exact):
        return cls((), exact)

    @classmethod
    def one(cls, exact):
        return cls((1,), exact)

    @classmethod
    def x(cls, exact):
        return cls((0, 1), exact)

    @classmethod
    def from_roots(cls, roots, exact):
        p = cls.one(exact)
        for r in roots:
            p = p * cls((-r, 1), exact)
        return p

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0) if self.exact else 0.0

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            [self.coeff(i) + other.coeff(i) for i in range(n)], self.exact
        )

    def __sub__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            [self.coeff(i) - other.coeff(i) for i in range(n)], self.exact
        )

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs], self.exact)

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return Polynomial.zero(self.exact)
        out = [Fraction(0) if self.exact else 0.0] * (
            len(self.coeffs) + len(other.coeffs) - 1
        )
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out, self.exact)

    def scale(self, k):
        return Polynomial([k * c for c in self.coeffs], self.exact)

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.exact != self.exact:
                raise PolynomialError("mixed polynomial backends")
            return other
        return Polynomial((other,), self.exact)

    def shift(self, k):
        """Multiply by x^k."""
        if self.is_zero:
            return self
        pad = [Fraction(0) if self.exact else 0.0] * k
        return Polynomial(pad + list(self.coeffs), self.exact)

    def divmod(self, divisor):
        divisor = self._coerce(divisor)
        if divisor.is_zero:
            raise PolynomialError("division by zero polynomial")
        q = [Fraction(0) if self.exact else 0.0] * max(
            0, self.degree - divisor.degree + 1
        )
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
        return Polynomial(q, self.exact), Polynomial(rem, self.exact)

    def divides(self, other, tol=DEFAULT_TOL):
        """True when self divides other (remainder zero within tolerance)."""
        other = self._coerce(other)
        if self.is_zero:
            return other.is_zero
        _, r = other.divmod(self)
        if self.exact:
            return r.is_zero
        scale = max([1.0] + [abs(c) for c in other.coeffs])
        return all(abs(c) <= tol.poly_divides * scale for c in r.coeffs)

    def gcd(self, other):
        if not self.exact:
            raise PolynomialError("gcd requires the exact backend")
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
        return Polynomial([c / lead for c in self.coeffs], self.exact)

    def evaluate(self, x):
        acc = Fraction(0) if self.exact else 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def close_to(self, other, tol=1e-10):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return all(
            abs(float(self.coeff(i)) - float(other.coeff(i))) <= tol
            for i in range(n)
        )

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.exact == other.exact and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.exact, self.coeffs))

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


def lagrange_interpolate(nodes, values, exact):
    """Unique polynomial of degree < len(nodes) through (node, value) pairs."""
    if len(nodes) != len(values):
        raise PolynomialError("node/value length mismatch")
    result = Polynomial.zero(exact)
    for i, (xi, yi) in enumerate(zip(nodes, values)):
        if yi == 0:
            continue
        basis = Polynomial.one(exact)
        denom = Fraction(1) if exact else 1.0
        for j, xj in enumerate(nodes):
            if j == i:
                continue
            basis = basis * Polynomial((-xj, 1), exact)
            denom *= xi - xj
        result = result + basis.scale(yi / denom)
    return result


class RationalFunction:
    """Quotient of polynomials with a nonzero constant denominator term.

    Exact pairs are reduced by GCD and normalized to den(0) = 1; float pairs
    are stored as computed (float GCD is unstable) but normalized by den(0)
    for deterministic output.  Equality is by cross-multiplication.
    """

    __slots__ = ("num", "den", "exact")

    def __init__(self, num, den, tol=DEFAULT_TOL, require_origin=True):
        if num.exact != den.exact:
            raise PolynomialError("mixed backends in rational function")
        if den.is_zero:
            raise PolynomialError("zero denominator")
        exact = num.exact
        if exact:
            g = num.gcd(den)
            if not g.is_zero and g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
        d0 = den.coeff(0)
        if d0 != 0:
            num = num.scale(1 / d0)
            den = den.scale(1 / d0)
        elif require_origin:
            raise PolynomialError("denominator vanishes at 0")
        self.num, self.den, self.exact = num, den, exact

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
        if not self.exact:
            return self
        return RationalFunction(
            Polynomial([float(c) for c in self.num.coeffs], False),
            Polynomial([float(c) for c in self.den.coeffs], False),
            require_origin=False,
        )

    def equals(self, other, tol=DEFAULT_TOL):
        """R1 == R2 via num1*den2 - num2*den1 = 0 (within tolerance)."""
        if self.exact and other.exact:
            return self.num * other.den == other.num * self.den
        a, b = self.as_float(), other.as_float()
        lhs = a.num * b.den
        rhs = b.num * a.den
        diff = lhs - rhs
        scale = max(
            [1.0]
            + [abs(float(c)) for c in lhs.coeffs]
            + [abs(float(c)) for c in rhs.coeffs]
        )
        return all(abs(float(c)) <= tol.ratfunc_compare * scale for c in diff.coeffs)

    def __repr__(self):
        return f"RationalFunction({self.num!r} / {self.den!r})"
