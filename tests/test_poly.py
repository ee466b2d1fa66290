"""Polynomial and rational-function arithmetic."""

from fractions import Fraction as F

import pytest

from rkwso.poly import Polynomial, PolynomialError, RationalFunction, lagrange_interpolate
from rkwso.scalars import EXACT, FLOAT


def P(*coeffs):
    return Polynomial([F(c) for c in coeffs], EXACT)


class TestArithmetic:
    def test_product_expansion(self):
        # (x-1)^3 (x-2) = x^4 - 5x^3 + 9x^2 - 7x + 2, expanded by hand
        p = P(1)
        for root in (F(1), F(1), F(1), F(2)):
            p = p * P(-root, 1)
        assert p == P(2, -7, 9, -5, 1)

    def test_divide_with_remainder(self):
        # x^2 + 1 = (x + 1)(x - 1) + 2, by hand division
        q, r = P(1, 0, 1).divmod(P(-1, 1))
        assert q == P(1, 1)
        assert r == P(2)

    def test_euclidean_identity(self):
        a = P(3, -1, 2, 1)
        d = P(-2, 1, 1)
        q, r = a.divmod(d)
        assert d * q + r == a
        assert r.degree < d.degree

    def test_divides(self):
        assert P(-1, 1).divides(P(-1, 0, 1))  # (x-1) | (x^2-1)
        assert not P(-2, 1).divides(P(-1, 0, 1))

    def test_division_by_zero(self):
        with pytest.raises(PolynomialError):
            P(1, 1).divmod(Polynomial.zero(EXACT))

    def test_gcd(self):
        a = P(-1, 1) * P(-2, 1)
        b = P(-1, 1) * P(-3, 1)
        assert a.gcd(b) == P(-1, 1)

    def test_monic_and_evaluate(self):
        p = P(2, 0, 4)
        assert p.monic() == P(F(1, 2), 0, 1)
        assert p.evaluate(F(3)) == 38

    def test_trailing_zero_trim(self):
        assert P(1, 2, 0, 0) == P(1, 2)
        assert Polynomial([0.5, 1e-15], FLOAT).degree == 0

    def test_float_divides_tolerance(self):
        a = Polynomial([-1.0, 1.0], FLOAT)
        b = Polynomial([-1.0, 0.0, 1.0], FLOAT)
        assert a.divides(b)


class TestRationalFunction:
    def test_reduction_to_lowest_terms(self):
        num = P(1, 1) * P(-3, 1)
        den = P(2, 1) * P(-3, 1)
        r = RationalFunction(num, den)
        assert r.num == P(F(1, 2), F(1, 2))
        assert r.den == P(1, F(1, 2))

    def test_taylor_series(self):
        # 1/(1-z) = 1 + z + z^2 + ...
        r = RationalFunction(P(1), P(1, -1))
        assert r.taylor(4) == [1, 1, 1, 1, 1]

    def test_equals_cross_multiplied(self):
        a = RationalFunction(P(1, F(1, 2)), P(1, F(-1, 2)))
        b = RationalFunction(P(2, 1), P(2, -1))
        assert a.equals(b)

    def test_zero_denominator_rejected(self):
        with pytest.raises(PolynomialError):
            RationalFunction(P(1), Polynomial.zero(EXACT))

    def test_origin_pole_rejected(self):
        with pytest.raises(PolynomialError):
            RationalFunction(P(1, 1), P(0, 1))


def test_lagrange_interpolation_exact():
    # recover x^2 - x/2 + 1/12 from three nodes
    target = P(F(1, 12), F(-1, 2), 1)
    nodes = [F(0), F(1), F(2)]
    values = [target.evaluate(x) for x in nodes]
    assert lagrange_interpolate(nodes, values, EXACT) == target
