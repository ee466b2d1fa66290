"""Characteristic/minimal polynomials and the char = P Q N factorization."""

from fractions import Fraction as F

import pytest

from rkwso.catalog import catalog_scheme
from rkwso.minpoly import (
    SubspaceNotInvariantError,
    char_poly,
    factorization,
    min_poly_on_subspace,
    poly_P,
    poly_Q,
)
from rkwso.poly import Polynomial
from rkwso.scalars import EXACT, FLOAT
from rkwso.tableau import make_tableau

# 4x4 confluent lower-triangular matrix with a 3-dimensional invariant
# subspace U and an orthogonal left-invariant direction v
A4 = [[F(1), F(0), F(0), F(0)],
      [F(1), F(1), F(0), F(0)],
      [F(2), F(-1), F(1), F(0)],
      [F(-2), F(0), F(1), F(2)]]
U4 = [[F(1), F(0), F(0), F(1)],
      [F(0), F(1), F(1), F(0)],
      [F(1), F(-1), F(1), F(-1)]]
V4 = [F(1), F(1), F(-1), F(-1)]


def P(*coeffs):
    return Polynomial([F(c) for c in coeffs], EXACT)


def _transpose(M):
    return [list(r) for r in zip(*M)]


class TestCharPoly:
    def test_confluent_example(self):
        # (x-1)^3 (x-2) expanded
        assert char_poly(A4, EXACT) == P(2, -7, 9, -5, 1)

    def test_triangular_product_of_diagonal(self):
        t = catalog_scheme("trapezoidal")
        assert char_poly([list(r) for r in t.A], EXACT) == P(0, F(-1, 2), 1)

    def test_one_by_one(self):
        assert char_poly([[F(1, 3)]], EXACT) == P(F(-1, 3), 1)

    def test_float_route_matches_exact(self):
        Af = [[float(x) for x in row] for row in A4]
        pf = char_poly(Af, FLOAT)
        target = Polynomial([float(c) for c in (2, -7, 9, -5, 1)], FLOAT)
        n = max(len(pf.coeffs), len(target.coeffs))
        assert all(abs(pf.coeff(i) - target.coeff(i)) <= 1e-9 for i in range(n))


class TestMinPolyOnSubspace:
    def test_right_subspace_cube(self):
        assert min_poly_on_subspace(A4, U4, EXACT) == P(-1, 3, -3, 1)  # (x-1)^3

    def test_left_direction(self):
        assert min_poly_on_subspace(_transpose(A4), [V4], EXACT) == P(-2, 1)

    def test_trivial_subspace(self):
        assert min_poly_on_subspace(A4, [], EXACT) == P(1)

    def test_product_divides_char(self):
        p = min_poly_on_subspace(A4, U4, EXACT)
        q = min_poly_on_subspace(_transpose(A4), [V4], EXACT)
        assert (p * q).divides(char_poly(A4, EXACT))

    def test_non_invariant_subspace_rejected(self):
        with pytest.raises(SubspaceNotInvariantError):
            min_poly_on_subspace(A4, [[F(0), F(1), F(0), F(0)]], EXACT)


class TestSchemePolynomials:
    def test_backward_euler(self):
        t = catalog_scheme("backward-euler")
        assert poly_Q(t) == P(-1, 1)  # b (A - I) = 0 by hand
        assert poly_P(t) == P(1)

    def test_two_stage_family(self):
        t = catalog_scheme("wso3-p2-s2-minus")
        Pp = poly_P(t)
        Qp = poly_Q(t)
        assert Pp.degree == 1 and Qp.degree == 1
        assert abs(-Pp.coeffs[0] - float(t.a(0, 0))) <= 1e-12  # root a11
        assert abs(-Qp.coeffs[0] - 0.5) <= 1e-12  # root 1/2

    def test_three_stage_family_Q_roots(self):
        a = 0.5
        t = catalog_scheme("wso3-p3-s3-a0.5-minus")
        Qp = poly_Q(t)
        assert Qp.degree == 2
        a22 = a / 2.0
        a33 = (3 * a - 2) / (6 * (a - 1))
        # Q = (x - a22)(x - a33)
        assert abs(Qp.coeffs[0] - a22 * a33) <= 1e-10
        assert abs(Qp.coeffs[1] + (a22 + a33)) <= 1e-10

    def test_factorization_identities(self):
        t = catalog_scheme("backward-euler")
        f = factorization(t)
        assert f.P == P(1) and f.Q == P(-1, 1) and f.N == P(1)
        assert f.product_matches

    def test_factorization_two_stage_family(self):
        f = factorization(catalog_scheme("wso3-p2-s2-minus"))
        assert f.N.degree == 0  # degrees 1 + 1 exhaust s = 2
        assert f.product_matches

    def test_confluent_example_cofactor_trivial(self):
        # P Q equals char exactly, so N = 1
        p = min_poly_on_subspace(A4, U4, EXACT)
        q = min_poly_on_subspace(_transpose(A4), [V4], EXACT)
        assert p * q == char_poly(A4, EXACT)


def test_dirk_minpoly_roots_lie_on_diagonal():
    t = make_tableau(
        [[F(1, 2), F(0)], [F(1, 3), F(1, 4)]], [F(2, 3), F(1, 3)], exact=True
    )
    Qp = poly_Q(t)
    # roots of Q are eigenvalues of A, i.e. diagonal entries for a DIRK
    for root in (F(1, 2), F(1, 4)):
        assert Qp.evaluate(root) == 0 or Qp.degree < 2
    assert Qp.degree == 2
