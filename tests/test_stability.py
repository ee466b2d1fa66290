"""Stability functions, Hankel determinants, the orthogonal basis, and the
resolvent rational functions."""

import math
from fractions import Fraction as F

import pytest

from rkwso.catalog import catalog_all, catalog_scheme
from rkwso.minpoly import poly_Q
from rkwso.orders import space_Y, wso
from rkwso.poly import Polynomial, RationalFunction
from rkwso.scalars import EXACT, FLOAT
from rkwso.stability import (
    STANDARD,
    STIFF,
    beta_recurrence,
    check_alpha_vanishing,
    expand_in_basis,
    functional_L,
    gamma_recurrence,
    hankel_det,
    hankel_det_formula,
    lambda_subleading,
    order_vs_exp,
    ortho_basis,
    reduced_degrees,
    stability_from_alpha,
    stability_function,
    w_k,
    wso_via_wtilde,
    wtilde_is_zero,
    wtilde_k,
    xi_squared,
)
from rkwso.tableau import classify, make_tableau


def P(*coeffs):
    return Polynomial([F(c) for c in coeffs], EXACT)


class TestStabilityFunction:
    def test_backward_euler(self):
        R = stability_function(catalog_scheme("backward-euler"))
        assert R.num == P(1)
        assert R.den == P(1, -1)

    def test_two_stage_family_reduces_to_pade11(self):
        R = stability_function(catalog_scheme("wso3-p2-s2-minus"))
        target = RationalFunction(
            Polynomial([1.0, 0.5], FLOAT), Polynomial([1.0, -0.5], FLOAT)
        )
        assert R.equals(target)

    def test_explicit_euler(self):
        t = make_tableau([[F(0)]], [F(1)], exact=True)
        R = stability_function(t)
        assert R.num == P(1, 1) and R.den == P(1)

    def test_order_vs_exp(self):
        pade11 = RationalFunction(P(1, F(1, 2)), P(1, F(-1, 2)))
        assert order_vs_exp(pade11) == 2
        be = RationalFunction(P(1), P(1, -1))
        assert order_vs_exp(be) == 1  # series 1 + z + z^2 misses z^2/2

    def test_order_vs_exp_requires_R0_equal_1(self):
        with pytest.raises(ValueError):
            order_vs_exp(RationalFunction(P(2), P(1, 1)))

    def test_gauss2_order_four(self):
        R = stability_function(catalog_scheme("gauss2"))
        assert order_vs_exp(R) == 4

    def test_reduced_degrees_bounded_by_dim_Y(self):
        for t in catalog_all():
            R = stability_function(t)
            dn, dd = reduced_degrees(R)
            dim_Y = space_Y(t).dim
            assert dn <= dim_Y and dd <= dim_Y

    def test_stiffly_accurate_numerator_degree_drop(self):
        t = catalog_scheme("backward-euler")
        cls = classify(t)
        assert cls.is_stiffly_accurate and cls.a_invertible
        dn, dd = reduced_degrees(stability_function(t))
        assert dn <= dd - 1


class TestHankel:
    def test_M1(self):
        for m in range(0, 6):
            assert hankel_det(1, m) == F(1, math.factorial(m))

    def test_M2_closed_form(self):
        # -1/((m+1)!(m+2)!) at m = 1
        assert hankel_det(2, 1) == F(-1, 12)
        assert hankel_det_formula(2, 1) == F(-1, 12)

    def test_formula_matches_determinant(self):
        for n in range(1, 7):
            for m in range(0, 3):
                assert hankel_det(n, m) == hankel_det_formula(n, m)

    def test_jacobi_recursion(self):
        for n in range(3, 7):
            for m in range(0, 3):
                lhs = hankel_det_formula(n, m) * hankel_det_formula(n - 2, m + 2)
                rhs = hankel_det_formula(n - 1, m + 2) * hankel_det_formula(
                    n - 1, m
                ) - hankel_det_formula(n - 1, m + 1) ** 2
                assert lhs == rhs


class TestOrthoBasis:
    def test_standard_displays(self):
        ob = ortho_basis(3, STANDARD)
        assert ob.polys[0] == P(1)
        assert ob.polys[1] == P(F(-1, 2), 1)
        assert ob.polys[2] == P(F(1, 12), F(-1, 2), 1)
        assert ob.polys[3] == P(F(-1, 120), F(1, 10), F(-1, 2), 1)

    def test_stiff_variant_displays(self):
        ob = ortho_basis(2, STIFF)
        assert ob.polys[0] == P(1)
        assert ob.polys[1] == P(-1, 1)

    def test_orthogonality_standard(self):
        ob = ortho_basis(8, STANDARD)
        for i in range(9):
            for j in range(9):
                val = functional_L(ob.polys[i] * ob.polys[j], STANDARD)
                if i != j:
                    assert val == 0
                else:
                    assert val == ob.zetas[i] != 0

    def test_orthogonality_stiff(self):
        ob = ortho_basis(6, STIFF)
        for i in range(7):
            for j in range(i):
                assert functional_L(ob.polys[i] * ob.polys[j], STIFF) == 0

    def test_some_zeta_negative(self):
        ob = ortho_basis(8, STANDARD)
        assert any(z < 0 for z in ob.zetas)
        assert all(z != 0 for z in ob.zetas)

    def test_zeta1(self):
        # det H_2 / det H_1 with H_2 = [[1, 1/2], [1/2, 1/6]]
        assert ortho_basis(1).zetas[1] == F(-1, 12)

    def test_recurrence_coefficients(self):
        # xi_n^2 = beta_n(1); lambda_n(1) = -1/2 so gamma_n(1) = 0
        for n in range(1, 9):
            assert beta_recurrence(n, 1) == xi_squared(n)
            assert lambda_subleading(n, 1) == F(-1, 2)
            assert gamma_recurrence(n, 1) == 0

    def test_beta_removable_singularity(self):
        # the displayed formula is 0/0 at n = 1, m = 0; value from the
        # Hankel-determinant ratio route
        expected = -(hankel_det(0, 0) * hankel_det(2, 0)) / hankel_det(1, 0) ** 2
        assert beta_recurrence(1, 0) == expected == F(1, 2)

    def test_beta_matches_determinant_ratio(self):
        for m in range(0, 3):
            for n in range(1, 6):
                ratio = -(hankel_det(n - 1, m) * hankel_det(n + 1, m)) / (
                    hankel_det(n, m) ** 2
                )
                assert beta_recurrence(n, m) == ratio

    def test_functional_moments(self):
        assert functional_L(P(1), STANDARD) == 1  # mu_0 = 1/1!
        assert functional_L(P(0, 1), STANDARD) == F(1, 2)
        assert functional_L(P(1), STIFF) == 1  # 1/0!
        assert functional_L(P(0, 1), STIFF) == 1  # 1/1!


class TestAlphaExpansion:
    def test_two_stage_family_alpha_zero(self):
        t = catalog_scheme("wso3-p2-s2-minus")
        Q = poly_Q(t)
        basis = ortho_basis(1)
        alphas = expand_in_basis(Q, basis)
        assert len(alphas) == 1
        assert abs(alphas[0]) <= 1e-12  # Q = Q_1 exactly
        ok, bad = check_alpha_vanishing(alphas, 1, 2, FLOAT)
        assert ok and not bad

    def test_three_stage_family_alpha1(self):
        a = 0.5
        t = catalog_scheme("wso3-p3-s3-a0.5-minus")
        Q = poly_Q(t)
        basis = ortho_basis(2)
        alphas = expand_in_basis(Q, basis)
        q2 = basis.polys[2]
        q1 = basis.polys[1]
        expected = -float(q2.evaluate(F(1, 4))) / float(q1.evaluate(F(1, 4)))
        assert abs(alphas[1] - expected) <= 1e-10
        assert abs(alphas[0]) <= 1e-10  # order 3 kills alpha_0 as well

    def test_degree_zero_Q(self):
        alphas = expand_in_basis(P(1), ortho_basis(0))
        assert alphas == []
        ok, _ = check_alpha_vanishing(alphas, 0, 1, EXACT)
        assert ok

    def test_tableau_level_expansion(self):
        for name in ("backward-euler", "wso3-p2-s2-minus", "wso3-p3-s3-a0.5-minus"):
            t = catalog_scheme(name)
            Q = poly_Q(t)
            d = Q.degree
            alphas = expand_in_basis(Q, ortho_basis(max(d, 1), STANDARD))
            assert len(alphas) == d
            p = order_vs_exp(stability_function(t))
            ok, bad = check_alpha_vanishing(alphas, d, p, t.backend)
            assert ok and not bad


class TestStabilityFromAlpha:
    def test_two_stage_family(self):
        R = stability_from_alpha([F(0)], 1, 2, EXACT)
        assert R.num == P(1, F(1, 2))
        assert R.den == P(1, F(-1, 2))

    def test_three_stage_displayed_form(self):
        a1 = F(1, 12)  # alpha_1 at a = 1/2
        R = stability_from_alpha([F(0), a1], 2, 3, EXACT)
        num = P(12, 6 + 12 * a1, 1 + 6 * a1).scale(F(1, 12))
        den = P(12, 12 * a1 - 6, 1 - 6 * a1).scale(F(1, 12))
        assert R.num == num and R.den == den

    def test_degree_zero(self):
        R = stability_from_alpha([], 0, 1, EXACT)
        assert R.num == P(1) and R.den == P(1)

    def test_requires_p_at_least_d(self):
        with pytest.raises(ValueError):
            stability_from_alpha([F(0), F(0)], 2, 1, EXACT)

    def test_route_agreement_on_catalog(self):
        for t in catalog_all():
            R_det = stability_function(t)
            p = order_vs_exp(R_det)
            Y_dim = space_Y(t).dim
            if p < Y_dim:
                continue
            Q = poly_Q(t)
            alphas = expand_in_basis(Q, ortho_basis(max(Y_dim, 1)))
            R_alpha = stability_from_alpha(alphas, Y_dim, p, t.backend)
            assert R_det.equals(R_alpha)


class TestResolventFunctions:
    def test_backward_euler_wtilde2(self):
        # z b (I - zA)^{-1} tau2 = z/(2(1-z)) by hand
        W = wtilde_k(catalog_scheme("backward-euler"), 2)
        assert W.num == P(0, F(1, 2))
        assert W.den == P(1, -1)
        assert not wtilde_is_zero(catalog_scheme("backward-euler"), 2)

    def test_wtilde_vanishes_up_to_wso(self):
        for t in catalog_all():
            q = wso(t)
            cap = q if not math.isinf(q) else 4
            for k in range(1, int(cap) + 1):
                assert wtilde_is_zero(t, k)

    def test_two_stage_family_wtilde4_nonzero(self):
        assert not wtilde_is_zero(catalog_scheme("wso3-p2-s2-minus"), 4)

    def test_wso_via_wtilde_matches(self):
        for t in catalog_all():
            assert wso_via_wtilde(t) == wso(t)

    def test_w_k_form(self):
        # W_k = k b (I-zA)^{-1} tau_k / (R - 1); for backward Euler, k = 2:
        # numerator 2 * 1/2 = 1; R - 1 = z/(1-z) so denominator is z
        W = w_k(catalog_scheme("backward-euler"), 2)
        assert W.num == P(1)
        assert W.den == P(0, 1)
