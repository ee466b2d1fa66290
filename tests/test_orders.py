"""Residuals, simplifying assumptions, classical order, WSO, subspaces."""

import math
from fractions import Fraction as F

from helpers import (
    brute_force_K_generators,
    brute_force_Y_generators,
    brute_force_rank,
    random_suite,
)

from rkwso.catalog import catalog_all, catalog_scheme
from rkwso.orders import (
    check_albrecht,
    classical_order,
    saturation_index,
    space_K,
    space_Y,
    stage_order_components,
    tau,
    verify_wso_orthogonality,
    wso,
)
from rkwso.tableau import make_tableau

EXPLICIT_EULER = make_tableau([[F(0)]], [F(1)], name="explicit-euler", exact=True)


class TestResiduals:
    def test_first_residual_vanishes_always(self):
        for t in catalog_all():
            assert all(abs(float(x)) <= 1e-14 for x in tau(t, 1))

    def test_backward_euler_second_residual(self):
        # A c - c^2/2 = 1 - 1/2, evaluated by hand
        t = catalog_scheme("backward-euler")
        assert tau(t, 2) == [F(1, 2)]

    def test_implicit_midpoint_second_residual(self):
        # 1/4 - 1/8 by hand
        t = catalog_scheme("implicit-midpoint")
        assert tau(t, 2) == [F(1, 8)]

    def test_residual_set(self):
        t = catalog_scheme("backward-euler")
        rs = [tuple(tau(t, k)) for k in range(1, 4)]
        assert len(rs) == 3
        assert rs[0] == (F(0),)
        assert rs[1] == (F(1, 2),)


class TestSimplifyingAssumptions:
    def test_backward_euler_B(self):
        q1, _ = stage_order_components(catalog_scheme("backward-euler"))
        assert q1 >= 1
        assert not q1 >= 2  # b.c = 1 != 1/2

    def test_any_consistent_scheme_has_C1(self):
        for t in catalog_all():
            assert stage_order_components(t)[1] >= 1

    def test_implicit_midpoint_B2(self):
        assert stage_order_components(catalog_scheme("implicit-midpoint"))[0] >= 2

    def test_stage_order_components(self):
        q1, q2 = stage_order_components(catalog_scheme("trapezoidal"))
        assert (q1, q2) == (2, 2)
        assert min(stage_order_components(catalog_scheme("gauss2"))) == 2
        # explicit Euler: every residual vanishes
        assert stage_order_components(EXPLICIT_EULER)[1] == math.inf


class TestClassicalOrder:
    def test_backward_euler_order_one(self):
        assert classical_order(catalog_scheme("backward-euler")) == 1

    def test_implicit_midpoint_order_two(self):
        # fails b.c^2 = 1/3 at order 3
        assert classical_order(catalog_scheme("implicit-midpoint")) == 2

    def test_three_stage_family_order_three(self):
        assert classical_order(catalog_scheme("wso3-p3-s3-a0.5-minus")) == 3
        assert classical_order(catalog_scheme("wso3-p3-s3-a0.5-plus")) == 3

    def test_gauss2_order_four(self):
        assert classical_order(catalog_scheme("gauss2")) == 4

    def test_float_order_conditions_scale_with_their_terms(self):
        # Kutta's explicit order-3 family at c2 = 1e-8, c3 = 1: b1 and b2
        # are about -/+1.7e7, so sum(b) = 1 rounds by ~1e-9 while every
        # condition holds exactly in the rational original
        c2, c3 = F(1, 10**8), F(1)
        a32 = c3 * (c3 - c2) / (c2 * (2 - 3 * c2))
        b2 = (2 - 3 * c3) / (6 * c2 * (c2 - c3))
        b3 = (2 - 3 * c2) / (6 * c3 * (c3 - c2))
        A = [[0, 0, 0], [c2, 0, 0], [c3 - a32, a32, 0]]
        b = [1 - b2 - b3, b2, b3]
        exact = make_tableau(A, b, name="kutta3", exact=True)
        assert classical_order(exact) == 3
        twin = make_tableau(
            [[float(x) for x in row] for row in A],
            [float(x) for x in b],
            name="kutta3",
            exact=False,
        )
        assert classical_order(twin) == 3



class TestWso:
    def test_backward_euler(self):
        # b tau2 = 1/2 != 0
        assert wso(catalog_scheme("backward-euler")) == 1

    def test_two_stage_family_both_signs(self):
        assert wso(catalog_scheme("wso3-p2-s2-minus")) == 3
        assert wso(catalog_scheme("wso3-p2-s2-plus")) == 3

    def test_explicit_euler_infinite(self):
        assert math.isinf(wso(EXPLICIT_EULER))
        assert classical_order(EXPLICIT_EULER) == 1

    def test_kcap_truncates(self):
        assert wso(catalog_scheme("wso3-p2-s2-minus"), kcap=2) == 2

    def test_stage_order_bounds_wso_catalogwide(self):
        for t in catalog_all():
            assert min(stage_order_components(t)) <= wso(t)


class TestSubspaces:
    def test_K1_trivial(self):
        for t in catalog_all():
            assert space_K(t, 1).dim == 0

    def test_Y_backward_euler(self):
        Y = space_Y(catalog_scheme("backward-euler"))
        assert Y.dim == 1
        assert Y.basis == ((F(1),),)

    def test_K3_of_two_stage_family_is_2c_minus_e(self):
        t = catalog_scheme("wso3-p2-s2-minus")
        K3 = space_K(t, 3)
        assert K3.dim == 1
        assert K3.contains([2 * ci - 1.0 for ci in t.c])

    def test_dims_match_brute_force_rank(self):
        for t in random_suite(80, smax=4, seed=77):
            m = saturation_index(t)
            assert space_K(t, m).dim == brute_force_rank(
                brute_force_K_generators(t, m)
            )
            assert space_Y(t).dim == brute_force_rank(brute_force_Y_generators(t))

    def test_saturation(self):
        for t in catalog_all():
            mstar = saturation_index(t)
            K, K3 = space_K(t, mstar), space_K(t, mstar + 3)
            assert K.dim == K3.dim
            assert all(K.contains(v) for v in K3.basis)
            assert all(K3.eliminator().contains(v) for v in K.basis)


class TestOrthogonality:
    def test_two_stage_family(self):
        rep = verify_wso_orthogonality(catalog_scheme("wso3-p2-s2-minus"))
        assert (rep.dim_Y, rep.dim_K) == (1, 1)
        assert rep.dim_sum_ok and rep.consistent

    def test_backward_euler(self):
        rep = verify_wso_orthogonality(catalog_scheme("backward-euler"))
        assert (rep.dim_Y, rep.dim_K) == (1, 0)
        assert rep.consistent

    def test_three_stage_family(self):
        rep = verify_wso_orthogonality(catalog_scheme("wso3-p3-s3-a0.5-minus"))
        assert (rep.dim_Y, rep.dim_K) == (2, 1)
        assert rep.dim_Y + rep.dim_K <= 3

    def test_routes_agree_on_random_suite(self):
        for t in random_suite(60, smax=5, seed=5150):
            rep = verify_wso_orthogonality(t)
            assert rep.q_algebraic == rep.q_subspace
            assert rep.dim_sum_ok


class TestAlbrecht:
    def test_implicit_midpoint(self):
        ok, viol = check_albrecht(catalog_scheme("implicit-midpoint"), p=2)
        assert ok and not viol

    def test_three_stage_family_p3(self):
        ok, _ = check_albrecht(catalog_scheme("wso3-p3-s3-a0.5-minus"), p=3)
        assert ok

    def test_backward_euler_vacuous(self):
        ok, viol = check_albrecht(catalog_scheme("backward-euler"), p=1)
        assert ok and viol == []
