"""Order-barrier checkers: applicability gating, values, sharpness."""

from fractions import Fraction as F

import pytest

from rkwso.barriers import (
    NAME_DIMK_UPPER,
    NAME_DIMK_UPPER_DIRK,
    NAME_DIMY_DIRK,
    NAME_DIMY_LOWER,
    NAME_DIRK_WSO_ORDER_BUDGET,
    NAME_K_LOWER_DIRK,
    NAME_K_MEMBER_C,
    NAME_K_MEMBER_E,
    NAME_K_SATURATION,
    NAME_P_DIVISIBILITY,
    NAME_P_ROOTS,
    NAME_Q_LAST_DIAG,
    NAME_STAGE_ORDER_WSO_BUDGET,
    NAME_WSO_CAP_NONZERO,
    NAME_WSO_CAP_ZERO,
    barrier_report,
)
from rkwso.catalog import catalog_all, catalog_scheme
from rkwso.scalars import Tolerances
from rkwso.tableau import make_tableau

EXPLICIT_EULER = make_tableau([[F(0)]], [F(1)], name="explicit-euler", exact=True)


def entry(report, name):
    e = report.entry(name)
    assert e is not None, f"no entry {name}"
    return e


class TestDimYBounds:
    def test_two_stage_family_sharp(self):
        rep = barrier_report(catalog_scheme("wso3-p2-s2-minus"))
        e = entry(rep, NAME_DIMY_LOWER)
        # floor((2+1+0)/2) = 1 <= dim Y = 1, sharp
        assert e.applicable and e.satisfied and e.sharp
        assert (e.lhs, e.rhs) == (1, 1)

    def test_backward_euler_sigma_one(self):
        rep = barrier_report(catalog_scheme("backward-euler"))
        e = entry(rep, NAME_DIMY_LOWER)
        # floor((1+1+1)/2) = 1 <= 1 with sigma = 1
        assert e.satisfied and (e.lhs, e.rhs) == (1, 1)
        assert rep.inputs["sigma"] == 1

    def test_three_stage_family_dirk_bound_sharp(self):
        rep = barrier_report(catalog_scheme("wso3-p3-s3-a0.5-minus"))
        e = entry(rep, NAME_DIMY_DIRK)
        # p = 3 <= dim Y + 1 - sigma = 2 + 1
        assert e.satisfied and e.sharp
        assert (e.lhs, e.rhs) == (3, 3)

    def test_gauss_skips_dirk_bound(self):
        rep = barrier_report(catalog_scheme("gauss2"))
        assert not entry(rep, NAME_DIMY_DIRK).applicable


class TestDimKBounds:
    def test_two_stage_family_bounds(self):
        rep = barrier_report(catalog_scheme("wso3-p2-s2-minus"))
        # general budget: dim K_q = 1 <= 2 - floor(3/2) = 1, sharp
        e = entry(rep, NAME_DIMK_UPPER)
        assert e.applicable and e.satisfied and e.sharp
        assert e.rhs == 1
        # dirk budget 2 - 2 - 1 + 0 < 0: no assertion possible
        e2 = entry(rep, NAME_DIMK_UPPER_DIRK)
        assert not e2.applicable
        assert "no scheme" in e2.reason

    def test_implicit_midpoint_general_budget(self):
        # dim K_q = 0 <= 1 - floor(3/2) = 0, sharp; the dirk budget is
        # negative and skipped
        rep = barrier_report(catalog_scheme("implicit-midpoint"))
        e = entry(rep, NAME_DIMK_UPPER)
        assert e.applicable and e.satisfied and e.rhs == 0
        assert not entry(rep, NAME_DIMK_UPPER_DIRK).applicable

    def test_gauss2_zero_budget(self):
        rep = barrier_report(catalog_scheme("gauss2"))
        e = entry(rep, NAME_DIMK_UPPER)
        # fully implicit: dim K_q = 0 <= 2 - floor(5/2) = 0
        assert e.applicable and e.satisfied
        assert e.rhs == 0
        assert not entry(rep, NAME_DIMK_UPPER_DIRK).applicable

    def test_skipped_for_infinite_wso(self):
        rep = barrier_report(EXPLICIT_EULER)
        assert not entry(rep, NAME_DIMK_UPPER).applicable
        assert not entry(rep, NAME_DIMK_UPPER_DIRK).applicable


class TestKmLowerBounds:
    def test_two_stage_family_contains_ones(self):
        rep = barrier_report(catalog_scheme("wso3-p2-s2-minus"))
        e = entry(rep, NAME_K_MEMBER_E)
        assert e.applicable and e.satisfied

    def test_zero_abscissa_contains_c(self):
        rep = barrier_report(catalog_scheme("trapezoidal"))
        e = entry(rep, NAME_K_MEMBER_C)
        assert e.applicable and e.satisfied
        assert not entry(rep, NAME_K_MEMBER_E).applicable

    def test_saturation_catalogwide(self):
        for t in catalog_all():
            e = entry(barrier_report(t), NAME_K_SATURATION)
            assert e.satisfied

    def test_gedirk_kappa(self):
        rep = barrier_report(catalog_scheme("trapezoidal"))
        assert rep.inputs["kappa"] == 1
        e = entry(rep, NAME_K_LOWER_DIRK)
        assert e.applicable and e.satisfied

    def test_dirk_lower_bound_satisfied_catalogwide(self):
        for t in catalog_all():
            e = barrier_report(t).entry(NAME_K_LOWER_DIRK)
            if e.applicable:
                assert e.satisfied


class TestMainResults:
    def test_two_stage_family_budget_sharp(self):
        rep = barrier_report(catalog_scheme("wso3-p2-s2-minus"))
        e = entry(rep, NAME_DIRK_WSO_ORDER_BUDGET)
        # floor((3+0)/2) - 0 + 2 = 3 <= 2 + 1 - 0 = 3
        assert e.satisfied and e.sharp
        assert (e.lhs, e.rhs) == (3, 3)

    def test_three_stage_family_budget_sharp(self):
        rep = barrier_report(catalog_scheme("wso3-p3-s3-a0.5-minus"))
        e = entry(rep, NAME_DIRK_WSO_ORDER_BUDGET)
        # 1 + 3 <= 3 + 1
        assert e.satisfied and e.sharp
        assert (e.lhs, e.rhs) == (4, 4)

    def test_explicit_euler_infinite_clause(self):
        rep = barrier_report(EXPLICIT_EULER)
        e = entry(rep, NAME_WSO_CAP_ZERO)
        # q = inf forces p = 1
        assert e.applicable and e.satisfied and e.sharp
        assert not entry(rep, NAME_WSO_CAP_NONZERO).applicable

    def test_gauss_budget_sharp(self):
        rep = barrier_report(catalog_scheme("gauss2"))
        e = entry(rep, NAME_STAGE_ORDER_WSO_BUDGET)
        # q + floor((p+1)/2) = 2 + 2 = 4 = s + n_c
        assert e.satisfied and e.sharp

    def test_midpoint_budget_sharp(self):
        rep = barrier_report(catalog_scheme("implicit-midpoint"))
        e = entry(rep, NAME_STAGE_ORDER_WSO_BUDGET)
        assert e.satisfied and e.sharp
        assert (e.lhs, e.rhs) == (2, 2)


class TestPNecessaryConditions:
    def test_two_stage_family_a11_root(self):
        rep = barrier_report(catalog_scheme("wso3-p2-s2-minus"))
        e = entry(rep, NAME_P_ROOTS)
        assert e.applicable and e.satisfied
        e2 = entry(rep, NAME_P_DIVISIBILITY)
        assert e2.applicable and e2.satisfied

    def test_confluent_matrix_checker_does_not_fire_beyond_prefix(self):
        # lower-triangular 4x4 with c = (1, 2, 2, 1): the minimal polynomial
        # of the full matrix does not divide P, but only prefixes of distinct
        # abscissas may be tested; WSO here is infinite, so the root clauses
        # are skipped and nothing is reported violated
        A4 = [[F(1), F(0), F(0), F(0)],
              [F(1), F(1), F(0), F(0)],
              [F(2), F(-1), F(1), F(0)],
              [F(-2), F(0), F(1), F(2)]]
        b4 = [F(1), F(1), F(-1), F(-1)]
        t = make_tableau(A4, b4, name="confluent-cautionary", exact=True)
        rep = barrier_report(t)
        assert not rep.violations()
        e = entry(rep, NAME_P_ROOTS)
        assert not e.applicable  # wso is infinite here

    def test_three_stage_family_Q_root_at_last_diagonal(self):
        rep = barrier_report(catalog_scheme("wso3-p3-s3-a0.5-minus"))
        e = entry(rep, NAME_Q_LAST_DIAG)
        assert e.applicable and e.satisfied

    def test_dj_reducible_scheme_skips_Q_root(self):
        t = make_tableau(
            [[F(1, 2), F(0)], [F(1), F(1, 3)]], [F(1), F(0)], exact=True
        )
        rep = barrier_report(t)
        assert not entry(rep, NAME_Q_LAST_DIAG).applicable


def test_no_catalog_scheme_violates_any_barrier():
    for t in catalog_all():
        rep = barrier_report(t)
        assert rep.violations() == [], t.name


class TestInputsAndTolerances:
    @pytest.mark.parametrize("tie, vanishes", [(1e-6, True), (None, False)])
    def test_checkers_agree_on_a_vanishing_abscissa(self, tie, vanishes):
        # c_1 = 1e-8 is zero under a tie tolerance of 1e-6, not under 1e-10
        t = make_tableau([[1e-8, 0.0], [0.25, 0.75]], [0.5, 0.5], exact=False)
        tol = Tolerances() if tie is None else Tolerances(abscissa_tie=tie)
        rep = barrier_report(t, tol)
        # check_Km_lower_bounds gates the abscissa membership on it ...
        assert entry(rep, NAME_K_MEMBER_C).applicable is vanishes
        assert entry(rep, NAME_K_MEMBER_E).applicable is not vanishes
        # ... and check_main_results picks the WSO cap by it
        assert entry(rep, NAME_WSO_CAP_ZERO).applicable is vanishes
        assert entry(rep, NAME_WSO_CAP_NONZERO).applicable is not vanishes
