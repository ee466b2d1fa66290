"""Scheme constructors: the closed-form two-stage and three-stage families,
and the generic target search."""

import math

import numpy as np
import pytest

from rkwso.construct import (
    ConstructionError,
    ConstructionSpec,
    DegenerateParameterError,
    _damped_newton,
    _search_system,
    build_wso3_p2_s2,
    build_wso3_p3_s3,
    degenerate_parameters,
    eigenvalue_sign_note,
    feasibility_barriers,
    generic_search,
    solve_branches,
)
from rkwso.barriers import NAME_DIRK_WSO_ORDER_BUDGET
from rkwso.orders import classical_order, tau, wso
from rkwso.poly import Polynomial, RationalFunction
from rkwso.scalars import FLOAT
from rkwso.stability import order_vs_exp, stability_function
from rkwso.tableau import s_reducibility

SQRT2 = math.sqrt(2.0)


class TestTwoStageFamily:
    def test_minus_sign_entries(self):
        t = build_wso3_p2_s2("minus")
        # a11 = 1 - sqrt(2)/2 (binary64; the subtraction is exact by Sterbenz)
        assert float(t.a(0, 0)) == 1.0 - SQRT2 / 2.0
        assert abs(float(t.a(0, 0)) - 0.2928932188134524755) <= 1e-15
        assert float(t.a(1, 0)) == 0.5 + SQRT2 / 2.0
        assert float(t.b[0]) == 0.5 + SQRT2 / 4.0

    def test_left_eigenvector_relation(self):
        # b^T A = (1/2) b^T for either sign
        for sign in ("plus", "minus"):
            t = build_wso3_p2_s2(sign)
            bA = np.array([float(x) for x in t.b]) @ np.array(
                [[float(x) for x in row] for row in t.A]
            )
            assert np.allclose(bA, 0.5 * np.array([float(x) for x in t.b]), atol=1e-15)

    def test_orders_both_signs(self):
        for sign in ("plus", "minus"):
            t = build_wso3_p2_s2(sign)
            assert wso(t) == 3
            assert classical_order(t) == 2

    def test_bad_sign_rejected(self):
        with pytest.raises(ConstructionError):
            build_wso3_p2_s2("both")


class TestThreeStageFamily:
    @pytest.mark.parametrize("a", [0.25, 0.5, 2.0])
    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_three_branches_exactly_one_irreducible(self, a, sign):
        _, result = solve_branches(a, sign)
        assert len(result.branches) == 3
        assert len(result.reducible_indices) == 2
        assert result.irreducible_index >= 0

    @pytest.mark.parametrize("a", [0.25, 0.5, 2.0])
    def test_rejected_branches_match_reducible_structures(self, a):
        data, result = solve_branches(a, "minus")
        a11, a21, a22, a33 = (
            data["a11"],
            data["a21"],
            data["a22"],
            data["a33"],
        )
        patterns = {
            "first-column": (a11 - a33, 0.0),
            "row-copy": (a21, a22 - a33),
        }
        seen = set()
        for idx in result.reducible_indices:
            a31, a32 = result.branches[idx]
            for label, (p1, p2) in patterns.items():
                if abs(a31 - p1) <= 1e-7 and abs(a32 - p2) <= 1e-7:
                    seen.add(label)
        assert seen == {"first-column", "row-copy"}

    @pytest.mark.parametrize("a", [0.25, 0.5, 2.0])
    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_constructed_scheme_properties(self, a, sign):
        t = build_wso3_p3_s3(a, sign)
        assert s_reducibility(t) is None
        assert wso(t) == 3
        assert classical_order(t) == 3
        assert order_vs_exp(stability_function(t)) == 3
        # last diagonal entry exactly as typed
        assert float(t.a(2, 2)) == (3 * a - 2) / (6 * (a - 1))
        # residual vectors tau2 and tau3 are parallel
        t2 = np.array([float(x) for x in tau(t, 2)])
        t3 = np.array([float(x) for x in tau(t, 3)])
        sine = np.linalg.norm(np.cross(t2, t3)) / (
            np.linalg.norm(t2) * np.linalg.norm(t3)
        )
        assert sine <= 1e-10
        # quadrature condition that the construction implies
        b = np.array([float(x) for x in t.b])
        c = np.array([float(x) for x in t.c])
        assert abs(b @ c ** 2 - 1.0 / 3.0) <= 1e-12

    def test_leading_block_is_scaled_two_stage_matrix(self):
        # 20 parameter samples across (0, 2/3) and (1, 3), alternating signs
        lows = [0.05 + 0.06 * i for i in range(10)]
        highs = [1.1 + 0.2 * i for i in range(10)]
        for idx, a in enumerate(lows + highs):
            sign = "minus" if idx % 2 == 0 else "plus"
            t3 = build_wso3_p3_s3(a, sign)
            t2 = build_wso3_p2_s2(sign)
            for i in range(2):
                for j in range(2):
                    assert float(t3.a(i, j)) == pytest.approx(
                        a * float(t2.a(i, j)), abs=1e-14, rel=1e-14
                    )
            assert float(t3.a(2, 2)) == (3 * a - 2) / (6 * (a - 1))
            assert eigenvalue_sign_note(a)

    def test_stability_matches_alpha_formula(self):
        from fractions import Fraction as F

        from rkwso.stability import ortho_basis

        for a in (0.25, 0.5, 2.0):
            t = build_wso3_p3_s3(a, "minus")
            basis = ortho_basis(2)
            q1, q2 = basis.polys[1], basis.polys[2]
            alpha1 = -float(q2.evaluate(a / 2)) / float(q1.evaluate(a / 2))
            num = Polynomial([12.0, 6 + 12 * alpha1, 1 + 6 * alpha1], FLOAT)
            den = Polynomial([12.0, 12 * alpha1 - 6, 1 - 6 * alpha1], FLOAT)
            target = RationalFunction(num, den)
            assert stability_function(t).equals(target)

    def test_invalid_parameters_rejected(self):
        for bad in (0.0, 1.0, 2.0 / 3.0):
            with pytest.raises(ConstructionError):
                build_wso3_p3_s3(bad, "minus")


def _k(sign):
    return 1 + (SQRT2 / 2 if sign == "plus" else -SQRT2 / 2)


def _ties(sign):
    """Roots of a33 = a11, that is 6 k a (a - 1) = 3a - 2."""
    k = _k(sign)
    return [float(r) for r in np.roots([6 * k, -(6 * k + 3), 2])]


def _degenerate(sign):
    """Degenerate parameters of the (3,3,3) family from their closed form:
    the poles a = 1 -/+ 1/sqrt(3), the zeros of 3a^2 - 6a + 2."""
    return sorted([1 - 1 / math.sqrt(3), 1 + 1 / math.sqrt(3)])


def _c3_star(a):
    return (3 * a - 2) * (a * a - 4 * a + 2) / (2 * (a - 1) * (3 * a * a - 6 * a + 2))


def _assert_sweep_checks(t, a):
    assert s_reducibility(t) is None, a
    assert wso(t) == 3, a
    assert classical_order(t) == 3, a


# 66 points in [0.01, 0.66] and 99 in [1.01, 2.99], per sign
SWEEP = [float(a) for a in np.linspace(0.01, 0.66, 66)] + [
    float(a) for a in np.linspace(1.01, 2.99, 99)
]


class TestThreeStageClosedForm:
    @pytest.mark.parametrize("sign", ["minus", "plus"])
    def test_third_abscissa_is_c3_star(self, sign):
        for a in (0.05, 0.3, 0.5, 0.6, 1.2, 1.5, 2.0, 2.9):
            t = build_wso3_p3_s3(a, sign)
            row_sum = sum(float(x) for x in t.A[2])
            assert row_sum == pytest.approx(_c3_star(a), rel=1e-13, abs=1e-13)

    def test_half_matches_exact_entries(self):
        t = build_wso3_p3_s3(0.5, "minus")
        assert abs(float(t.a(2, 2)) - 1 / 6) <= 1e-15
        assert abs(float(t.b[2]) + 1 / 21) <= 1e-15
        assert abs(float(t.a(2, 0)) - (23 - 20 * SQRT2) / 12) <= 1e-15
        t = build_wso3_p3_s3(0.5, "plus")
        assert abs(float(t.a(2, 2)) - 1 / 6) <= 1e-15
        assert abs(float(t.b[2]) + 1 / 21) <= 1e-15

    @pytest.mark.parametrize("a", [0.25, 0.5, 2.0])
    @pytest.mark.parametrize("sign", ["minus", "plus"])
    def test_reducible_branches_are_exact_expressions(self, a, sign):
        data, result = solve_branches(a, sign)
        reducible = {result.branches[i] for i in result.reducible_indices}
        assert reducible == {
            (data["a11"] - data["a33"], 0.0),
            (data["a21"], data["a22"] - data["a33"]),
        }


class TestThreeStageSweep:
    @pytest.mark.parametrize("sign", ["minus", "plus"])
    def test_degenerate_parameters_match_closed_forms(self, sign):
        assert degenerate_parameters(sign) == pytest.approx(
            _degenerate(sign), rel=1e-14
        )
        for a in degenerate_parameters(sign):
            assert 3 * a * a - 6 * a + 2 == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("sign", ["minus", "plus"])
    def test_grid_builds_or_names_degeneracy(self, sign):
        # every grid point builds, 1.5757 at 0.0016 from the pole 1 + 1/sqrt(3)
        # included; the named errors lie within 6e-4 of a pole
        for a in SWEEP:
            _assert_sweep_checks(build_wso3_p3_s3(a, sign), a)

    @pytest.mark.parametrize("index", range(2))
    @pytest.mark.parametrize("sign", ["minus", "plus"])
    def test_degenerate_parameter_is_named(self, sign, index):
        a = _degenerate(sign)[index]
        named = "is the degenerate parameter"
        with pytest.raises(DegenerateParameterError, match=named):
            build_wso3_p3_s3(a, sign)
        with pytest.raises(DegenerateParameterError):
            solve_branches(a, sign)

    @pytest.mark.parametrize("sign", ["minus", "plus"])
    def test_next_to_a_pole_builds_or_names_it(self, sign):
        pole = 1 + 1 / math.sqrt(3)
        for a in (pole - 1e-3, pole + 1e-3):
            _assert_sweep_checks(build_wso3_p3_s3(a, sign), a)
        # entries near 1e17: the float confirmation cannot hold there
        with pytest.raises(DegenerateParameterError, match="fails confirmation"):
            build_wso3_p3_s3(pole + 1e-6, sign)

    @pytest.mark.parametrize("index", range(2))
    @pytest.mark.parametrize("sign", ["minus", "plus"])
    def test_tie_parameter_builds(self, sign, index):
        # where a33 = a11 the two third-row equations coincide, yet the
        # closed form gives an admissible scheme
        a = _ties(sign)[index]
        assert (3 * a - 2) / (6 * (a - 1)) == pytest.approx(_k(sign) * a, rel=1e-12)
        _assert_sweep_checks(build_wso3_p3_s3(a, sign), a)


class TestGenericSearch:
    def test_infeasible_targets_cite_the_barrier(self):
        outcome = generic_search(ConstructionSpec(targets=(2, 3, 3)))
        assert outcome.tableau is None
        assert not outcome.feasible
        assert NAME_DIRK_WSO_ORDER_BUDGET in outcome.diagnostic

    def test_feasibility_helper(self):
        ok, _ = feasibility_barriers(2, 2, 3)
        assert ok
        bad, diag = feasibility_barriers(2, 3, 3)
        assert not bad and NAME_DIRK_WSO_ORDER_BUDGET in diag

    def test_recovers_two_stage_family(self):
        outcome = generic_search(ConstructionSpec(targets=(2, 2, 3)), n_starts=30)
        assert outcome.tableau is not None
        t = outcome.tableau
        assert wso(t) == 3
        assert order_vs_exp(stability_function(t)) == 2
        # the family is unique up to the sign branch: a22 = 1/2 and
        # a11 = 1 -/+ sqrt(2)/2
        assert float(t.a(1, 1)) == pytest.approx(0.5, abs=1e-8)
        assert min(
            abs(float(t.a(0, 0)) - (1 - SQRT2 / 2)),
            abs(float(t.a(0, 0)) - (1 + SQRT2 / 2)),
        ) <= 1e-8

    def test_finds_three_stage_family_member(self):
        outcome = generic_search(ConstructionSpec(targets=(3, 3, 3)), n_starts=40)
        assert outcome.tableau is not None
        t = outcome.tableau
        assert wso(t) == 3
        assert order_vs_exp(stability_function(t)) == 3
        # member of the parameterized family: a = 2 a22, a33 determined
        a = 2 * float(t.a(1, 1))
        expected_a33 = (3 * a - 2) / (6 * (a - 1))
        assert float(t.a(2, 2)) == pytest.approx(expected_a33, abs=1e-6)
        assert float(t.a(0, 0)) == pytest.approx(
            a * (1 - SQRT2 / 2), abs=1e-6
        ) or float(t.a(0, 0)) == pytest.approx(a * (1 + SQRT2 / 2), abs=1e-6)


def test_generic_search_honors_diagonal_seed():
    a11 = 1 - SQRT2 / 2
    outcome = generic_search(
        ConstructionSpec(targets=(2, 2, 3), diagonal_seed=(a11,)),
        n_starts=30,
    )
    assert outcome.tableau is not None
    t = outcome.tableau
    assert float(t.a(0, 0)) == pytest.approx(a11, abs=0.0)  # fixed, not solved
    assert wso(t) == 3


# targets of the search residual checks: the bench's feasible targets, the
# two-stage family with and without a seeded diagonal, and two s = 4 targets
RESIDUAL_TARGETS = [
    ((3, 3, 3), ()),
    ((3, 2, 3), ()),
    ((2, 2, 3), ()),
    ((2, 2, 3), (1 - SQRT2 / 2,)),
    ((4, 3, 4), ()),
    ((4, 3, 3), ()),
]


def _loop_residual(targets, diagonal_seed, x):
    """The search residual of one point as a plain loop, with `@` (BLAS gemv
    and ddot) for every product: the reference for the stacked residual."""
    s, p, q = targets
    A = np.zeros((s, s))
    idx = 0
    for i in range(1, s):
        for j in range(i):
            A[i, j] = x[idx]
            idx += 1
    for i, d in enumerate(diagonal_seed):
        A[i, i] = d
    for i in range(len(diagonal_seed), s):
        A[i, i] = x[idx]
        idx += 1
    b = x[idx : idx + s]
    c = A.sum(axis=1)
    taus = [A @ (c ** (k - 1)) - (c ** k) / k for k in range(2, q + 1)]
    res = []
    for v in taus:
        for i in range(q // 2):
            v = A @ v - A[i, i] * v
        res.extend(v)
    fact, Aje = 1.0, np.ones(s)
    for j in range(p):
        fact *= j + 1
        res.append(float(b @ Aje) - 1.0 / fact)
        Aje = A @ Aje
    row = b.copy()
    for _ in range(s):
        res.extend(float(row @ t) for t in taus)
        row = A.T @ row
    return np.array(res)


class TestStackedSearch:
    @pytest.mark.parametrize("targets,seed", RESIDUAL_TARGETS)
    def test_rows_do_not_depend_on_the_stack(self, targets, seed):
        n, _, residual = _search_system(*targets, seed)
        X = np.random.default_rng(11).uniform(-2.0, 2.0, size=(60, n))
        stacked = residual(X)
        for i in range(len(X)):
            assert np.array_equal(stacked[i], residual(X[i : i + 1])[0]), i
            assert np.array_equal(stacked[i], _loop_residual(targets, seed, X[i])), i

    def test_unpack_places_the_unknowns(self):
        _, unpack, _ = _search_system(3, 3, 3, (0.25,))
        A, b = unpack(np.arange(1.0, 9.0)[None])
        assert np.array_equal(A[0], [[0.25, 0, 0], [1, 4, 0], [2, 3, 5]])
        assert np.array_equal(b[0], [6, 7, 8])

    def test_newton_finds_a_known_root(self):
        # x0^2 = 2 and x0 x1 = 3, one row per point
        def fun(X):
            return np.stack([X[:, 0] ** 2 - 2.0, X[:, 0] * X[:, 1] - 3.0], axis=1)

        best, norm = _damped_newton(fun, [1.0, 1.0])
        assert best == pytest.approx([SQRT2, 3.0 / SQRT2], abs=1e-14)
        assert norm == np.max(np.abs(fun(best[None])[0])) <= 1e-15

    def test_newton_returns_the_best_point_and_two_calls_per_iteration(self):
        # x^2 + 1 has no real root; the first step lands next to its minimum
        # x = 0, from which no rung of the ladder lowers the residual
        calls = []

        def fun(X):
            calls.append(len(X))
            return X ** 2 + 1.0

        best, norm = _damped_newton(fun, [1.0])
        # the point and its neighbour, then the 40 rungs, in each of the two
        # iterations
        assert calls == [2, 40, 2, 40]
        assert abs(best[0]) < 1e-7
        assert norm == fun(best[None])[0, 0] < 1.0 + 1e-14
