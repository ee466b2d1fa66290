"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines in real time.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np
import pytest

from helpers import random_suite

from rkwso.barriers import NAME_DIRK_WSO_ORDER_BUDGET, barrier_report
from rkwso.catalog import catalog_all, catalog_scheme
from rkwso.construct import ConstructionSpec, generic_search, solve_branches
from rkwso.minpoly import char_poly, min_poly_on_subspace, poly_P, poly_Q
from rkwso.orders import (
    classical_order,
    space_K,
    space_Y,
    wso,
    wso_via_subspaces,
)
from rkwso.poly import Polynomial, RationalFunction
from rkwso.scalars import EXACT, FLOAT
from rkwso.stability import (
    expand_in_basis,
    hankel_det,
    hankel_det_formula,
    lambda_subleading,
    order_vs_exp,
    ortho_basis,
    stability_from_alpha,
    stability_function,
    wso_via_wtilde,
)
from rkwso.prothero import estimate_order


@contextmanager
def criterion(number, description, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number} FAIL: {description} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} PASS: {description} ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


def test_criterion_1_invariant_subspace_polynomials():
    with criterion(1, "confluent 4x4 invariant-subspace polynomials", 1.0):
        A = [[F(1), F(0), F(0), F(0)],
             [F(1), F(1), F(0), F(0)],
             [F(2), F(-1), F(1), F(0)],
             [F(-2), F(0), F(1), F(2)]]
        U = [[F(1), F(0), F(0), F(1)],
             [F(0), F(1), F(1), F(0)],
             [F(1), F(-1), F(1), F(-1)]]
        v = [F(1), F(1), F(-1), F(-1)]
        p = min_poly_on_subspace(A, U, EXACT)
        q = min_poly_on_subspace([list(r) for r in zip(*A)], [v], EXACT)
        # p = (x-1)^3, q = (x-2), exact
        assert p == Polynomial([F(-1), F(3), F(-3), F(1)], EXACT)
        assert q == Polynomial([F(-2), F(1)], EXACT)
        assert p * q == char_poly(A, EXACT)


def test_criterion_2_two_stage_family_reproduction():
    with criterion(2, "two-stage (2,2,3) family, both signs", 1.0):
        target_R = RationalFunction(
            Polynomial([1.0, 0.5], FLOAT), Polynomial([1.0, -0.5], FLOAT)
        )
        for sign in ("minus", "plus"):
            t = catalog_scheme(f"wso3-p2-s2-{sign}")
            assert t.s == 2
            assert classical_order(t) == 2
            assert wso(t) == 3
            R = stability_function(t)
            # coefficient agreement via cross-multiplication
            diff = R.num * target_R.den - target_R.num * R.den
            assert all(abs(c) <= 1e-12 for c in diff.coeffs)
            P = poly_P(t)
            Q = poly_Q(t)
            assert P.degree == 1 and abs(-P.coeffs[0] - float(t.a(0, 0))) <= 1e-12
            assert Q.degree == 1 and abs(-Q.coeffs[0] - 0.5) <= 1e-12
            K3 = space_K(t, 3)
            assert K3.dim == 1
            u = np.array(K3.basis[0], dtype=float)
            w = np.array([2 * float(ci) - 1.0 for ci in t.c])
            cos_angle = abs(u @ w) / (np.linalg.norm(u) * np.linalg.norm(w))
            assert math.sqrt(max(0.0, 1.0 - cos_angle ** 2)) <= 1e-10


def test_criterion_3_three_stage_family_reproduction():
    with criterion(3, "three-stage (3,3,3) family over a and signs", 5.0):
        from rkwso.construct import build_wso3_p3_s3

        basis = ortho_basis(2)
        q1p, q2p = basis.polys[1], basis.polys[2]
        for a in (0.25, 0.5, 2.0):
            for sign in ("minus", "plus"):
                data, result = solve_branches(a, sign)
                assert len(result.branches) == 3
                assert len(result.reducible_indices) == 2
                t = build_wso3_p3_s3(a, sign)
                assert (t.s, classical_order(t), wso(t)) == (3, 3, 3)
                assert float(t.a(2, 2)) == (3 * a - 2) / (6 * (a - 1))
                half_a = F(a) / 2  # a is binary-exact here
                alpha1 = -float(q2p.evaluate(half_a)) / float(q1p.evaluate(half_a))
                num = Polynomial([12.0, 6 + 12 * alpha1, 1 + 6 * alpha1], FLOAT)
                den = Polynomial([12.0, 12 * alpha1 - 6, 1 - 6 * alpha1], FLOAT)
                R = stability_function(t)
                diff = R.num * den.scale(1.0 / 12.0) - num.scale(1.0 / 12.0) * R.den
                assert all(abs(c) <= 1e-10 for c in diff.coeffs)
                from rkwso.orders import tau

                t2 = np.array([float(x) for x in tau(t, 2)])
                t3 = np.array([float(x) for x in tau(t, 3)])
                sine = np.linalg.norm(np.cross(t2, t3)) / (
                    np.linalg.norm(t2) * np.linalg.norm(t3)
                )
                assert sine <= 1e-10
                b = np.array([float(x) for x in t.b])
                c = np.array([float(x) for x in t.c])
                assert abs(b @ c ** 2 - 1.0 / 3.0) <= 1e-12


def test_criterion_4_hankel_and_basis_suite():
    with criterion(4, "Hankel determinants, recursion, basis displays", 1.0):
        for n in range(1, 9):
            for m in range(0, 3):
                assert hankel_det(n, m) == hankel_det_formula(n, m)
        for n in range(2, 9):
            for m in range(0, 3):
                lhs = hankel_det_formula(n, m) * hankel_det_formula(n - 2, m + 2)
                rhs = hankel_det_formula(n - 1, m + 2) * hankel_det_formula(
                    n - 1, m
                ) - hankel_det_formula(n - 1, m + 1) ** 2
                assert lhs == rhs
        ob = ortho_basis(3)
        assert ob.polys[2] == Polynomial([F(1, 12), F(-1, 2), F(1)], EXACT)
        assert ob.polys[3] == Polynomial(
            [F(-1, 120), F(1, 10), F(-1, 2), F(1)], EXACT
        )
        assert ob.zetas[1] == F(-1, 12)
        for n in range(1, 9):
            assert lambda_subleading(n, 1) == F(-1, 2)


def test_criterion_5_stability_route_equivalence():
    with criterion(5, "determinant route equals basis route for R(z)", 2.0):
        checked = 0
        for t in catalog_all():
            R = stability_function(t)
            p = order_vs_exp(R)
            d = space_Y(t).dim
            if p < d:
                continue
            Q = poly_Q(t)
            alphas = expand_in_basis(Q, ortho_basis(max(d, 1)))
            R2 = stability_from_alpha(alphas, d, p, t.backend)
            if t.exact:
                assert R.num == R2.num and R.den == R2.den
            else:
                diff = R.num * R2.as_float().den - R2.as_float().num * R.den
                scale = max(1.0, max(abs(c) for c in R.num.coeffs))
                assert all(abs(c) <= 1e-8 * scale for c in diff.coeffs)
            checked += 1
        assert checked >= 7  # every current catalog member qualifies


def test_criterion_6_barrier_property_suite():
    with criterion(6, "1000 random DIRKs + catalog violate no barrier", 30.0):
        pool = random_suite(1000, smax=5)
        for t in pool + catalog_all():
            rep = barrier_report(t)
            bad = rep.violations()
            assert not bad, (t.name, [e.name for e in bad])


def test_criterion_7_wso_equivalence_oracle():
    with criterion(7, "three WSO routes agree on 1000 random DIRKs", 60.0):
        pool = random_suite(1000, smax=5)
        for t in pool:
            q = wso(t)
            assert wso_via_subspaces(t) == q, t.name
            assert wso_via_wtilde(t) == q, t.name


def test_criterion_8_order_reduction_exhibit():
    with criterion(8, "semi-stiff order-reduction regression", 10.0):
        high = catalog_scheme("wso3-p2-s2-minus")
        ref = catalog_scheme("sdirk2-wso1")
        r_high = estimate_order(high, "cos", "semi-stiff", z=-10.0, T=1.0)
        assert r_high.fitted_order >= 1.8
        r_ref = estimate_order(ref, "cos", "semi-stiff", z=-10.0, T=1.0)
        assert r_ref.fitted_order <= 1.5
        for t in (high, ref):
            r = estimate_order(t, "cos", "classical", T=1.0)
            assert r.fitted_order >= 1.8


def test_criterion_9_infeasible_target_detection():
    with criterion(9, "generic search rejects (2,3,3) citing the barrier", 5.0):
        outcome = generic_search(ConstructionSpec(targets=(2, 3, 3)))
        assert outcome.tableau is None
        assert not outcome.feasible
        assert NAME_DIRK_WSO_ORDER_BUDGET in outcome.diagnostic
