"""Tests of the benchmark's oracle: it accepts rkwso's reports on the catalog
and rejects them once one coefficient of the scheme is perturbed.

    PYTHONPATH=src python3 -m pytest -q bench/test_oracle.py
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
import oracle  # noqa: E402
from rkwso import analyze, build_wso3_p3_s3, catalog_names, catalog_scheme, report_dict  # noqa: E402


def _abc(t):
    return [list(r) for r in t.A], list(t.b), list(t.c)


def _perturbed(A, b, exact):
    """Every copy of (A, b, c) with one entry of A or b moved."""
    delta = Fraction(1, 10) if exact else 1e-5
    s = len(b)
    for i in range(s):
        for j in range(s):
            A2 = [row[:] for row in A]
            A2[i][j] += delta
            yield f"a{i + 1}{j + 1}", A2, b, [sum(row) for row in A2]
        b2 = b[:]
        b2[i] += delta
        yield f"b{i + 1}", A, b2, [sum(row) for row in A]


def test_catalog_reports_pass():
    for name in catalog_names():
        t = catalog_scheme(name)
        A, b, c = _abc(t)
        assert oracle.check_report(A, b, c, report_dict(analyze(t)), t.exact) == [], name


def test_one_perturbed_entry_is_rejected():
    for name in catalog_names():
        t = catalog_scheme(name)
        A, b, _ = _abc(t)
        report = report_dict(analyze(t))
        for where, A2, b2, c2 in _perturbed(A, b, t.exact):
            assert oracle.check_report(A2, b2, c2, report, t.exact), (name, where)


def test_exact_definitions_on_a_known_scheme():
    # sdirk2-wso1: b^T tau^(2) != 0, so WSO 1 and K_1 = span{tau^(1)} = {0};
    # b^T e = 1 and b^T A e = 1/2, but b^T A^2 e = 4/25 != 1/6, so p_linear 2
    t = catalog_scheme("sdirk2-wso1")
    facts = oracle.exact_facts(*_abc(t))
    assert (facts.q_wso, facts.dim_Y, facts.dim_Kq, facts.p_linear) == (1, 2, 0, 2)
    be = oracle.exact_facts([[Fraction(1)]], [Fraction(1)], [Fraction(1)])
    assert (be.q_wso, be.n_c, be.m_star, be.p_linear) == (1, 1, 2, 1)


def test_float_twins_agree_with_exact_originals():
    for name, A, b in corpus.exact_round(3, 0)[:30]:
        Af, bf = corpus.twin(A, b)
        exact = oracle.exact_facts(A, b, [sum(r) for r in A])
        approx = oracle.float_facts(Af, bf, [sum(r) for r in Af])
        assert exact.integers() == approx.integers(), name


def test_twin_rule_rejects_a_changed_integer():
    t = catalog_scheme("sdirk2-wso1")
    A, b, c = _abc(t)
    report = report_dict(analyze(t))
    facts = oracle.exact_facts(A, b, c)
    report["orders"]["q_wso"] = 2
    assert oracle.compare_integers(facts, report, "twin")


def test_three_stage_family_check():
    t = build_wso3_p3_s3(0.5, "minus")
    tab = {"A": [list(r) for r in t.A], "b": list(t.b)}
    assert checks.check_wso_family(tab, 3, 3, a=0.5) == []
    assert checks.check_wso_family(tab, 3, 3, a=0.6)  # wrong a33
    for i, j in ((1, 0), (2, 0), (2, 1)):
        bad = {"A": [row[:] for row in tab["A"]], "b": tab["b"]}
        bad["A"][i][j] += 1e-5
        assert checks.check_wso_family(bad, 3, 3, a=0.5), (i, j)


def test_study_checks():
    t = catalog_scheme("gauss2")
    A, b, _ = _abc(t)
    orders = checks.scheme_orders(A, b, False)
    assert orders[0] == 4
    dts = [2.0 ** -k for k in range(4, 8)]
    assert checks.check_study(A, b, orders, "classical", dts, [1e-8] * 4, 4.05) == []
    assert checks.check_study(A, b, orders, "classical", dts, [1e-8] * 4, 3.5)
    assert checks.check_study(A, b, orders, "classical", dts, [math.nan] * 4, 4.0)
    # an unstable stiff study passes only when its error grows
    unstable = catalog_scheme("wso3-p3-s3-a0.5-minus")
    A, b, _ = _abc(unstable)
    orders = checks.scheme_orders(A, b, False)
    grow = [1.0, 10.0, 100.0, math.inf]
    assert checks.check_study(A, b, orders, "stiff", dts, grow, -5.0, lam=-1e6) == []
    shrink = [100.0, 10.0, 1.0, 0.1]
    assert checks.check_study(A, b, orders, "stiff", dts, shrink, 5.0, lam=-1e6)


def test_classical_order_by_trees():
    assert [len(checks.trees(n)) for n in range(1, 7)] == [1, 1, 2, 4, 9, 20]
    for name, order in (("backward-euler", 1), ("trapezoidal", 2), ("gauss2", 4)):
        A, b, _ = _abc(catalog_scheme(name))
        assert checks.classical_order(A, b) == order, name
