"""Checks of constructed schemes, convergence studies and CLI output.

Built on the independent oracle: every expected value is computed here from
A, b and c, or from the definitions of the (2,2,3) and (3,3,3) families.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache

import numpy as np

import oracle

MAX_TREE_ORDER = 6
CLASSICAL_FIT = 0.2  # classical regime: |fitted - p| <= this
SEMI_STIFF_WSO3_MIN = 1.8  # WSO >= 3 keeps (about) its order at z = -10
SEMI_STIFF_WSO1_MAX = 1.5  # the WSO-1 exhibit drops towards first order
# the order-2, WSO-1 SDIRK whose R(-10) = 1: its semi-stiff errors are not
# damped, so its fitted order drops to its WSO
ORDER_REDUCTION_SCHEME = "sdirk2-wso1"


# ---------------------------------------------------------------------------
# rooted trees and classical order
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def trees(order):
    """Rooted trees with `order` nodes, each a sorted tuple of its subtrees."""
    if order == 1:
        return ((),)
    return tuple(sorted(set(_forests(order - 1, order - 1))))


def _forests(total, largest):
    """Sorted tuples of trees whose orders sum to `total`, none above `largest`."""
    if total == 0:
        yield ()
        return
    for n in range(min(total, largest), 0, -1):
        for tree in trees(n):
            for rest in _forests(total - n, n):
                yield tuple(sorted((tree,) + rest))


def _order(tree):
    return 1 + sum(_order(t) for t in tree)


def _density(tree):
    return _order(tree) * math.prod(_density(t) for t in tree)


def _stage_weights(tree, A, aA):
    """(phi, |phi|) with phi_i = prod over subtrees u of (A phi(u))_i."""
    s = A.shape[0]
    phi, mag = np.ones(s), np.ones(s)
    for sub in tree:
        p, m = _stage_weights(sub, A, aA)
        phi, mag = phi * (A @ p), mag * (aA @ m)
    return phi, mag


def classical_order(A, b):
    """Largest p <= MAX_TREE_ORDER meeting every tree condition up to p."""
    A, b = np.asarray(A, float), np.asarray(b, float)
    aA = np.abs(A)
    for order in range(1, MAX_TREE_ORDER + 1):
        for tree in trees(order):
            phi, mag = _stage_weights(tree, A, aA)
            target = 1.0 / _density(tree)
            if abs(b @ phi - target) > oracle.FLOAT_ZERO * max(np.abs(b) @ mag, target):
                return order - 1
    return MAX_TREE_ORDER


def stability_at(A, b, z):
    """R(z) = 1 + z b^T (I - zA)^{-1} e for a real or complex z."""
    A, b = np.asarray(A, float), np.asarray(b, float)
    s = len(b)
    return 1 + z * (b @ np.linalg.solve(np.eye(s) - z * A, np.ones(s)))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _floats(t):
    A = np.array([[float(x) for x in row] for row in t["A"]])
    b = np.array([float(x) for x in t["b"]])
    return A, b, A.sum(axis=1)


def tableau_dict(text):
    """A tableau file (rkwso's JSON format) as {"A", "b"} of floats."""
    doc = json.loads(text)
    return {
        "A": [[float(oracle.parse_scalar(x)) for x in row] for row in doc["A"]],
        "b": [float(oracle.parse_scalar(x)) for x in doc["b"]],
    }


def check_wso_family(t, stages, order, a=None):
    """A (2,2,3) or (3,3,3) family member: order conditions, WSO 3 by
    definition with scale-aware thresholds, and a33 = (3a-2)/(6(a-1))."""
    A, b, c = _floats(t)
    problems = []
    if len(b) != stages:
        return [f"{len(b)} stages, expected {stages}"]
    p = classical_order(A, b)
    if p < order:
        problems.append(f"classical order {p} < {order}")
    for tk, mag in oracle.float_taus(A, c, 3):
        if not oracle.float_wso_holds(A, b, tk, mag, stages):
            problems.append("b^T A^j tau^(k) != 0 for some j < s, k <= 3")
            break
    if a is not None:
        a33 = (3 * a - 2) / (6 * (a - 1))
        if abs(A[2, 2] - a33) > 1e-9 * max(1.0, abs(a33)):
            problems.append(f"a33 = {A[2, 2]!r}, expected {a33!r}")
    return problems


def check_search(targets, t, feasible, diagnostic, barrier_names):
    """A generic search returns a scheme with WSO q and p_linear p, or, for
    targets the DIRK budget floor(q/2) + p <= s + 1 excludes, none and the
    name of that barrier."""
    s, p, q = targets
    if q // 2 + p > s + 1:
        if t is not None or feasible:
            return [f"{targets} violates floor(q/2) + p <= s + 1 but was built"]
        if not any(name in diagnostic for name in barrier_names):
            return [f"diagnostic names no barrier: {diagnostic!r}"]
        return []
    if t is None:
        return [f"no scheme for feasible targets {targets}: {diagnostic!r}"]
    A, b, c = _floats(t)
    facts = oracle.float_facts(A, b, c)
    problems = []
    if (facts.s, facts.q_wso, facts.p_linear) != (s, q, p):
        problems.append(
            f"(s, q_wso, p_linear) = {(facts.s, facts.q_wso, facts.p_linear)}, expected {(s, q, p)}"
        )
    return problems


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


def scheme_orders(A, b, exact):
    """(classical order, WSO) of a catalog scheme by the oracle."""
    c = [sum(row) for row in A]
    return classical_order(A, b), oracle.facts_for(A, b, c, exact).q_wso


def check_study(A, b, orders, regime, dts, errors, fitted, lam=None, name=""):
    """Fitted orders against the scheme's orders; errors finite unless the
    stiff regime meets |R(lam dt)| > 1, where they must grow instead."""
    p, q = orders
    errors = [float(e) for e in errors]
    finite = all(math.isfinite(e) for e in errors)
    if regime == "stiff":
        unstable = any(abs(stability_at(A, b, lam * dt)) > 1.0 for dt in dts)
        if unstable:
            grows = not finite or errors[-1] > errors[0]
            return [] if grows else [f"{name}: |R| > 1 but the error does not grow"]
    if not finite:
        return [f"{name}: non-finite error in the {regime} regime"]
    if regime == "classical" and abs(fitted - p) > CLASSICAL_FIT:
        return [f"{name}: classical fit {fitted:.3f}, classical order {p}"]
    if regime == "semi-stiff":
        if q >= 3 and fitted < SEMI_STIFF_WSO3_MIN:
            return [f"{name}: semi-stiff fit {fitted:.3f} < {SEMI_STIFF_WSO3_MIN} at WSO {q}"]
        if name == ORDER_REDUCTION_SCHEME and fitted > SEMI_STIFF_WSO1_MAX:
            return [f"{name}: semi-stiff fit {fitted:.3f} > {SEMI_STIFF_WSO1_MAX} at WSO 1"]
    return []


def parse_csv(text):
    """(dts, errors, fitted) of `rkwso converge` output."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        raise ValueError("no CSV rows")
    return (
        [float(r["dt"]) for r in rows],
        [float(r["error"]) for r in rows],
        float(rows[0]["fitted_order"]),
    )
