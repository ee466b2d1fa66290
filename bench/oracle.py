"""Independent oracle for rkwso analysis reports.

Every property is computed here from its definition, from the coefficients
A, b and c alone: exact schemes in `fractions.Fraction`, float schemes in
numpy binary64 with thresholds scaled by the magnitudes of the terms that
are summed.  Nothing here imports rkwso.

`exact_facts` / `float_facts` give the integer results of a tableau;
`check_report` compares one report (the JSON-ready dict of
`rkwso.report_dict`) against them and against the polynomial identities the
report's P, Q, N, char and R(z) must satisfy.  Every check returns a list of
problems; an empty list means the report passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

INF = math.inf
SERIES_PMAX = 12  # the report's default `series_pmax`

# float thresholds, relative to the sum of the absolute values of the terms
FLOAT_ZERO = 1e-9
FLOAT_RANK = 1e-8
FLOAT_IDENTITY = 1e-7

EXACT_POINTS = (Fraction(1, 7), Fraction(-2, 3), Fraction(5, 2), Fraction(-9, 4))
FLOAT_POINTS = (0.3, -1.7, 2.9, -0.45)


@dataclass(frozen=True)
class Facts:
    """Integer results of one tableau by definition."""

    s: int
    n_c: int
    m_star: int
    q_wso: object  # int or INF
    dim_Y: int
    dim_Kq: int
    p_linear: int

    def integers(self):
        return {
            "q_wso": self.q_wso,
            "dim_Y": self.dim_Y,
            "dim_K_q": self.dim_Kq,
            "deg_Q": self.dim_Y,
            "p_linear": self.p_linear,
            "n_c": self.n_c,
        }


def parse_scalar(text):
    """Report number strings: `n` or `n/d` are exact, anything else float."""
    text = str(text)
    if any(ch in text for ch in ".eEn") and "/" not in text:
        return float(text)
    return Fraction(text)


def parse_q(value):
    return INF if value == "inf" else int(value)


def horner(coeffs, x):
    acc = 0 * x
    for a in reversed(coeffs):
        acc = acc * x + a
    return acc


# ---------------------------------------------------------------------------
# exact arithmetic
# ---------------------------------------------------------------------------


def _mv(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def _tmv(A, v):
    """A^T v."""
    n = len(A)
    return [sum(A[i][j] * v[i] for i in range(n)) for j in range(n)]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def exact_rank(vectors):
    """Rank by Gauss-Jordan row reduction over the rationals."""
    rows = [list(v) for v in vectors if any(x != 0 for x in v)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                f = rows[r][col] / lead
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def exact_det(M):
    M = [list(r) for r in M]
    n = len(M)
    d = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            d = -d
        d *= M[col][col]
        for r in range(col + 1, n):
            if M[r][col] != 0:
                f = M[r][col] / M[col][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return d


def exact_solve(M, rhs):
    n = len(M)
    aug = [list(r) + [x] for r, x in zip(M, rhs)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col] / aug[col][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] / aug[i][i] for i in range(n)]


def _exact_taus(A, c, kmax):
    return [
        [x - y / k for x, y in zip(_mv(A, [ci ** (k - 1) for ci in c]), [ci ** k for ci in c])]
        for k in range(1, kmax + 1)
    ]


def _left_rows(A, b, count):
    rows = [list(b)]
    for _ in range(count - 1):
        rows.append(_tmv(A, rows[-1]))
    return rows


def _right_krylov(A, v, count):
    out = [list(v)]
    for _ in range(count - 1):
        out.append(_mv(A, out[-1]))
    return out


def _k_dim_index(q, m_star):
    """The residual index whose K space the report's dim K_q describes."""
    if q == 0:
        return 0
    return m_star if math.isinf(q) else min(int(q), m_star)


def exact_facts(A, b, c):
    A = [[Fraction(x) for x in row] for row in A]
    b = [Fraction(x) for x in b]
    c = [Fraction(x) for x in c]
    s = len(b)
    n_c = len(set(c))
    m_star = 2 * n_c - (1 if any(x == 0 for x in c) else 0)
    taus = _exact_taus(A, c, m_star)
    rows = _left_rows(A, b, s)
    q = 0
    for k in range(1, m_star + 1):
        if all(_dot(row, taus[k - 1]) == 0 for row in rows):
            q = k
        else:
            break
    if q == m_star:
        q = INF
    m = _k_dim_index(q, m_star)
    K = [v for tk in taus[:m] for v in _right_krylov(A, tk, s)]
    p = 0
    power, fact = [Fraction(1)] * s, Fraction(1)
    for j in range(SERIES_PMAX + 1):
        fact /= j + 1
        if _dot(b, power) != fact:
            break
        p = j + 1
        power = _mv(A, power)
    return Facts(s, n_c, m_star, q, exact_rank(rows), exact_rank(K), min(p, SERIES_PMAX))


def _exact_identities(A, b, c, facts, report):
    problems = []
    A = [[Fraction(x) for x in row] for row in A]
    b = [Fraction(x) for x in b]
    c = [Fraction(x) for x in c]
    s = len(b)
    polys = {k: [parse_scalar(x) for x in v] for k, v in report["polynomials"].items()}
    Q, P = polys["Q"], polys["P"]
    if any(not isinstance(x, Fraction) for p in polys.values() for x in p):
        return ["exact report carries float polynomial coefficients"]
    # Q(A^T) b = 0
    acc = [Fraction(0)] * s
    for coef, v in zip(Q, _left_rows(A, b, len(Q))):
        acc = [a + coef * x for a, x in zip(acc, v)]
    if any(x != 0 for x in acc):
        problems.append("Q(A^T) b != 0")
    # P(A) tau^(k) = 0 for k <= q
    q = facts.q_wso
    kmax = facts.m_star if math.isinf(q) else int(q)
    for k, tk in enumerate(_exact_taus(A, c, kmax), start=1):
        acc = [Fraction(0)] * s
        for coef, v in zip(P, _right_krylov(A, tk, len(P))):
            acc = [a + coef * x for a, x in zip(acc, v)]
        if any(x != 0 for x in acc):
            problems.append(f"P(A) tau^({k}) != 0")
            break
    # P Q N and char against det(lambda I - A)
    for lam in EXACT_POINTS:
        d = exact_det([[(lam if i == j else 0) - A[i][j] for j in range(s)] for i in range(s)])
        pqn = horner(P, lam) * horner(Q, lam) * horner(polys["N"], lam)
        if pqn != d:
            problems.append(f"P*Q*N({lam}) != det(lambda I - A)")
            break
        if horner(polys["char"], lam) != d:
            problems.append(f"char({lam}) != det(lambda I - A)")
            break
    return problems + r_problems(A, b, report["stability"], True)


def _exact_r(A, b, num, den):
    s = len(b)
    for z in EXACT_POINTS:
        M = [[(1 if i == j else 0) - z * A[i][j] for j in range(s)] for i in range(s)]
        if exact_det(M) == 0:
            continue
        R = 1 + z * _dot(b, exact_solve(M, [Fraction(1)] * s))
        dz = horner(den, z)
        if dz == 0 or horner(num, z) / dz != R:
            return [f"R({z}) != 1 + z b^T (I - zA)^-1 e"]
    return []


# ---------------------------------------------------------------------------
# binary64
# ---------------------------------------------------------------------------


def _arr(A, b, c):
    return (
        np.array([[float(x) for x in row] for row in A]),
        np.array([float(x) for x in b]),
        np.array([float(x) for x in c]),
    )


def float_taus(A, c, kmax):
    """(tau^(k), |A| |c|^(k-1) + |c|^k / k) for k = 1..kmax."""
    out = []
    for k in range(1, kmax + 1):
        tk = A @ c ** (k - 1) - c ** k / k
        mag = np.abs(A) @ np.abs(c) ** (k - 1) + np.abs(c) ** k / k
        out.append((tk, mag))
    return out


def float_wso_holds(A, b, tk, mag, count):
    """b^T A^j tau = 0 for j < count, each within FLOAT_ZERO of its terms."""
    row, arow = b.copy(), np.abs(b)
    for _ in range(count):
        if abs(row @ tk) > FLOAT_ZERO * (arow @ mag):
            return False
        row, arow = A.T @ row, np.abs(A).T @ arow
    return True


def float_rank(vectors):
    """Numerical rank of unit-normalized vectors; zero vectors are dropped."""
    units = []
    for v in vectors:
        n = float(np.linalg.norm(v))
        if n > 0:
            units.append(np.asarray(v) / n)
    if not units:
        return 0
    sv = np.linalg.svd(np.array(units), compute_uv=False)
    return int(np.sum(sv > FLOAT_RANK * sv[0]))


def _float_distinct(c, tie=1e-10):
    reps = []
    for x in c:
        if not any(abs(x - r) <= tie * max(1.0, abs(r)) for r in reps):
            reps.append(x)
    return reps


def float_facts(A, b, c):
    A, b, c = _arr(A, b, c)
    s = len(b)
    n_c = len(_float_distinct(c))
    m_star = 2 * n_c - (1 if np.any(np.abs(c) <= 1e-10) else 0)
    taus = float_taus(A, c, m_star)
    q = 0
    for k, (tk, mag) in enumerate(taus, start=1):
        if float_wso_holds(A, b, tk, mag, s):
            q = k
        else:
            break
    if q == m_star:
        q = INF
    m = _k_dim_index(q, m_star)
    K = []
    for tk, _ in taus[:m]:
        v = tk.copy()
        for _ in range(s):
            K.append(v)
            v = A @ v
    rows = [b]
    for _ in range(s - 1):
        rows.append(A.T @ rows[-1])
    p = 0
    power, apower, fact = np.ones(s), np.ones(s), 1.0
    for j in range(SERIES_PMAX + 1):
        fact /= j + 1
        if abs(b @ power - fact) > FLOAT_ZERO * max(np.abs(b) @ apower, fact):
            break
        p = j + 1
        power, apower = A @ power, np.abs(A) @ apower
    return Facts(s, n_c, m_star, q, float_rank(rows), _float_k_rank(K, taus[:m]), min(p, SERIES_PMAX))


def _float_k_rank(K, taus):
    """Rank of the K_m generators; a generator at rounding level of the
    residual magnitudes (such as tau^(1) = A e - c) counts as zero."""
    if not taus:
        return 0
    scale = max(1.0, max(float(np.max(mag)) for _, mag in taus))
    return float_rank([v for v in K if float(np.max(np.abs(v))) > FLOAT_ZERO * scale])


def _coef_scale(poly):
    return max([1.0] + [abs(a) for a in poly])


def _abs_eval(coeffs, x):
    return horner([abs(a) for a in coeffs], abs(x))


def _float_identities(A, b, c, facts, report):
    problems = []
    A, b, c = _arr(A, b, c)
    s = len(b)
    polys = {k: [float(parse_scalar(x)) for x in v] for k, v in report["polynomials"].items()}
    Q, P = polys["Q"], polys["P"]
    acc, v, av = np.zeros(s), b.copy(), np.abs(b)
    scale = 0.0
    for coef in Q:
        acc = acc + coef * v
        scale = max(scale, float(np.max(av)))
        v, av = A.T @ v, np.abs(A).T @ av
    if np.max(np.abs(acc)) > FLOAT_IDENTITY * _coef_scale(Q) * scale:
        problems.append("Q(A^T) b != 0")
    q = facts.q_wso
    kmax = facts.m_star if math.isinf(q) else int(q)
    for k, (tk, tmag) in enumerate(float_taus(A, c, kmax), start=1):
        acc, v, av = np.zeros(s), tk.copy(), tmag.copy()
        scale = 0.0
        for coef in P:
            acc = acc + coef * v
            scale = max(scale, float(np.max(av)))
            v, av = A @ v, np.abs(A) @ av
        if np.max(np.abs(acc)) > FLOAT_IDENTITY * _coef_scale(P) * scale:
            problems.append(f"P(A) tau^({k}) != 0")
            break
    char_abs = np.poly(np.abs(A)) if s else np.array([1.0])
    for lam in FLOAT_POINTS:
        d = float(np.linalg.det(lam * np.eye(s) - A))
        pqn = horner(P, lam) * horner(Q, lam) * horner(polys["N"], lam)
        scale = max(
            _abs_eval(P, lam) * _abs_eval(Q, lam) * _abs_eval(polys["N"], lam),
            float(np.prod(abs(lam) + np.abs(np.linalg.eigvals(A)))),
            _abs_eval(list(char_abs[::-1]), lam),
        )
        if abs(pqn - d) > FLOAT_IDENTITY * scale:
            problems.append(f"P*Q*N({lam}) != det(lambda I - A)")
            break
        if abs(horner(polys["char"], lam) - d) > FLOAT_IDENTITY * scale:
            problems.append(f"char({lam}) != det(lambda I - A)")
            break
    return problems + r_problems(A, b, report["stability"], False)


def _float_r(A, b, num, den):
    A, b = np.asarray(A, float), np.asarray(b, float)
    s = len(b)
    num, den = [float(x) for x in num], [float(x) for x in den]
    for z in FLOAT_POINTS:
        M = np.eye(s) - z * A
        if abs(np.linalg.det(M)) < 1e-6:
            continue
        R = 1.0 + z * float(b @ np.linalg.solve(M, np.ones(s)))
        dz = horner(den, z)
        scale = (_abs_eval(num, z) + abs(R) * _abs_eval(den, z)) / max(abs(dz), 1e-300)
        if dz == 0 or abs(horner(num, z) / dz - R) > FLOAT_IDENTITY * max(scale, 1.0):
            return [f"R({z}) != 1 + z b^T (I - zA)^-1 e"]
    return []


def r_problems(A, b, stability, exact):
    """R(z) = numerator / denominator of a report's `stability` block against
    1 + z b^T (I - zA)^{-1} e at several points."""
    num = [parse_scalar(x) for x in stability["numerator"]]
    den = [parse_scalar(x) for x in stability["denominator"]]
    if exact:
        A = [[Fraction(x) for x in row] for row in A]
        return _exact_r(A, [Fraction(x) for x in b], num, den)
    return _float_r(A, b, num, den)


# ---------------------------------------------------------------------------
# report checks
# ---------------------------------------------------------------------------


def report_integers(report):
    return {
        "q_wso": parse_q(report["orders"]["q_wso"]),
        "dim_Y": report["subspaces"]["dim_Y"],
        "dim_K_q": report["subspaces"]["dim_K_q"],
        "deg_Q": len(report["polynomials"]["Q"]) - 1,
        "p_linear": report["orders"]["p_linear"],
        "n_c": report["classification"]["n_c"],
    }


def facts_for(A, b, c, exact):
    return exact_facts(A, b, c) if exact else float_facts(A, b, c)


def compare_integers(expected, report, label):
    got = report_integers(report)
    return [
        f"{label}: {key} = {got[key]!r}, expected {value!r}"
        for key, value in expected.integers().items()
        if got[key] != value
    ]


def check_report(A, b, c, report, exact, truth=None):
    """Problems of one report against the tableau (A, b, c).

    `truth`, for a float twin, carries the exact facts of its rational
    original: the twin's integers must equal them, and the oracle's own float
    decisions are not consulted.
    """
    facts = truth or facts_for(A, b, c, exact)
    problems = []
    if (report["backend"] == "exact") != exact:
        problems.append(f"backend {report['backend']!r} for an exact={exact} tableau")
    if report["stages"] != len(b):
        problems.append("stage count differs")
    problems += compare_integers(facts, report, "twin" if truth else "definition")
    ident = _exact_identities if exact else _float_identities
    problems += ident(A, b, c, facts, report)
    bad = [e["name"] for e in report["barriers"]["entries"] if e["applicable"] and e["satisfied"] is False]
    if bad:
        problems.append(f"barrier violations: {bad}")
    failed = [k for k, v in report["consistency"].items() if v is False]
    if failed:
        problems.append(f"consistency checks failed: {failed}")
    return problems
