"""Shared test utilities: seeded random tableaux and brute-force oracles."""

from __future__ import annotations

import random
from fractions import Fraction as F
from functools import lru_cache

from rkwso.linalg import matvec, transpose
from rkwso.orders import tau
from rkwso.tableau import make_tableau

RANDOM_SEED = 20240901


def random_rational_dirk(rng, smax=5, normalize_b=True):
    """Lower-triangular tableau with small rational entries; b sums to 1."""
    s = rng.randint(1, smax)
    A = [
        [
            F(rng.randint(-3, 3), rng.randint(1, 4)) if j <= i else F(0)
            for j in range(s)
        ]
        for i in range(s)
    ]
    while True:
        b = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(s)]
        total = sum(b)
        if any(x != 0 for x in b) and (not normalize_b or total != 0):
            break
    if normalize_b:
        b = [x / total for x in b]
    return make_tableau(A, b, name=f"random-dirk-s{s}", exact=True)


def random_suite(count, smax=5, seed=RANDOM_SEED):
    rng = random.Random(seed)
    return [random_rational_dirk(rng, smax) for _ in range(count)]


def random_dense(rng, s):
    """Fully implicit tableau with entries p/q, q in {1..7}; b sums to 1."""
    A = [[F(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(s)] for _ in range(s)]
    while True:
        b = [F(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(s)]
        if sum(b) != 0:
            break
    total = sum(b)
    return make_tableau(A, [x / total for x in b], name=f"dense-s{s}", exact=True)


DENSE = [random_dense(random.Random(s), s) for s in (6, 7, 8)]


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


def set_partitions(items):
    """All partitions of a list (exponential; for small s only)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def brute_force_s_reducible(t):
    """Any nontrivial partition satisfying the equal-row-block-sum law."""
    s = t.s
    best = None
    for part in set_partitions(range(s)):
        if len(part) >= s:
            continue
        ok = True
        for block in part:
            for other in part:
                sums = [sum(t.a(i, j) for j in other) for i in block]
                if any(x != sums[0] for x in sums):
                    ok = False
                    break
            if not ok:
                break
        if ok and (best is None or len(part) > len(best)):
            best = part
    if best is None:
        return None
    return tuple(
        tuple(i + 1 for i in sorted(block))
        for block in sorted(best, key=lambda blk: min(blk))
    )


def _row_reduce(rows):
    """Reduced row echelon form over Fractions, in place; returns the pivot
    columns (independent implementation)."""
    pivots = []
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return pivots


def brute_force_rank(vectors):
    """Rank by row reduction over Fractions (independent implementation)."""
    return len(_row_reduce([list(v) for v in vectors]))


def brute_force_det(A):
    """The Leibniz permutation sum, grouped row by row into cofactor
    (Laplace) expansions whose minors are memoized by their column set."""
    n = len(A)

    @lru_cache(maxsize=None)
    def minor(cols):  # rows n - len(cols) .. n - 1, the given columns
        row = n - len(cols)
        total = F(1) if not cols else F(0)
        for k, j in enumerate(cols):
            if A[row][j] != 0:
                total += (-1) ** k * A[row][j] * minor(cols[:k] + cols[k + 1 :])
        return total

    return minor(tuple(range(n)))


def brute_force_K_generators(t, m):
    gens = []
    for k in range(1, m + 1):
        v = tau(t, k)
        for _ in range(t.s):
            gens.append(list(v))
            v = matvec(t.A, v)
    return gens


def brute_force_Y_generators(t):
    gens = []
    v = list(t.b)
    At = transpose([list(r) for r in t.A])
    for _ in range(t.s):
        gens.append(list(v))
        v = matvec(At, v)
    return gens


def brute_force_min_poly_degree(A, basis_vectors):
    """Smallest d with a monic combination of {B, AB, ..., A^d B} hitting 0,
    found by row reducing the stacked images [B | AB | ... | A^d B]."""
    images = [[list(v) for v in basis_vectors]]
    for _ in range(len(A)):
        images.append([matvec(A, v) for v in images[-1]])

    def stack(level):
        return [x for v in images[level] for x in v]

    for d in range(0, len(A) + 1):
        # augmented system sum_i x_i stack(i) = -stack(d), one row per entry
        cols = [stack(i) for i in range(d)] + [[-x for x in stack(d)]]
        rows = [list(r) for r in zip(*cols)]
        pivots = _row_reduce(rows)
        if d in pivots:
            continue  # the right-hand side is a pivot: inconsistent
        coeffs = [F(0)] * d
        for r, col in enumerate(pivots):
            coeffs[col] = rows[r][d]
        return d, coeffs + [F(1)]
    raise AssertionError("no annihilator found up to dimension")
