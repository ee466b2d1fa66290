"""Seeded tableau corpora for the analysis workloads.

A corpus is made of rounds.  Round r of seed n draws from
`random.Random(n * 1_000_003 + r)`:

- SMALL_PER_S DIRKs for each s = 1..5, in the manner of the test suite's
  `random_suite`: entries a_ij = p/q with p in [-3, 3] and q in [1, 4] for
  j <= i, zero above the diagonal; b drawn the same way and scaled to sum 1;
- one large tableau, s = 6, 7, 8 in turn, a DIRK in even cycles of three
  rounds and fully implicit (every entry drawn) in odd ones.

Every round has the same make-up, so a run that completes more rounds does
the same mix of work.  The float twin of a tableau rounds each rational
entry to the nearest binary64.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import oracle

SMALL_STAGES = (1, 2, 3, 4, 5)
SMALL_PER_S = 10
LARGE_STAGES = (6, 7, 8)
TWIN_MAX_WEIGHT = 3


def _entry(rng):
    return F(rng.randint(-3, 3), rng.randint(1, 4))


def dirk_budget_misfires(A, b):
    """Whether rkwso reports its `dimK-upper-bound-dirk` barrier violated on
    this valid scheme: a DIRK with dim K_q > s - p - 1 + sigma >= 0, where
    p = p_linear, and sigma = 1 when A is invertible and its last row is b
    (see the FOUND line on random tableaux in CHANGES.md)."""
    s = len(b)
    if any(A[i][j] != 0 for i in range(s) for j in range(i + 1, s)):
        return False
    c = [sum(row) for row in A]
    tau2 = [sum(a * x for a, x in zip(row, c)) - x * x / 2 for row, x in zip(A, c)]
    if sum(x * y for x, y in zip(b, tau2)) != 0:
        return False  # q_wso < 2, so K_q = {0}
    facts = oracle.exact_facts(A, b, c)
    sigma = int(list(A[-1]) == list(b) and all(A[i][i] != 0 for i in range(s)))
    bound = s - facts.p_linear - 1 + sigma
    return 0 <= bound < facts.dim_Kq


def random_tableau(rng, s, dense=False):
    """(A, b) with small rational entries; b sums to 1.

    The pair is drawn again while the sum of b is 0, and while rkwso would
    misjudge the DIRK budget barrier on it (`dirk_budget_misfires`).
    """
    while True:
        A = [[_entry(rng) if dense or j <= i else F(0) for j in range(s)] for i in range(s)]
        b = [_entry(rng) for _ in range(s)]
        total = sum(b)
        if total != 0:
            b = [x / total for x in b]
            if not dirk_budget_misfires(A, b):
                return A, b


def exact_round(seed, r):
    """[(name, A, b)] of round r: the small DIRKs, then the large tableau."""
    rng = random.Random(seed * 1_000_003 + r)
    out = []
    for s in SMALL_STAGES:
        for i in range(SMALL_PER_S):
            A, b = random_tableau(rng, s)
            out.append((f"dirk-s{s}-r{r}-{i}", A, b))
    s = LARGE_STAGES[r % len(LARGE_STAGES)]
    dense = (r // len(LARGE_STAGES)) % 2 == 1
    A, b = random_tableau(rng, s, dense)
    out.append((f"{'dense' if dense else 'dirk'}-s{s}-r{r}", A, b))
    return out


def twin(A, b):
    return [[float(x) for x in row] for row in A], [float(x) for x in b]


def has_twin(A, b):
    """Whether the float corpus keeps the twin of (A, b).

    Twins of the s = 6-8 tableaux, and of tableaux with a weight outside the
    drawn range [-3, 3], are left out: rkwso's float p_linear is wrong for
    some of them (see CHANGES.md).
    """
    return len(b) in SMALL_STAGES and max(abs(x) for x in b) <= TWIN_MAX_WEIGHT
