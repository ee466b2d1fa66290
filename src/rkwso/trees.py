"""Rooted trees, densities, and elementary weights for order conditions.

A tree is a canonical nested tuple: () is the single node, and a tree with
subtrees t1..tk is the sorted tuple (t1, ..., tk).  Through order 6 there
are 1, 1, 2, 4, 9, 20 trees (37 total).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement

from .linalg import matvec


@lru_cache(maxsize=None)
def trees_of_order(n):
    """All rooted trees with exactly n nodes, canonically ordered."""
    if n < 1:
        return ()
    if n == 1:
        return ((),)
    result = set()
    for part in _partitions(n - 1):
        # choose a multiset of subtrees whose sizes form `part`
        choices_per_size = []
        sizes = sorted(set(part))
        for size in sizes:
            count = part.count(size)
            choices_per_size.append(
                list(combinations_with_replacement(trees_of_order(size), count))
            )
        stack = [()]
        for group in choices_per_size:
            stack = [acc + pick for acc in stack for pick in group]
        for combo in stack:
            result.add(tuple(sorted(combo)))
    return tuple(sorted(result))


@lru_cache(maxsize=None)
def _partitions(n):
    """Integer partitions of n as non-increasing tuples."""
    if n == 0:
        return ((),)
    out = []
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                out.append((first,) + rest)
    return tuple(out)


def node_count(tree):
    return 1 + sum(node_count(t) for t in tree)


def density(tree):
    """Butcher density: gamma(single node) = 1, else |t| * prod of children."""
    g = node_count(tree)
    for t in tree:
        g *= density(t)
    return g


def _phi_vector(tree, A, ones):
    """Recursive stage weight vector: leaf -> e, else componentwise product
    of A times each subtree's vector."""
    if not tree:
        return list(ones)
    acc = None
    for sub in tree:
        term = matvec(A, _phi_vector(sub, A, ones))
        acc = term if acc is None else [a * b for a, b in zip(acc, term)]
    return acc


def elementary_weight(tree, A, b, ones):
    """b^T applied to the product of subtree stage vectors."""
    if not tree:
        return sum(b)
    vec = _phi_vector(tree, A, ones)
    return sum(bi * vi for bi, vi in zip(b, vec))
