"""The exact kernel: fraction-free Krylov spaces, their prefix dimensions,
and pencil determinants from reversed characteristic polynomials, each
checked against an independent Fraction computation."""

import random
from fractions import Fraction as F

import pytest

from helpers import (
    brute_force_K_generators,
    brute_force_rank,
    random_suite,
)

from rkwso.catalog import catalog_all
from rkwso.linalg import Eliminator, det
from rkwso.minpoly import char_poly
from rkwso.orders import saturation_index, space_K
from rkwso.poly import lagrange_interpolate
from rkwso.stability import _det_poly, _pencil_matrix
from rkwso.tableau import make_tableau


def float_twin(t):
    return make_tableau(
        [[float(x) for x in row] for row in t.A],
        [float(x) for x in t.b],
        name=t.name,
        exact=False,
    )


def random_dense(rng, s):
    """Fully implicit tableau with entries p/q, q in {1..7}; b sums to 1."""
    A = [[F(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(s)] for _ in range(s)]
    while True:
        b = [F(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(s)]
        if sum(b) != 0:
            break
    total = sum(b)
    return make_tableau(A, [x / total for x in b], name=f"dense-s{s}", exact=True)


SUITE = random_suite(30, smax=5)
DENSE = [random_dense(random.Random(s), s) for s in (6, 7, 8)]


def _pairs():
    """(tableau, rational original or None) in both backends."""
    exact = SUITE + [t for t in catalog_all() if t.exact]
    pairs = [(t, t) for t in exact]
    pairs += [(float_twin(t), t) for t in SUITE if max(abs(x) for x in t.b) <= 3]
    pairs += [(t, None) for t in catalog_all() if not t.exact]
    return pairs


class TestKrylovPrefixes:
    @pytest.mark.parametrize(
        "t, original", _pairs(), ids=lambda x: getattr(x, "name", "")
    )
    def test_dims_are_prefix_dimensions(self, t, original):
        top = saturation_index(t) + 3
        K = space_K(t, top)
        assert len(K.dims) == top and K.dims[-1] == K.dim
        for j in range(1, top + 1):
            Kj = space_K(t, j)
            assert K.dims[j - 1] == Kj.dim
            assert K.prefix(j).basis == Kj.basis
            if original is not None:
                gens = brute_force_K_generators(original, j)
                assert Kj.dim == brute_force_rank(gens), (t.name, j)


class TestPencilDeterminants:
    @pytest.mark.parametrize("t", SUITE + DENSE, ids=lambda t: t.name)
    def test_reversed_char_poly_matches_interpolation(self, t):
        nodes = [F(k) for k in range(t.s + 1)]
        for with_ebt in (False, True):
            values = [det(_pencil_matrix(t, z, with_ebt), True) for z in nodes]
            expected = lagrange_interpolate(nodes, values, True)
            assert _det_poly(t, with_ebt, t.s) == expected

    def test_char_poly_with_coprime_denominators(self):
        A = [
            [F(1, 3), F(2, 7), F(-5, 4)],
            [F(0), F(-7, 9), F(1, 11)],
            [F(3, 5), F(1), F(2, 13)],
        ]
        chi = char_poly(A, True)
        assert chi.degree == 3 and chi.coeffs[-1] == 1
        for x in (F(0), F(1, 3), F(2, 7), F(-5, 4), F(17, 6), F(-1)):
            shifted = [
                [(x if i == j else 0) - a for j, a in enumerate(row)]
                for i, row in enumerate(A)
            ]
            assert chi.evaluate(x) == det(shifted, True)


class TestExactEliminator:
    def test_rejects_a_scaled_copy(self):
        v = [F(1, 3), F(-2, 7), F(5, 4)]
        elim = Eliminator(True)
        assert elim.add(v)
        assert not elim.add([F(-14, 5) * x for x in v])
        assert not elim.add([84 * x for x in v])  # an integer multiple
        assert elim.rank == 1
        assert elim.add([F(1), F(0), F(0)])
        assert elim.rank == 2

    def test_contains_agrees_with_fraction_elimination(self):
        rng = random.Random(5)

        def vec(n):
            return [F(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(n)]

        for trial in range(60):
            n = rng.randint(1, 6)
            basis = [vec(n) for _ in range(rng.randint(0, n))]
            elim = Eliminator(True)
            for v in basis:
                elim.add(v)
            assert elim.rank == brute_force_rank(basis)
            combo = [sum(rng.randint(-3, 3) * v[i] for v in basis) for i in range(n)]
            for w in (vec(n), combo, [F(0)] * n):
                in_span = brute_force_rank(basis + [w]) == brute_force_rank(basis)
                assert elim.contains(w) is in_span, (trial, basis, w)
