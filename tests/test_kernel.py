"""The exact kernel: fraction-free Krylov spaces, their prefix dimensions,
pencil determinants from reversed characteristic polynomials, and the
exact determinant, solve and span test, each checked against an independent
Fraction computation."""

import random
from fractions import Fraction as F

import pytest

from helpers import (
    DENSE,
    brute_force_det,
    brute_force_K_generators,
    brute_force_rank,
    random_suite,
)

from rkwso.catalog import catalog_all
from rkwso.linalg import Eliminator, SingularMatrixError, det, solve, solve_in_span
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


SUITE = random_suite(30, smax=5)


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
            values = [brute_force_det(_pencil_matrix(t, z, with_ebt)) for z in nodes]
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
            assert chi.evaluate(x) == brute_force_det(shifted)


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


def _rational(rng, lo=-4, hi=4, den=6):
    return F(rng.randint(lo, hi), rng.randint(1, den))


class TestExactSolves:
    @pytest.mark.parametrize("n", range(7))
    def test_det_matches_leibniz_expansion(self, n):
        rng = random.Random(100 + n)
        for trial in range(4):
            A = [[_rational(rng) for _ in range(n)] for _ in range(n)]
            assert det(A, True) == brute_force_det(A), (n, trial)
            if n >= 2:
                A[-1] = list(A[0])  # a repeated row
                assert det(A, True) == 0

    def test_span_solve_with_dependent_columns(self):
        rng = random.Random(11)
        for trial in range(40):
            m = rng.randint(1, 6)
            free = [[_rational(rng) for _ in range(m)] for _ in range(rng.randint(1, m))]
            # append combinations of the free columns, so the set is dependent
            cols = free + [
                [sum(rng.randint(-2, 2) * v[i] for v in free) for i in range(m)]
                for _ in range(rng.randint(1, 3))
            ]
            rng.shuffle(cols)
            weights = [_rational(rng) for _ in cols]
            target = [sum(w * c[i] for w, c in zip(weights, cols)) for i in range(m)]
            x = solve_in_span(cols, target, True)
            assert x is not None and len(x) == len(cols)
            assert [sum(xj * c[i] for xj, c in zip(x, cols)) for i in range(m)] == target

    def test_span_solve_rejects_a_target_outside_the_span(self):
        rng = random.Random(12)
        for trial in range(40):
            m = rng.randint(2, 6)
            cols = [[_rational(rng) for _ in range(m)] for _ in range(rng.randint(0, m - 1))]
            target = [_rational(rng) for _ in range(m)]
            if brute_force_rank(cols + [target]) > brute_force_rank(cols):
                assert solve_in_span(cols, target, True) is None, (trial, cols, target)

    def test_solve_reproduces_the_right_hand_side(self):
        rng = random.Random(13)
        for n in range(1, 7):
            A = [[_rational(rng) for _ in range(n)] for _ in range(n)]
            if brute_force_det(A) == 0:
                continue
            rhs = [_rational(rng) for _ in range(n)]
            x = solve(A, rhs, True)
            assert [sum(a * xj for a, xj in zip(row, x)) for row in A] == rhs

    def test_solve_rejects_a_singular_matrix_with_a_consistent_rhs(self):
        # the dependent column's pivot falls in the tags, not the data
        with pytest.raises(SingularMatrixError):
            solve([[F(1), F(2)], [F(2), F(4)]], [F(1), F(2)], True)
