"""Tableau parsing, classification, and reducibility."""

import json
from fractions import Fraction as F

import pytest

from helpers import brute_force_s_reducible, random_suite

from rkwso.catalog import catalog_all, catalog_names, catalog_scheme
from rkwso.tableau import (
    TableauError,
    classify,
    dj_reducibility,
    make_tableau,
    parse_tableau,
    s_reducibility,
    serialize_tableau,
)


class TestParsing:
    def test_backward_euler_minimal_file(self):
        t = parse_tableau('{"A":[["1"]],"b":["1"]}')
        assert t.exact
        assert t.c == (F(1),)  # c defaulted to A e

    def test_float_backend_from_decimals(self):
        text = json.dumps(
            {
                "name": "two-stage",
                "A": [["0.29289321881345254", "0.0"], ["1.2071067811865475", "0.5"]],
                "b": ["0.8535533905932737", "0.14644660940672624"],
            }
        )
        t = parse_tableau(text)
        assert not t.exact
        assert t.s == 2

    def test_non_square_rejected(self):
        with pytest.raises(TableauError, match="square"):
            parse_tableau('{"A":[["1","0"],["0"]],"b":["1","0"]}')

    def test_mixed_backends_rejected(self):
        with pytest.raises(TableauError, match="mixed"):
            parse_tableau('{"A":[["1/2","0.5"],["0","1"]],"b":["1","0"]}')

    def test_malformed_json_rejected(self):
        with pytest.raises(TableauError, match="JSON"):
            parse_tableau("{not json")

    def test_inconsistent_c_rejected(self):
        with pytest.raises(TableauError, match="inconsistent"):
            parse_tableau('{"A":[["1"]],"b":["1"],"c":["1/2"]}')

    def test_no_stages_rejected(self):
        with pytest.raises(TableauError, match="at least one stage"):
            parse_tableau('{"name":"x","A":[],"b":[]}')

    def test_length_mismatch_rejected(self):
        with pytest.raises(TableauError):
            parse_tableau('{"A":[["1"]],"b":["1","0"]}')

    @pytest.mark.parametrize("name", catalog_names())
    def test_round_trip_identity(self, name):
        t = catalog_scheme(name)
        again = parse_tableau(serialize_tableau(t))
        assert again.A == t.A
        assert again.b == t.b
        assert again.c == t.c
        assert again.exact == t.exact
        # a second round trip is byte-identical
        assert serialize_tableau(again) == serialize_tableau(t)


class TestClassification:
    def test_backward_euler(self):
        cls = classify(catalog_scheme("backward-euler"))
        assert cls.is_dirk and cls.is_sdirk and cls.is_stiffly_accurate
        assert cls.a_invertible and cls.n_c == 1
        assert not cls.is_explicit and not cls.is_gedirk

    def test_two_stage_wso3_not_stiffly_accurate(self):
        # last row (1/2 + sqrt2/2, 1/2) differs from b
        cls = classify(catalog_scheme("wso3-p2-s2-minus"))
        assert cls.is_dirk and not cls.is_sdirk
        assert not cls.is_stiffly_accurate
        assert cls.a_invertible and cls.n_c == 2

    def test_gedirk_flag(self):
        t = make_tableau(
            [[F(0), F(0)], [F(1, 2), F(1, 2)]], [F(1, 2), F(1, 2)], exact=True
        )
        cls = classify(t)
        assert cls.is_gedirk and cls.is_edirk and cls.is_dirk
        assert not cls.a_invertible

    def test_gedirk_implies_dirk_catalogwide(self):
        for t in catalog_all():
            cls = classify(t)
            assert not cls.is_gedirk or cls.is_dirk

    @pytest.mark.filterwarnings("ignore:overflow encountered in det")
    def test_huge_float_entries_classify(self):
        # det A = 1e400 overflows binary64; no power max|A|^s is formed
        t = make_tableau([[1e200, 0.0], [0.5, 1e200]], [0.5, 0.5], exact=False)
        cls = classify(t)
        assert cls.is_dirk and cls.a_invertible

    def test_gauss_is_fully_implicit(self):
        cls = classify(catalog_scheme("gauss2"))
        assert not cls.is_dirk and not cls.is_explicit
        assert cls.n_c == 2


class TestSReducibility:
    def test_duplicate_abscissa_dirk_is_reducible(self):
        # any DIRK with c1 = c2 is stage reducible
        t = make_tableau(
            [[F(1, 2), F(0), F(0)], [F(1, 2), F(0), F(0)], [F(1, 4), F(1, 4), F(1, 3)]],
            [F(1, 3), F(1, 3), F(1, 3)],
            exact=True,
        )
        part = s_reducibility(t)
        assert part is not None
        assert (1, 2) in part

    def test_first_column_pattern_reducible(self):
        # 3x3 matrix with rows (a11,0,0), (a21,a22,0), (a11-a33,0,a33)
        t = make_tableau(
            [[F(2), F(0), F(0)], [F(1), F(3), F(0)], [F(2) - F(5), F(0), F(5)]],
            [F(1, 3), F(1, 3), F(1, 3)],
            exact=True,
        )
        part = s_reducibility(t)
        assert part is not None
        assert (1, 3) in part

    def test_row_copy_pattern_reducible(self):
        t = make_tableau(
            [[F(2), F(0), F(0)], [F(1), F(3), F(0)], [F(1), F(3) - F(5), F(5)]],
            [F(1, 3), F(1, 3), F(1, 3)],
            exact=True,
        )
        part = s_reducibility(t)
        assert part is not None
        assert (2, 3) in part

    def test_irreducible_two_stage_scheme(self):
        assert s_reducibility(catalog_scheme("wso3-p2-s2-minus")) is None
        assert s_reducibility(catalog_scheme("wso3-p2-s2-plus")) is None

    def test_refinement_matches_brute_force(self):
        for t in random_suite(120, smax=4, seed=123):
            fast = s_reducibility(t)
            slow = brute_force_s_reducible(t)
            if slow is None:
                assert fast is None
            else:
                assert fast is not None
                # the refinement result is the coarsest stable partition
                assert len(fast) <= len(slow)


class TestDJReducibility:
    def test_all_weights_nonzero(self):
        assert dj_reducibility(catalog_scheme("trapezoidal")) == frozenset()

    def test_unreachable_second_stage(self):
        t = make_tableau(
            [[F(1, 2), F(0)], [F(1), F(1, 3)]], [F(1), F(0)], exact=True
        )
        assert dj_reducibility(t) == frozenset({2})

    def test_unreachable_third_stage(self):
        t = make_tableau(
            [
                [F(1, 2), F(0), F(0)],
                [F(1, 4), F(1, 2), F(0)],
                [F(1), F(1), F(1, 3)],
            ],
            [F(1, 2), F(1, 2), F(0)],
            exact=True,
        )
        assert dj_reducibility(t) == frozenset({3})

    def test_chain_kept_through_coupling(self):
        # b = (1, 0) but stage 2 feeds stage 1
        t = make_tableau(
            [[F(1, 2), F(1, 4)], [F(1), F(1, 3)]], [F(1), F(0)], exact=True
        )
        assert dj_reducibility(t) == frozenset()


class TestFormatEdges:
    def test_scientific_notation_tokens(self):
        t = parse_tableau('{"A":[["5e-1"]],"b":["1.0"]}')
        assert not t.exact
        assert t.A[0][0] == 0.5

    def test_negative_rational_tokens(self):
        t = parse_tableau('{"A":[["-1/2"]],"b":["-3"]}')
        assert t.exact
        assert t.A[0][0] == F(-1, 2) and t.b[0] == F(-3)

    def test_zero_denominator_rejected(self):
        with pytest.raises(TableauError):
            parse_tableau('{"A":[["1/0"]],"b":["1"]}')

    def test_garbage_token_rejected(self):
        with pytest.raises(TableauError, match="unrecognized"):
            parse_tableau('{"A":[["one"]],"b":["1"]}')

    def test_supplied_c_accepted_within_float_tolerance(self):
        t = parse_tableau(
            '{"A":[["0.25","0.0"],["0.5","0.25"]],'
            '"b":["0.5","0.5"],"c":["0.25000000000000004","0.75"]}'
        )
        assert t.c == (0.25, 0.75)  # canonicalized to the row sums

    def test_supplied_c_exact_match_required(self):
        t = parse_tableau('{"A":[["1/4","0"],["1/2","1/4"]],"b":["1/2","1/2"],"c":["1/4","3/4"]}')
        assert t.c == (F(1, 4), F(3, 4))

    def test_metadata_round_trip(self):
        text = '{"name":"x","A":[["1"]],"b":["1"],"metadata":{"family":"demo","a":"0.5"}}'
        t = parse_tableau(text)
        again = parse_tableau(serialize_tableau(t))
        assert dict(again.metadata) == {"family": "demo", "a": "0.5"}
