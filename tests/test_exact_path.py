"""The exact path never touches a float.

With `Fraction.__float__` made to raise, `analyze` and `report_dict` must
still succeed on every exact tableau: any conversion of an exact value to
binary64, or any mixing of an exact value with a float, fails the test.
Two faults such a conversion caused are pinned beside it.
"""

from fractions import Fraction as F

import pytest

from helpers import random_suite

from rkwso.catalog import catalog_all
from rkwso.report import analyze, report_dict
from rkwso.tableau import classify, make_tableau

EXACT_SCHEMES = [t for t in catalog_all() if t.exact] + random_suite(60)
# an exact upper entry far below the binary64 range, and one far above it
TINY_UPPER = make_tableau(
    [[F(1), F(1, 10**400)], [F(0), F(1)]], [F(1, 2), F(1, 2)], exact=True
)
HUGE = make_tableau([[F(1), F(0)], [F(10**400), F(1)]], [F(1, 2), F(1, 2)], exact=True)


@pytest.fixture
def no_float(monkeypatch):
    def refuse(self):
        raise AssertionError(f"float() of the exact value {self}")

    monkeypatch.setattr(F, "__float__", refuse)


def test_exact_analysis_never_converts_to_float(no_float):
    for t in EXACT_SCHEMES + [TINY_UPPER, HUGE]:
        doc = report_dict(analyze(t))
        assert doc["backend"] == "exact", t.name


def test_tiny_upper_entry_is_not_zero():
    # 1/10^400 rounds to 0.0 in binary64; the exact zero test sees it
    cls = classify(TINY_UPPER)
    assert not cls.is_dirk
    assert not cls.is_explicit


def test_huge_entry_analyzes():
    # float(10^400) overflows; the exact analysis never forms it
    a = analyze(HUGE)
    assert a.classification.is_dirk
    assert a.p_classical == 1
