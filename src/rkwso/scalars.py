"""Scalar backends and shared tolerances.

Every tableau is uniformly exact (arbitrary-precision rationals) or float
(binary64).  Exact entries are `fractions.Fraction`; float entries are plain
`float`.  Number tokens in tableau files decide the backend: `3`, `-1/2` are
exact, `0.5`, `1e-3` are float, and mixing the two kinds in one file is an
error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

EXACT = "exact"
FLOAT = "float"

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_FLOAT_RE = re.compile(r"^[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?$")


class ScalarError(ValueError):
    pass


@dataclass(frozen=True)
class Tolerances:
    """Float-mode tolerances; exact mode ignores all of them.

    rank        relative threshold for rank / linear-independence decisions
    zero        absolute zero test, scaled by the largest intermediate
    abscissa_tie  tie tolerance when counting distinct abscissas
    c_consistency max |c - A e| accepted from a tableau file
    poly_trim   trailing polynomial coefficients below this are dropped
    poly_divides  remainder threshold for polynomial divisibility
    factor_check  coefficientwise threshold for char = P*Q*N
    ratfunc_compare cross-multiplication threshold for R(z) equality
    series_match  Taylor coefficient match threshold for order vs exp(z)
    """

    rank: float = 1e-9
    zero: float = 1e-10
    abscissa_tie: float = 1e-10
    c_consistency: float = 1e-12
    poly_trim: float = 1e-12
    poly_divides: float = 1e-9
    factor_check: float = 1e-8
    ratfunc_compare: float = 1e-8
    series_match: float = 1e-9

    def as_dict(self):
        return {
            "rank": self.rank,
            "zero": self.zero,
            "abscissa_tie": self.abscissa_tie,
            "c_consistency": self.c_consistency,
            "poly_trim": self.poly_trim,
            "poly_divides": self.poly_divides,
            "factor_check": self.factor_check,
            "ratfunc_compare": self.ratfunc_compare,
            "series_match": self.series_match,
        }


DEFAULT_TOL = Tolerances()


def token_backend(token):
    """Classify a number token as EXACT or FLOAT, or raise ScalarError."""
    if not isinstance(token, str):
        raise ScalarError(f"number token must be a string, got {token!r}")
    text = token.strip()
    if _RATIONAL_RE.match(text):
        return EXACT
    if _FLOAT_RE.match(text):
        return FLOAT
    raise ScalarError(f"unrecognized number token {token!r}")


def parse_token(token, backend):
    text = token.strip()
    if backend == EXACT:
        if "/" in text:
            num, den = text.split("/")
            if int(den) == 0:
                raise ScalarError(f"zero denominator in {token!r}")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    value = float(text)
    if value != value or value in (float("inf"), float("-inf")):
        raise ScalarError(f"non-finite value {token!r}")
    return value


def format_scalar(x):
    """Round-trippable text form: n or n/d for rationals, repr for floats."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    return repr(float(x))
