"""Scalar backends and shared tolerances.

Every tableau is uniformly exact (arbitrary-precision rationals) or float
(binary64).  Exact entries are `fractions.Fraction`; float entries are plain
`float`.  Number tokens in tableau files decide the backend: `3`, `-1/2` are
exact, `0.5`, `1e-3` are float, and mixing the two kinds in one file is an
error.

The two backends, `EXACT` and `FLOAT`, own every exact-or-float decision:
value conversion, zero and one, zero and tie tests with their scales,
polynomial trimming and GCD reduction.  `linalg`'s entry points pick their
kernel from the backend they are handed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

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


class _Exact:
    """Rationals: every test is an equality, so no scale is ever computed."""

    name = "exact"
    exact = True
    zero = Fraction(0)
    one = Fraction(1)

    def __repr__(self):
        return "EXACT"

    convert = Fraction

    def parse(self, token):
        text = token.strip()
        if "/" in text:
            num, den = text.split("/")
            if int(den) == 0:
                raise ScalarError(f"zero denominator in {token!r}")
            return Fraction(int(num), int(den))
        return Fraction(int(text))

    def is_zero(self, x, tol, scale=1.0):
        return x == 0

    def same(self, x, y, tol):
        return x == y

    def size(self, *vectors):
        return 1

    def scale(self, fn, *args):
        return 1

    def trim(self, coeffs, tol):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return [Fraction(c) for c in cs]

    def reduce(self, num, den):
        """num/den in lowest terms: both divided by their monic GCD."""
        g = num.gcd(den)
        if not g.is_zero and g.degree > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        return num, den


class _Float:
    """binary64: a value is zero when |x| <= tol * max(1, scale), with tol a
    `Tolerances` field and scale the size of the terms x was computed from."""

    name = "float"
    exact = False
    zero = 0.0
    one = 1.0

    def __repr__(self):
        return "FLOAT"

    convert = float

    def parse(self, token):
        value = float(token.strip())
        if value != value or value in (float("inf"), float("-inf")):
            raise ScalarError(f"non-finite value {token!r}")
        return value

    def is_zero(self, x, tol, scale=1.0):
        return abs(x) <= tol * max(1.0, scale)

    def same(self, x, y, tol):
        return abs(x - y) <= tol

    def size(self, *vectors):
        """The zero-test scale of values computed from these vectors."""
        return max([1.0] + [abs(x) for v in vectors for x in v])

    def scale(self, fn, *args):
        """fn(*args): a zero-test scale that only this backend computes."""
        return fn(*args)

    def trim(self, coeffs, tol):
        cs = list(coeffs)
        scale = max([1.0] + [abs(float(c)) for c in cs])
        eps = tol.poly_trim * scale
        while cs and abs(float(cs[-1])) <= eps:
            cs.pop()
        return [float(c) for c in cs]

    def reduce(self, num, den):
        """Unchanged: a float GCD is unstable."""
        return num, den


EXACT = _Exact()
FLOAT = _Float()


def backend_of(exact, values):
    """The backend `exact` names; for None, the one the values fit: EXACT
    when every value is an int or a Fraction, FLOAT otherwise."""
    if exact is None:
        exact = all(
            isinstance(x, (Fraction, int)) and not isinstance(x, bool)
            for x in values
        )
    return EXACT if exact else FLOAT


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


def format_scalar(x):
    """Round-trippable text form: n or n/d for rationals, repr for floats."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    return repr(float(x))
