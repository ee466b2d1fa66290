"""Butcher tableaux: parsing, serialization, classification, reducibility."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .linalg import det
from .scalars import (
    DEFAULT_TOL,
    EXACT,
    ScalarError,
    format_scalar,
    parse_token,
    token_backend,
)


class TableauError(ValueError):
    pass


@dataclass(frozen=True)
class ButcherTableau:
    """Immutable RK coefficients (A, b, c) on a uniform scalar backend.

    c = A e is enforced at construction: a supplied c must match exactly on
    the exact backend or within the file tolerance on the float backend.
    """

    name: str
    A: tuple
    b: tuple
    c: tuple
    exact: bool
    source: str = ""
    metadata: tuple = ()

    @property
    def s(self):
        return len(self.b)

    @property
    def ones(self):
        return tuple(Fraction(1) if self.exact else 1.0 for _ in range(self.s))

    def row(self, i):
        return self.A[i]

    def a(self, i, j):
        return self.A[i][j]

    def diag(self):
        return tuple(self.A[i][i] for i in range(self.s))

    def meta_dict(self):
        return dict(self.metadata)


def make_tableau(A, b, c=None, name="", source="", exact=None, metadata=(),
                 tol=DEFAULT_TOL):
    """Validate shapes and the c = A e constraint, then freeze a tableau."""
    s = len(b)
    if s < 1:
        raise TableauError("at least one stage required")
    if len(A) != s or any(len(row) != s for row in A):
        raise TableauError("A must be square and match len(b)")
    if exact is None:
        exact = all(
            isinstance(x, (Fraction, int)) and not isinstance(x, bool)
            for row in A
            for x in row
        ) and all(isinstance(x, (Fraction, int)) for x in b)
    conv = (lambda x: Fraction(x)) if exact else float
    A = tuple(tuple(conv(x) for x in row) for row in A)
    b = tuple(conv(x) for x in b)
    ce = tuple(sum(row) for row in A)
    if c is None:
        c = ce
    else:
        c = tuple(conv(x) for x in c)
        if len(c) != s:
            raise TableauError("c length mismatch")
        if exact:
            if any(ci != cei for ci, cei in zip(c, ce)):
                raise TableauError("c is inconsistent with A*e")
        else:
            worst = max(abs(ci - cei) for ci, cei in zip(c, ce))
            if worst > tol.c_consistency * max(1.0, max(abs(x) for x in ce)):
                raise TableauError(f"c deviates from A*e by {worst:g}")
            c = ce  # canonical value
    return ButcherTableau(name, A, b, c, exact, source, tuple(metadata))


def parse_tableau(text, tol=DEFAULT_TOL):
    """Parse the JSON tableau file format into a ButcherTableau."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise TableauError(f"malformed JSON: {err}") from None
    if not isinstance(doc, dict):
        raise TableauError("top-level JSON object expected")
    if "A" not in doc or "b" not in doc:
        raise TableauError("fields 'A' and 'b' are required")
    rows = doc["A"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise TableauError("'A' must be an array of arrays")
    s = len(rows)
    if any(len(r) != s for r in rows):
        raise TableauError("'A' must be square")
    bvals = doc["b"]
    if not isinstance(bvals, list) or len(bvals) != s:
        raise TableauError("'b' must have one weight per stage")
    cvals = doc.get("c")
    if cvals is not None and (not isinstance(cvals, list) or len(cvals) != s):
        raise TableauError("'c' must have one abscissa per stage")

    tokens = [x for r in rows for x in r] + list(bvals) + list(cvals or [])
    try:
        backends = {token_backend(t) for t in tokens}
    except ScalarError as err:
        raise TableauError(str(err)) from None
    if len(backends) > 1:
        raise TableauError("mixed rational and decimal tokens in one file")
    backend = backends.pop()
    exact = backend == EXACT
    try:
        A = [[parse_token(x, backend) for x in r] for r in rows]
        b = [parse_token(x, backend) for x in bvals]
        c = [parse_token(x, backend) for x in cvals] if cvals is not None else None
    except ScalarError as err:
        raise TableauError(str(err)) from None
    meta = doc.get("metadata") or {}
    if not isinstance(meta, dict):
        raise TableauError("'metadata' must be an object")
    return make_tableau(
        A,
        b,
        c,
        name=str(doc.get("name", "")),
        source=str(doc.get("source", "")),
        exact=exact,
        metadata=tuple(sorted(meta.items())),
        tol=tol,
    )


def tableau_to_dict(t):
    return {
        "name": t.name,
        "A": [[format_scalar(x) for x in row] for row in t.A],
        "b": [format_scalar(x) for x in t.b],
        "c": [format_scalar(x) for x in t.c],
        "metadata": {str(k): v for k, v in t.metadata},
    }


def serialize_tableau(t):
    return json.dumps(tableau_to_dict(t), indent=2) + "\n"


@dataclass(frozen=True)
class SchemeClassification:
    is_explicit: bool
    is_dirk: bool
    is_sdirk: bool
    is_edirk: bool
    is_gedirk: bool
    is_stiffly_accurate: bool
    a_invertible: bool
    n_c: int
    s_reducible_partition: tuple | None
    dj_reducible_stages: frozenset

    def as_dict(self):
        return {
            "is_explicit": self.is_explicit,
            "is_dirk": self.is_dirk,
            "is_sdirk": self.is_sdirk,
            "is_edirk": self.is_edirk,
            "is_gedirk": self.is_gedirk,
            "is_stiffly_accurate": self.is_stiffly_accurate,
            "a_invertible": self.a_invertible,
            "n_c": self.n_c,
            "s_reducible_partition": (
                [list(block) for block in self.s_reducible_partition]
                if self.s_reducible_partition
                else None
            ),
            "dj_reducible_stages": sorted(self.dj_reducible_stages),
        }


def _near(x, y, exact, tol_abs):
    return x == y if exact else abs(x - y) <= tol_abs


def distinct_abscissas(t, tol=DEFAULT_TOL):
    """Representative values of c up to the tie tolerance, in stage order."""
    reps = []
    for ci in t.c:
        if not any(_near(ci, r, t.exact, tol.abscissa_tie) for r in reps):
            reps.append(ci)
    return reps


def has_zero_abscissa(t, tol=DEFAULT_TOL):
    zero = 0 if t.exact else 0.0
    return any(_near(ci, zero, t.exact, tol.abscissa_tie) for ci in t.c)


def classify(t, tol=DEFAULT_TOL):
    s = t.s
    zero_tol = 0.0 if t.exact else tol.zero
    lower = all(
        abs(float(t.a(i, j))) <= zero_tol for i in range(s) for j in range(i + 1, s)
    )
    explicit = lower and all(abs(float(t.a(i, i))) <= zero_tol for i in range(s))
    diag = t.diag()
    sdirk = lower and all(
        _near(d, diag[0], t.exact, tol.abscissa_tie) for d in diag
    )
    edirk = lower and abs(float(t.a(0, 0))) <= (0.0 if t.exact else tol.zero)
    gedirk = False
    if lower:
        zero = 0 if t.exact else 0.0
        for j, cj in enumerate(t.c):
            if _near(cj, zero, t.exact, tol.abscissa_tie):
                gedirk = _near(t.a(j, j), zero, t.exact, tol.abscissa_tie)
                break
    last_row = t.row(s - 1)
    if t.exact:
        stiffly = all(x == y for x, y in zip(last_row, t.b))
    else:
        scale = max(1.0, max(abs(float(x)) for x in t.b))
        stiffly = all(
            abs(float(x) - float(y)) <= tol.zero * scale
            for x, y in zip(last_row, t.b)
        )
    d = det(t.A, t.exact)
    if t.exact:
        invertible = d != 0
    else:
        from .linalg import max_abs

        scale = max(1.0, max_abs(t.A)) ** s
        invertible = abs(d) > 1e-12 * scale
    return SchemeClassification(
        is_explicit=explicit,
        is_dirk=lower,
        is_sdirk=sdirk,
        is_edirk=edirk,
        is_gedirk=gedirk,
        is_stiffly_accurate=stiffly,
        a_invertible=invertible,
        n_c=len(distinct_abscissas(t, tol)),
        s_reducible_partition=s_reducibility(t, tol),
        dj_reducible_stages=dj_reducibility(t, tol),
    )


def _block_sums(t, row_index, blocks):
    return [sum(t.a(row_index, j) for j in block) for block in blocks]


def s_reducibility(t, tol=DEFAULT_TOL):
    """Coarsest stage partition with equal block row sums, or None.

    Partition refinement from the single-block partition: rows whose sums
    over the current blocks differ get separated; iterate to a fixed point.
    Stages are reported 1-based, blocks ordered by smallest member.
    """
    s = t.s
    blocks = [list(range(s))]
    changed = True
    while changed:
        changed = False
        new_blocks = []
        for block in blocks:
            groups = []
            for i in block:
                sig = _block_sums(t, i, blocks)
                placed = False
                for g_sig, members in groups:
                    if all(
                        _near(a, b, t.exact, tol.abscissa_tie)
                        for a, b in zip(sig, g_sig)
                    ):
                        members.append(i)
                        placed = True
                        break
                if not placed:
                    groups.append((sig, [i]))
            if len(groups) > 1:
                changed = True
            new_blocks.extend(members for _, members in groups)
        blocks = sorted(new_blocks, key=lambda blk: blk[0])
    if len(blocks) >= s:
        return None
    return tuple(tuple(i + 1 for i in block) for block in blocks)


def contract(t, partition):
    """Equivalent smaller scheme: one stage per block (1-based partition)."""
    blocks = [tuple(i - 1 for i in block) for block in partition]
    reps = [block[0] for block in blocks]
    A = [
        [sum(t.a(rep, k) for k in block) for block in blocks] for rep in reps
    ]
    b = [sum(t.b[k] for k in block) for block in blocks]
    return make_tableau(A, b, name=t.name + "-contracted", exact=t.exact)


def dj_reducibility(t, tol=DEFAULT_TOL):
    """Stages with no influence on the output (1-based indices).

    A stage is kept when its weight is nonzero or some other kept stage
    consumes it; the complement at the fixed point is removable.
    """
    s = t.s
    zero_tol = 0.0 if t.exact else tol.zero
    kept = {j for j in range(s) if abs(float(t.b[j])) > zero_tol}
    while True:
        added = {
            j
            for j in range(s)
            if j not in kept
            and any(i != j and abs(float(t.a(i, j))) > zero_tol for i in kept)
        }
        if not added:
            break
        kept |= added
    return frozenset(j + 1 for j in range(s) if j not in kept)
