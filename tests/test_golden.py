"""Golden report bytes: a digest of the full analysis report of a fixed set of
schemes.  A change that is meant to make the analysis faster must leave every
byte of every report as it was.  Run this file as a script to list the digest
of each scheme's report; comparing that listing with the parent commit's finds
the reports that changed.

The set: every catalog scheme, `random_suite(60, smax=5)`, and the binary64
twins of those random tableaux whose weights all lie in [-3, 3].  A second
digest covers exact s = 6..8 tableaux, where the exact kernel works
hardest: the fully implicit `DENSE` set and the s >= 6 draws of
`random_suite(24, smax=8)`.

A third digest pins the bytes of `generic_search`: the serialized tableaux
it finds for (3,3,3), (3,2,3) and (2,2,3), for (2,2,3) with a11 fixed to
1 - sqrt(2)/2, and the diagnostic of the infeasible (2,3,3).  Its damped
Newton iteration is chaotic, so any change in the rounding of the residual
can send a start to another root.
"""

import hashlib
import json
import math

from helpers import DENSE, random_suite

from rkwso.catalog import catalog_names, catalog_scheme
from rkwso.construct import ConstructionSpec, generic_search
from rkwso.report import analyze, report_dict
from rkwso.tableau import make_tableau, serialize_tableau

GOLDEN_SHA256 = "c4dd39f11dd9509bdf31aa849521ad065c1246aa8151021c2a22286bb94db10c"
GOLDEN_DENSE_SHA256 = "e0e18df078f3cd5d16651c917e479936027687e3dbcd7f2906f0883399299996"
GOLDEN_SEARCH_SHA256 = "7f50f4a5a7a8f5ed370ce953f5fee29b47d5e021f107397d6ad01fe57b9e7a71"

SEARCH_SPECS = [
    ConstructionSpec(targets=(3, 3, 3)),
    ConstructionSpec(targets=(3, 2, 3)),
    ConstructionSpec(targets=(2, 2, 3)),
    ConstructionSpec(targets=(2, 2, 3), diagonal_seed=(1 - math.sqrt(2) / 2,)),
    ConstructionSpec(targets=(2, 3, 3)),
]


def golden_schemes():
    suite = random_suite(60, smax=5)
    twins = [
        make_tableau(
            [[float(x) for x in row] for row in t.A],
            [float(x) for x in t.b],
            name=t.name,
            exact=False,
        )
        for t in suite
        if max(abs(x) for x in t.b) <= 3
    ]
    return [catalog_scheme(n) for n in catalog_names()] + suite + twins


def dense_schemes():
    return DENSE + [t for t in random_suite(24, smax=8) if t.s >= 6]


def report_lines(schemes):
    return [json.dumps(report_dict(analyze(t))) for t in schemes]


def search_lines():
    """One line per spec of SEARCH_SPECS: the serialized tableau the search
    returns, or its diagnostic when it returns none."""
    outcomes = [generic_search(spec, n_starts=30) for spec in SEARCH_SPECS]
    return [
        serialize_tableau(o.tableau) if o.tableau is not None else o.diagnostic
        for o in outcomes
    ]


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_report_bytes_match_golden_digest():
    assert digest(report_lines(golden_schemes())) == GOLDEN_SHA256


def test_dense_report_bytes_match_golden_digest():
    assert digest(report_lines(dense_schemes())) == GOLDEN_DENSE_SHA256


def test_search_bytes_match_golden_digest():
    assert digest(search_lines()) == GOLDEN_SEARCH_SHA256


if __name__ == "__main__":
    # prints each digest, then one line per scheme: its index, name and the
    # sha256 of its report, for locating a report that changed
    for schemes in (golden_schemes(), dense_schemes()):
        lines = report_lines(schemes)
        print(digest(lines))
        for i, (t, line) in enumerate(zip(schemes, lines)):
            print(i, t.name, hashlib.sha256(line.encode()).hexdigest())
    # the search digest, then one line per spec
    lines = search_lines()
    print(digest(lines))
    for spec, line in zip(SEARCH_SPECS, lines):
        print(spec.targets, spec.diagonal_seed, hashlib.sha256(line.encode()).hexdigest())
