"""Command-line front end.

Exit codes: 0 success, 1 input error, 2 internal consistency failure,
3 infeasible construction.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .catalog import catalog_names, catalog_scheme
from .construct import (
    ConstructionError,
    ConstructionSpec,
    build_wso3_p2_s2,
    build_wso3_p3_s3,
    generic_search,
)
from .prothero import CSV_HEADER, DEFAULT_DTS, estimate_order
from .report import analyze, consistency_ok, report_dict
from .scalars import DEFAULT_TOL, Tolerances
from .tableau import TableauError, parse_tableau, serialize_tableau


def _tolerances(args):
    kwargs = {}
    if args.tol_rank is not None:
        kwargs["rank"] = args.tol_rank
    if args.tol_zero is not None:
        kwargs["zero"] = args.tol_zero
        kwargs["abscissa_tie"] = args.tol_zero
    if not kwargs:
        return DEFAULT_TOL
    base = DEFAULT_TOL.as_dict()
    base.update(kwargs)
    return Tolerances(**base)


def _load(path_or_name, tol):
    """Load a tableau file, falling back to the catalog for bare names."""
    path = Path(path_or_name)
    if path.exists():
        data = path.read_bytes()
        return parse_tableau(data.decode("utf-8"), tol), data
    if path_or_name in catalog_names():
        t = catalog_scheme(path_or_name)
        return t, serialize_tableau(t).encode()
    raise TableauError(f"no such file or catalog scheme: {path_or_name}")


def _emit(doc):
    print(json.dumps(doc, indent=2))


def cmd_analyze(args):
    tol = _tolerances(args)
    t, raw = _load(args.file, tol)
    analysis = analyze(t, tol, pmax=args.pmax, kcap=args.kcap)
    _emit(report_dict(analysis, tol, raw))
    return 0 if consistency_ok(analysis) else 2


def cmd_barriers(args):
    tol = _tolerances(args)
    t, _ = _load(args.file, tol)
    analysis = analyze(t, tol, pmax=args.pmax, kcap=args.kcap)
    _emit(
        {
            "scheme": t.name or "(unnamed)",
            "barriers": analysis.barrier.as_dict(),
            "tolerances": tol.as_dict(),
        }
    )
    violations = analysis.barrier.violations()
    if violations:
        print(
            "barrier violations: " + ", ".join(e.name for e in violations),
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_stability(args):
    tol = _tolerances(args)
    t, _ = _load(args.file, tol)
    analysis = analyze(t, tol, pmax=args.pmax, kcap=args.kcap)
    doc = {
        "scheme": t.name or "(unnamed)",
        "stability": {
            "numerator": [str(c) for c in analysis.R.num.coeffs],
            "denominator": [str(c) for c in analysis.R.den.coeffs],
            "order_vs_exp": analysis.p_linear,
            "routes_agree": analysis.consistency.get("stability-function-routes"),
        },
        "tolerances": tol.as_dict(),
    }
    _emit(doc)
    ok = analysis.consistency.get("stability-function-routes")
    return 0 if ok in (True, None) else 2


def cmd_construct(args):
    tol = _tolerances(args)
    try:
        if args.family == "wso3-p2-s2":
            t = build_wso3_p2_s2(args.sign)
        elif args.family == "wso3-p3-s3":
            t = build_wso3_p3_s3(args.a, args.sign, tol)
        elif args.family == "generic":
            if not args.targets:
                print("generic construction needs --targets s,p,q", file=sys.stderr)
                return 1
            s, p, q = (int(x) for x in args.targets.split(","))
            seed = tuple(float(x) for x in args.diag.split(",")) if args.diag else ()
            spec = ConstructionSpec(targets=(s, p, q), diagonal_seed=seed)
            outcome = generic_search(spec, tol, n_starts=args.seed_grid)
            if outcome.tableau is None:
                print(outcome.diagnostic, file=sys.stderr)
                return 3 if not outcome.feasible else 1
            t = outcome.tableau
        else:
            print(f"unknown family {args.family!r}", file=sys.stderr)
            return 1
    except ConstructionError as err:
        print(f"construction failed: {err}", file=sys.stderr)
        return 3
    text = serialize_tableau(t)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_converge(args):
    tol = _tolerances(args)
    t, _ = _load(args.file, tol)
    dts = (
        tuple(float(x) for x in args.dts.split(","))
        if args.dts
        else DEFAULT_DTS
    )
    result = estimate_order(
        t,
        args.phi,
        args.regime,
        dts=dts,
        T=args.T,
        z=args.z,
        lam=getattr(args, "lambda"),
    )
    print(CSV_HEADER)
    for row in result.csv_rows():
        print(row)
    return 0


def cmd_catalog(args):
    if args.action == "list":
        for name in catalog_names():
            print(name)
        return 0
    if not args.name:
        print("catalog show needs a scheme name", file=sys.stderr)
        return 1
    try:
        t = catalog_scheme(args.name)
    except KeyError as err:
        print(str(err), file=sys.stderr)
        return 1
    sys.stdout.write(serialize_tableau(t))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rkwso",
        description=(
            "Analyze Runge-Kutta tableaux for weak stage order, minimal "
            "polynomials, stability functions, and order barriers."
        ),
    )
    parser.add_argument(
        "--tol-rank",
        type=float,
        default=None,
        help=f"float-mode rank tolerance (default {DEFAULT_TOL.rank})",
    )
    parser.add_argument(
        "--tol-zero",
        type=float,
        default=None,
        help=f"float-mode zero/tie tolerance (default {DEFAULT_TOL.zero})",
    )
    parser.add_argument(
        "--kcap",
        type=int,
        default=None,
        help="optional cap on the residual index used for the WSO search",
    )
    parser.add_argument(
        "--pmax",
        type=int,
        default=6,
        help="classical order search cap via rooted trees (default 6, max 6)",
    )
    parser.add_argument(
        "--seed-grid",
        type=int,
        default=40,
        help="number of Newton starts for the generic search (default 40)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full analysis report (JSON)")
    p.add_argument("file", help="tableau file or catalog scheme name")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("barriers", help="order-barrier report (JSON)")
    p.add_argument("file")
    p.set_defaults(fn=cmd_barriers)

    p = sub.add_parser("stability", help="stability function report (JSON)")
    p.add_argument("file")
    p.set_defaults(fn=cmd_stability)

    p = sub.add_parser("construct", help="build a scheme and print its file")
    p.add_argument("family", choices=["wso3-p2-s2", "wso3-p3-s3", "generic"])
    p.add_argument("--a", type=float, default=0.5, help="family parameter")
    p.add_argument("--sign", choices=["plus", "minus"], default="minus")
    p.add_argument("--targets", default="", help="generic targets: s,p,q")
    p.add_argument("--diag", default="", help="generic diagonal seed: comma list")
    p.add_argument("--out", default="", help="write the tableau file here")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("converge", help="convergence study (CSV to stdout)")
    p.add_argument("file")
    p.add_argument(
        "--regime", choices=["classical", "semi-stiff", "stiff"], required=True
    )
    p.add_argument("--z", type=float, default=-10.0, help="semi-stiff z = lambda dt")
    p.add_argument("--lambda", type=float, default=-1.0e6, dest="lambda")
    p.add_argument("--phi", default="cos", help="forcing: sin|cos|zero|poly:k|exp:a")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--dts", default="", help="comma list of step sizes")
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("catalog", help="list or show built-in schemes")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?", default="")
    p.set_defaults(fn=cmd_catalog)

    return parser


_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _bind_negative_values(argv):
    """Rewrites `--opt -1e6` as `--opt=-1e6`.

    argparse takes a token that starts with '-' for an option unless it
    looks like a negative number without an exponent, so `--lambda -1e6`
    would fail with "expected one argument".  Every long option of this CLI
    takes a value, so a negative number right after one is its value.
    """
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (
            _NEGATIVE_NUMBER.match(tok)
            and prev.startswith("--")
            and len(prev) > 2
            and "=" not in prev
            and prev != "--help"
        ):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(
        _bind_negative_values(sys.argv[1:] if argv is None else list(argv))
    )
    try:
        return args.fn(args)
    except TableauError as err:
        print(f"input error: {err}", file=sys.stderr)
        return 1
    except FileNotFoundError as err:
        print(f"input error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"input error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
