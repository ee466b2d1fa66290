#!/usr/bin/env python3
"""rkwso benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-spec

Run from the root of a checkout; rkwso is imported from its `src/`.  One
workload runs in one process, single-threaded.  It sets up its inputs at
least SETUP_REPEATS times and for SETUP_SECONDS (re-importing rkwso each
time), then runs whole rounds of
operations until the operations have taken `--seconds` in total, or its
inputs run out.  After each round every output is checked by the oracle in
this directory; the checks are not timed.  An operation that raises, or a
command line that exits non-zero, counts as failed.  Times are CPU times,
scaled to a nominal host speed by a reference loop timed before every
operation (see README.md).

`--trace 0` prints the end-to-end metrics.  `--trace 1` spends the first
half of the time untraced and the second half with every public rkwso
function wrapped (tracer.py), and prints the per-layer metrics together with
the tracing overhead.  The last line of the output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Details go to
.bench_results/ at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import importlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_results"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
import oracle  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 3  # at least, and until SETUP_SECONDS are spent in set-up
SETUP_SECONDS = 1.0
SCALE_WINDOW = 8  # operations on either side whose reference loops scale one
# the CPU time of `reference_loop` that scaled times refer to (about its
# time on the host of the README's reference figures)
REFERENCE_MS = 0.7
REFERENCE_MATRIX = np.full((8, 8), 0.125)
EXACT_ROUNDS = 30  # rounds built per run; 20 s used 8-13 exact, 45-70 float here
FLOAT_ROUNDS = 80
IMPORT_SAMPLES = 3

EXACT_CATALOG = ("backward-euler", "implicit-midpoint", "trapezoidal", "sdirk2-wso1")
FLOAT_CATALOG = (
    "gauss2",
    "wso3-p2-s2-minus",
    "wso3-p2-s2-plus",
    "wso3-p3-s3-a0.5-minus",
    "wso3-p3-s3-a0.5-plus",
)
# the three-stage sweep of the constructor tests, to the last bit: which
# points next to the pole 1 + 1/sqrt(3) fail depends on it
SWEEP = [
    (float(a), sign)
    for a in list(np.linspace(0.01, 0.66, 66)) + list(np.linspace(1.01, 2.99, 99))
    for sign in ("minus", "plus")
]
SEARCH_TARGETS = ((3, 3, 3), (3, 2, 3), (2, 3, 3))
REGIMES = ("classical", "semi-stiff", "stiff")
Z_SEMI_STIFF = -10.0
LAMBDA_STIFF = -1.0e6
# runs `rkwso.cli` as __main__ with the arguments after it, then reports the
# interpreter's peak resident memory on stderr
CLI_WRAPPER = """
import atexit, runpy, sys
def peak():
    with open("/proc/self/status") as status:
        sys.stderr.writelines(line for line in status if line.startswith("VmHWM"))
atexit.register(peak)
runpy.run_module("rkwso.cli", run_name="__main__", alter_sys=True)
"""
# the command lines of the README's "Command line" section, after `rkwso`
CLI_LINES = (
    "catalog list",
    "catalog show backward-euler",
    "analyze wso3-p2-s2-minus",
    "barriers gauss2",
    "stability trapezoidal",
    "construct wso3-p3-s3 --a 0.5 --sign minus --out scheme.json",
    "construct generic --targets 3,3,3",
    "converge sdirk2-wso1 --regime semi-stiff --z -10",
    "converge backward-euler --regime stiff --lambda -1e6 --phi cos --T 1",
)

SPEC = {
    "command": ["python3", "bench/run.py"],
    "paths": ["bench"],
    "run_seconds": 20,
    "workloads": [
        {
            "name": "exact-corpus",
            "why": "analyze() and report_dict() on exact rational DIRKs (s = 1-5) "
            "and DIRK or dense s = 6-8 tableaux plus the exact catalog: the "
            "Fraction kernel, whose cost grows steeply with s",
        },
        {
            "name": "float-corpus",
            "why": "the same analysis on the binary64 twins of the s = 1-5 "
            "tableaux plus the float catalog: shared code and the tolerance "
            "branch, which an exact-kernel change should leave alone",
        },
        {
            "name": "construct-converge",
            "why": "the 330-point (3,3,3) sweep, the (2,2,3) family, generic "
            "searches and Prothero-Robinson studies: Newton, elimination and "
            "RK stepping, which the corpora never reach",
        },
        {
            "name": "cli-cold",
            "why": "every README command line in a fresh interpreter, one at a "
            "time: interpreter start and imports, paid by every invocation",
        },
    ],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.2},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    ],
    "per_layer": [],  # filled from PER_LAYER below
}

# per-layer metrics: (name, unit); per operation of the workload unless noted
PER_LAYER = (
    ("linalg.det.ms", "ms"),
    ("linalg.det.calls", "count"),
    ("linalg.solve.calls", "count"),
    ("linalg.Eliminator.add.ms", "ms"),
    ("linalg.Eliminator.add.calls", "count"),
    ("poly.lagrange_interpolate.ms", "ms"),
    ("orders.space_K.ms", "ms"),
    ("orders.wso_via_subspaces.ms", "ms"),
    ("stability.stability_function.ms", "ms"),
    ("stability.wso_via_wtilde.ms", "ms"),
    ("stability.stability_from_alpha.ms", "ms"),
    ("minpoly.char_poly.ms", "ms"),
    ("minpoly.factorization.ms", "ms"),
    ("orders.tau.calls", "count"),
    ("orders.saturation_index.calls", "count"),
    ("orders.space_K.calls", "count"),
    ("orders.space_Y.calls", "count"),
    ("orders.wso.calls", "count"),
    ("orders.wso.ms", "ms"),
    ("barriers.gather_inputs.ms", "ms"),
    ("barriers.barrier_report.ms", "ms"),
    ("orders.classical_order.ms", "ms"),
    ("orders.check_albrecht.ms", "ms"),
    ("tableau.classify.ms", "ms"),
    ("report.analyze.ms", "ms"),
    ("report.report_dict.ms", "ms"),
    ("construct.build_wso3_p3_s3.ms", "ms"),
    ("construct.solve_branches.ms", "ms"),
    ("construct.generic_search.ms", "ms"),
    ("prothero.rk_step.us", "us"),  # span per call
    ("prothero.rk_step.calls", "count"),
    ("prothero.estimate_order.ms", "ms"),
    ("cli.import_ms", "ms"),  # `import rkwso.cli` in a fresh interpreter
    ("cli.main.ms", "ms"),  # span per command line run in process
    ("trace.overhead_pct", "%"),  # traced over untraced time per operation
)
SPEC["per_layer"] = [{"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER]


class CommandFailed(RuntimeError):
    pass


@dataclass
class Op:
    label: str
    kind: str
    run: Callable  # () -> output; raises when the operation fails
    check: Callable  # output -> list of problems
    steps: int = 0  # RK steps taken (convergence studies)


@dataclass
class Record:
    label: str
    round: int
    kind: str
    seconds: float  # CPU time of the operation
    ok: bool
    steps: int
    reference: float  # CPU time of the reference loop run just before it
    scaled: float = 0.0  # seconds at the nominal host speed (see Tally.scale_times)


@dataclass
class Tally:
    """What one measured stretch of rounds did."""

    records: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)  # reason -> count
    problems: list = field(default_factory=list)
    rounds: int = 0

    @property
    def attempted(self):
        return len(self.records)

    @property
    def succeeded(self):
        return [r for r in self.records if r.ok]

    @property
    def busy(self):
        return sum(r.seconds for r in self.records)

    def scale_times(self):
        """Scale each operation's time to a host on which the reference loop
        takes REFERENCE_MS: by REFERENCE_MS over the median reference time of
        the SCALE_WINDOW operations on either side of it.  The host's speed
        moves by tens of percent within seconds; the reference loop, which
        shares no code with rkwso, moves with it."""
        refs = [r.reference for r in self.records]
        for i, r in enumerate(self.records):
            near = statistics.median(refs[max(0, i - SCALE_WINDOW) : i + SCALE_WINDOW + 1])
            r.scaled = r.seconds * REFERENCE_MS / 1e3 / near
        return self


def reference_loop():
    """A fixed piece of pure-Python, Fraction and small-numpy work (about
    0.5 ms here) that shares no code with rkwso."""
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    v = np.linspace(0.0, 1.0, 8)
    for _ in range(25):
        v = np.tanh(REFERENCE_MATRIX @ v)
    table = {}
    for i in range(400):
        table[i % 31] = table.get(i % 31, 0) + i
    return acc, v, table


def reference_seconds():
    """CPU time of the reference loop, run once untimed to warm the caches
    (after a cold command line, the parent's are cold)."""
    reference_loop()
    start = cpu_clock()
    reference_loop()
    return cpu_clock() - start


def cpu_clock():
    """CPU seconds of this process and of the children it has waited for.

    The benchmark runs single-threaded on shared hosts, where wall time also
    counts the time the host gives to other guests; CPU time does not.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def measure(rounds, seconds, scaled=True):
    """Run whole rounds until their operations took `seconds` in total.

    With `scaled` false the reference loop is not run and times stay as
    measured: the loop runs in this process and cannot follow the speed of a
    child process."""
    tally = Tally()
    for ops in rounds:
        outputs = []
        for op in ops:
            reference = reference_seconds() if scaled else REFERENCE_MS / 1e3
            start = cpu_clock()
            try:
                out, ok = op.run(), True
            except Exception as err:  # every failure is counted, none is fatal
                out, ok = err, False
            dt = cpu_clock() - start
            tally.records.append(Record(op.label, tally.rounds, op.kind, dt, ok, op.steps, reference))
            if ok:
                outputs.append((op, out))
            else:
                reason = f"{op.kind}: {type(out).__name__}"
                tally.failures[reason] = tally.failures.get(reason, 0) + 1
        for op, out in outputs:
            try:
                found = op.check(out)
            except Exception as err:  # unreadable output is an incorrect one
                found = [f"check raised {type(err).__name__}: {err}"]
            tally.problems += [f"{op.label}: {p}" for p in found]
        tally.rounds += 1
        if tally.busy >= seconds:
            break
    return tally.scale_times()


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def fresh_import():
    """Import rkwso from this checkout's src/, dropping any earlier import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "rkwso" or m.startswith("rkwso.")]:
        del sys.modules[name]
    gc.collect()  # the dropped modules, so repeated set-ups do not pile up memory
    pkg = importlib.import_module("rkwso")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: rkwso imported from {pkg.__file__}, not from {SRC}")
    names = ("barriers", "catalog", "cli", "construct", "prothero", "report", "tableau")
    return types.SimpleNamespace(**{n: importlib.import_module(f"rkwso.{n}") for n in names})


def _fields(t):
    return [list(r) for r in t.A], list(t.b), list(t.c)


def setup_corpus(rk, seed, exact):
    """Rounds of (tableau, truth) pairs; truth is the rational original of a
    float twin, None otherwise."""
    make = rk.tableau.make_tableau
    names = EXACT_CATALOG if exact else FLOAT_CATALOG
    catalog = [(rk.catalog.catalog_scheme(n), None) for n in names]
    rounds = []
    for r in range(EXACT_ROUNDS if exact else FLOAT_ROUNDS):
        items = []
        for name, A, b in corpus.exact_round(seed, r):
            if exact:
                items.append((make(A, b, name=name, exact=True), None))
            elif corpus.has_twin(A, b):
                Af, bf = corpus.twin(A, b)
                items.append((make(Af, bf, name=name, exact=False), (A, b)))
        rounds.append(items + catalog)
    return rounds


def corpus_rounds(rk, data):
    def analyze(t):
        return rk.report.report_dict(rk.report.analyze(t))

    def check(t, truth, rep):
        A, b, c = _fields(t)
        if truth is None:
            return oracle.check_report(A, b, c, rep, t.exact)
        rA, rb = truth
        rfacts = oracle.exact_facts(rA, rb, [sum(row) for row in rA])
        return oracle.check_report(A, b, c, rep, False, truth=rfacts)

    for items in data:
        yield [
            Op(t.name, "analyze", functools.partial(analyze, t), functools.partial(check, t, truth))
            for t, truth in items
        ]


def _spec(rk, targets):
    fields = {f.name for f in dataclasses.fields(rk.construct.ConstructionSpec)}
    kwargs = {"targets": targets}
    if "family" in fields:  # required by the spec, though the search ignores it
        kwargs["family"] = "generic"
    return rk.construct.ConstructionSpec(**kwargs)


def _tab(t):
    return None if t is None else {"A": [list(r) for r in t.A], "b": list(t.b)}


def setup_construct(rk, seed):
    catalog = [rk.catalog.catalog_scheme(n) for n in rk.catalog.catalog_names()]
    steps = sum(int(round(1.0 / dt)) for dt in rk.prothero.DEFAULT_DTS)
    return {"catalog": catalog, "steps": steps, "orders": {}}


def construct_rounds(rk, data, seed):
    c = rk.construct
    names = (rk.barriers.NAME_DIRK_WSO_ORDER_BUDGET, rk.barriers.NAME_STAGE_ORDER_WSO_BUDGET)

    def orders(t):
        if t.name not in data["orders"]:
            A, b, _ = _fields(t)
            data["orders"][t.name] = checks.scheme_orders(A, b, t.exact)
        return data["orders"][t.name]

    def study(t, regime):
        return rk.prothero.estimate_order(
            t, "cos", regime, z=Z_SEMI_STIFF, lam=LAMBDA_STIFF
        )

    def check_study(t, regime):
        def check(res):
            A, b, _ = _fields(t)
            return checks.check_study(
                A, b, orders(t), regime, res.steps, res.errors, res.fitted_order,
                lam=LAMBDA_STIFF, name=t.name,
            )

        return check

    ops = [
        Op(
            f"wso3-p3-s3 a={a!r} {sign}",
            "build",
            lambda a=a, sign=sign: c.build_wso3_p3_s3(a, sign),
            lambda t, a=a: checks.check_wso_family(_tab(t), 3, 3, a),
        )
        for a, sign in SWEEP
    ]
    ops += [
        Op(f"wso3-p2-s2 {sign}", "build2", lambda sign=sign: c.build_wso3_p2_s2(sign),
           lambda t: checks.check_wso_family(_tab(t), 2, 2))
        for sign in ("minus", "plus")
    ]
    ops += [
        Op(
            f"generic {tg}",
            "search",
            lambda tg=tg: c.generic_search(_spec(rk, tg)),
            lambda o, tg=tg: checks.check_search(
                tg, _tab(o.tableau), o.feasible, o.diagnostic, names
            ),
        )
        for tg in SEARCH_TARGETS
    ]
    ops += [
        Op(f"converge {t.name} {regime}", "study", lambda t=t, regime=regime: study(t, regime),
           check_study(t, regime), steps=data["steps"])
        for t in data["catalog"]
        for regime in REGIMES
    ]
    r = 0
    while True:
        random.Random(seed * 1_000_003 + r).shuffle(ops)
        yield list(ops)
        r += 1


def setup_cli(rk, seed):
    work = OUT / f"cli-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    names = ("wso3-p2-s2-minus", "gauss2", "trapezoidal", "sdirk2-wso1", "backward-euler")
    schemes = {n: rk.catalog.catalog_scheme(n) for n in names}
    return {"dir": work, "schemes": schemes, "orders": {}, "peak_kb": 0}


def _cli_check(data, line):
    """The check of one README command line's stdout (and --out file)."""
    schemes, work = data["schemes"], data["dir"]
    words = line.split()

    def study_check(name, regime):
        t = schemes[name]
        A, b, _ = _fields(t)
        orders = data["orders"].setdefault(name, checks.scheme_orders(A, b, t.exact))

        def check(out):
            dts, errors, fitted = checks.parse_csv(out)
            return checks.check_study(A, b, orders, regime, dts, errors, fitted,
                                      lam=LAMBDA_STIFF, name=name)

        return check

    if words[:2] == ["catalog", "list"]:
        want = set(schemes)
        return lambda out: [] if want <= set(out.split()) else [f"missing from the list: {want - set(out.split())}"]
    if words[:2] == ["catalog", "show"]:
        # backward Euler by definition: A = [[1]], b = [1]
        return lambda out: [] if (json.loads(out)["A"], json.loads(out)["b"]) == ([["1"]], ["1"]) else ["not backward Euler"]
    if words[0] == "analyze":
        t = schemes[words[1]]
        A, b, c = _fields(t)
        return lambda out: oracle.check_report(A, b, c, json.loads(out), t.exact)
    if words[0] == "barriers":
        t = schemes[words[1]]

        def check(out):
            doc = json.loads(out)
            facts = oracle.facts_for(*_fields(t), t.exact)
            inputs = doc["barriers"]["inputs"]
            got = (oracle.parse_q(inputs["q"]), inputs["dim_Y"], inputs["dim_Kq"], inputs["n_c"])
            want = (facts.q_wso, facts.dim_Y, facts.dim_Kq, facts.n_c)
            bad = [e["name"] for e in doc["barriers"]["entries"] if e["applicable"] and e["satisfied"] is False]
            return ([f"barrier inputs {got}, expected {want}"] if got != want else []) + (
                [f"barrier violations {bad}"] if bad else [])

        return check
    if words[0] == "stability":
        t = schemes[words[1]]
        A, b, _ = _fields(t)

        def check(out):
            doc = json.loads(out)["stability"]
            problems = oracle.r_problems(A, b, doc, t.exact)
            if doc["routes_agree"] is False:
                problems.append("the two R(z) routes disagree")
            return problems

        return check
    if words[:2] == ["construct", "wso3-p3-s3"]:
        return lambda out: checks.check_wso_family(
            checks.tableau_dict((work / "scheme.json").read_text()), 3, 3, a=0.5
        )
    if words[:2] == ["construct", "generic"]:
        return lambda out: checks.check_search(
            (3, 3, 3), checks.tableau_dict(out), True, "", ()
        )
    if words[0] == "converge":
        return study_check(words[1], words[words.index("--regime") + 1])
    raise ValueError(f"no check for {line!r}")


def cli_rounds(data, seed, in_process, rk=None):
    work = data["dir"]
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin", "LC_ALL": "C.UTF-8"}

    def cold(args):
        if "--out" in args:
            (work / "scheme.json").unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, "-c", CLI_WRAPPER, *args],
            cwd=work, env=env, capture_output=True, text=True, timeout=150,
        )
        peak = [int(line.split()[1]) for line in proc.stderr.splitlines() if line.startswith("VmHWM")]
        data["peak_kb"] = max([data["peak_kb"], *peak])
        if proc.returncode != 0:
            raise CommandFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return proc.stdout

    def warm(args):
        if "--out" in args:
            (work / "scheme.json").unlink(missing_ok=True)
        args = [str(work / a) if a == "scheme.json" else a for a in args]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = rk.cli.main(args)
            except SystemExit as stop:
                code = stop.code
        if code != 0:
            raise CommandFailed(f"exit {code}: {err.getvalue().strip()[-200:]}")
        return out.getvalue()

    run = warm if in_process else cold
    ops = [
        Op(f"rkwso {line}", "cli", lambda args=tuple(line.split()): run(args), _cli_check(data, line))
        for line in CLI_LINES
    ]
    r = 0
    while True:
        random.Random(seed * 1_000_003 + r).shuffle(ops)
        yield list(ops)
        r += 1


def setup(workload, seed):
    """One set-up: re-import rkwso and build the workload's inputs."""
    rk = fresh_import()
    if workload in ("exact-corpus", "float-corpus"):
        return rk, setup_corpus(rk, seed, workload == "exact-corpus")
    if workload == "construct-converge":
        return rk, setup_construct(rk, seed)
    return rk, setup_cli(rk, seed)


def rounds_for(workload, rk, data, seed, in_process=False):
    if workload in ("exact-corpus", "float-corpus"):
        return corpus_rounds(rk, data)
    if workload == "construct-converge":
        return construct_rounds(rk, data, seed)
    return cli_rounds(data, seed, in_process, rk)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _median(xs):
    return statistics.median(xs) if xs else math.nan


def peak_rss_mb(workload, data):
    """Peak resident memory of this process, or for cli-cold of the largest
    command line (its own VmHWM: getrusage would count the memory of this
    process, from which the child was forked)."""
    if workload == "cli-cold":
        return data["peak_kb"] / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, tally, setup_s, peak_mb):
    """(metrics, extra): every time scaled to the nominal host speed; extra
    holds the workload's own names and the times as measured."""
    ok = tally.succeeded
    by_label = {}
    for r in tally.records:
        by_label.setdefault(r.label, []).append(r.scaled)
    # an operation repeated in every round (construct-converge, cli-cold)
    # counts with its median time, so one slow round weighs less
    busy = sum(len(v) * _median(v) for v in by_label.values())
    every = [r.scaled for r in ok]
    metrics = {
        "setup_s": (_median(setup_s), "s"),
        "ops_per_s": (len(ok) / busy, "1/s"),
        "op_ms_p50": (_median(every) * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }

    def kind_s(kind):
        return [r.scaled for r in tally.records if r.kind == kind]

    def per_round(kind):
        return [sum(r.scaled for r in tally.records if r.kind == kind and r.round == n)
                for n in range(tally.rounds)]

    if workload in ("exact-corpus", "float-corpus"):
        extra = {
            "analyze_per_s": (metrics["ops_per_s"][0], "schemes/s"),
            "analyze_ms_p50": (metrics["op_ms_p50"][0], "ms"),
            "analyze_ms_p90": (statistics.quantiles(every, n=10, method="inclusive")[8] * 1e3, "ms"),
        }
    elif workload == "construct-converge":
        builds = [r for r in ok if r.kind == "build"]
        studies = [r for r in ok if r.kind == "study"]
        extra = {
            "build_per_s": (len(builds) / sum(kind_s("build")), "builds/s"),
            "search_s": (_median(per_round("search")), "s"),
            "steps_per_s": (sum(r.steps for r in studies) / sum(r.scaled for r in studies), "steps/s"),
        }
    else:
        extra = {"cli_ms_p50": (metrics["op_ms_p50"][0], "ms")}
    extra["reference_ms"] = (_median([r.reference for r in tally.records]) * 1e3, "ms")
    extra["raw_ops_per_s"] = (len(ok) / tally.busy, "1/s")
    extra["raw_op_ms_p50"] = (_median([r.seconds for r in ok]) * 1e3, "ms")
    return metrics, extra


def import_ms():
    """`import rkwso.cli` in fresh interpreters, median in ms."""
    code = "import time; t = time.process_time(); import rkwso.cli; print(time.process_time() - t)"
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        samples.append(float(proc.stdout) * 1e3)
    return statistics.median(samples)


def per_layer(tracer, traced, untraced):
    """Per-layer metrics of the traced half, per operation, scaled like the
    end-to-end times (by the traced half's median reference loop)."""
    ops = max(traced.attempted, 1)
    k = REFERENCE_MS / 1e3 / _median([r.reference for r in traced.records])
    stats = tracer.stats
    out = {}
    for name, unit in PER_LAYER:
        if name == "cli.import_ms":
            value = import_ms()
        elif name == "trace.overhead_pct":
            per_op = [sum(r.scaled for r in t.records) / t.attempted for t in (traced, untraced)]
            value = 100.0 * (per_op[0] / per_op[1] - 1.0)
        else:
            func, what = name.rsplit(".", 1)
            calls, self_s, span_s = stats.get(func, (0, 0.0, 0.0))
            if what == "calls":
                value = calls / ops
            elif name == "prothero.rk_step.us":
                value = span_s * k / calls * 1e6 if calls else 0.0
            elif name == "cli.main.ms":
                value = span_s * k / ops * 1e3
            else:
                value = self_s * k / ops * 1e3
        out[name] = (value, unit)
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_workload(workload, seed, seconds, trace):
    setup_s, spent = [], 0.0
    while len(setup_s) < SETUP_REPEATS or spent < SETUP_SECONDS:
        reference = statistics.median(reference_seconds() for _ in range(2 * SCALE_WINDOW + 1))
        start = cpu_clock()
        rk, data = setup(workload, seed)
        spent += cpu_clock() - start
        setup_s.append((cpu_clock() - start) * REFERENCE_MS / 1e3 / reference)
    try:
        if not trace:
            tally = measure(rounds_for(workload, rk, data, seed), seconds,
                            scaled=workload != "cli-cold")
            metrics, extra = end_to_end(workload, tally, setup_s, peak_rss_mb(workload, data))
            tallies = [tally]
        else:
            rounds = rounds_for(workload, rk, data, seed, in_process=True)
            untraced = measure(rounds, seconds / 2)
            tracer = Tracer().install()
            try:
                traced = measure(rounds, seconds / 2)
            finally:
                tracer.uninstall()
            metrics, extra = per_layer(tracer, traced, untraced), {}
            tallies = [untraced, traced]
            _write(f"trace-{workload}-seed{seed}.json", {
                "ops": traced.attempted,
                "functions": {k: {"calls": v[0], "self_s": v[1], "span_s": v[2]}
                              for k, v in sorted(tracer.stats.items()) if v[0]},
            })
    finally:
        if workload == "cli-cold":
            shutil.rmtree(data["dir"], ignore_errors=True)
    return metrics, extra, tallies


def _write(name, doc):
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(doc, indent=1, default=str) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the checkout root and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(SPEC, indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "rkwso" / "__init__.py").is_file():
        print(f"bench: no rkwso sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        code = 0
        for w in SPEC["workloads"]:
            cmd = [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = max(code, subprocess.run(cmd).returncode)
        return code

    metrics, extra, tallies = run_workload(args.workload, args.seed, args.seconds, args.trace)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(sum(t.failures.values()) for t in tallies)
    problems = [p for t in tallies for p in t.problems]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"metric {name} {value:.6g} {unit}")
    for t in tallies:
        print(f"rounds {t.rounds} attempted {t.attempted} measured_s {t.busy:.3f}")
        for reason, count in sorted(t.failures.items()):
            print(f"failed {count} {reason}")
    for p in problems[:20]:
        print(f"INCORRECT {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    _write(f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
           {**result, "extra": extra, "problems": problems,
            "failures": [t.failures for t in tallies]})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
