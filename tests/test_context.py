"""The per-scheme analysis context: one build of each shared quantity per
analysis, independent cross-check routes, and no cache beyond one call."""

import dataclasses
import importlib
import json
import pkgutil
from fractions import Fraction as F

import pytest

import rkwso
from rkwso import orders
from rkwso.catalog import catalog_scheme
from rkwso.report import analyze, report_dict
from rkwso.scalars import Tolerances
from rkwso.tableau import make_tableau

COUNTED = ("space_K", "space_Y", "saturation_index", "wso")

DIRK4 = make_tableau(
    [
        [F(1, 4), F(0), F(0), F(0)],
        [F(1, 2), F(1, 3), F(0), F(0)],
        [F(-1, 3), F(1, 2), F(1, 5), F(0)],
        [F(1, 6), F(-1, 4), F(1, 2), F(2, 5)],
    ],
    [F(1, 5), F(3, 10), F(1, 4), F(1, 4)],
    name="dirk4",
    exact=True,
)


def rkwso_modules():
    return [rkwso] + [
        importlib.import_module(f"rkwso.{info.name}")
        for info in pkgutil.iter_modules(rkwso.__path__)
    ]


def replace_everywhere(monkeypatch, name, make_wrapper):
    """Replace orders.<name> in every rkwso namespace that binds it."""
    original = getattr(orders, name)
    wrapper = make_wrapper(original)
    for mod in rkwso_modules():
        if vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, wrapper)


@pytest.mark.parametrize(
    "t", [catalog_scheme("wso3-p3-s3-a0.5-minus"), DIRK4], ids=lambda t: t.name
)
def test_one_analysis_builds_each_shared_quantity_once(monkeypatch, t):
    calls = dict.fromkeys(COUNTED, 0)

    def counting(name):
        def make(fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        return make

    for name in COUNTED:
        replace_everywhere(monkeypatch, name, counting(name))
    analyze(t)
    assert calls == dict.fromkeys(COUNTED, 1)


def test_routes_never_read_the_algebraic_wso(monkeypatch):
    t = catalog_scheme("wso3-p2-s2-minus")
    truth = orders.wso(t)

    def off_by_one(fn):
        return lambda *args, **kwargs: fn(*args, **kwargs) + 1

    replace_everywhere(monkeypatch, "wso", off_by_one)
    a = analyze(t)
    assert a.q_wso == truth + 1
    assert a.consistency["wso-subspace-route"] is False
    assert a.consistency["wso-resolvent-route"] is False


def _report(t, **options):
    tol = options.get("tol", Tolerances())
    return json.dumps(report_dict(analyze(t, **options), tol))


@pytest.mark.parametrize(
    "t, variants",
    [
        # c_1 = 1e-8 is zero under a tie tolerance of 1e-6, not by default
        (
            make_tableau([[1e-8, 0.0], [0.25, 0.75]], [0.5, 0.5], exact=False),
            [{"tol": Tolerances(abscissa_tie=1e-6)}, {"tol": Tolerances()}],
        ),
        (catalog_scheme("wso3-p3-s3-a0.5-minus"), [{"kcap": 1}, {"kcap": None}]),
    ],
)
def test_no_cache_outlives_a_call(t, variants):
    reports = []
    for options in variants + variants[:1]:
        reports.append(_report(t, **options))
        assert reports[-1] == _report(dataclasses.replace(t), **options)
    assert reports[0] != reports[1]  # the variants do change the report
