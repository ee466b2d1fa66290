"""The benchmark's tracer contract.

`bench/run.py` reads each per-layer figure in `PER_LAYER` from the call
statistics of the function or method it names, and `bench/tracer.py` finds
those by name.  A rename or a move in the package would zero a figure
silently, so every function-backed name must be among the names the tracer
wraps.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

# figures with no function behind them
NOT_TRACED = {"cli.import_ms", "trace.overhead_pct"}


def test_every_per_layer_function_is_wrapped():
    t = tracer.Tracer()
    try:
        t.install()
        wrapped = set(t.stats)
    finally:
        t.uninstall()
    wanted = {
        name.rsplit(".", 1)[0] for name, _ in run.PER_LAYER if name not in NOT_TRACED
    }
    assert wanted, "PER_LAYER names no function"
    assert sorted(wanted - wrapped) == []
