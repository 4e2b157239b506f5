"""The names the benchmark's tracer wraps must exist in the program.

A name that is missing is reported by the tracer as absent and its layer
silently drops out of the per-layer metrics, so pin them here.
"""

import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


# deleted names the tracer still lists, and reports as absent: the CLI's
# cone cache, and kron's per-fibre count (kron counts through count_fibres)
GONE = {("hivekron.cli", "cached_cone"),
        ("hivekron.kron", "count_lattice_points")}


def test_wrapped_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    assert tracing.WRAPPED
    for modname, attr, _layer in tracing.WRAPPED:
        module = importlib.import_module(modname)
        if (modname, attr) in GONE:
            assert not hasattr(module, attr), f"{modname}.{attr}"
        else:
            assert callable(getattr(module, attr, None)), f"{modname}.{attr}"
