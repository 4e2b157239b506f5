"""Spans recorded from outside the program, around the names callers look up.

``Tracer.install`` replaces module attributes with wrappers that record a
span per call: layer name, start, end, parent span and, for an integer
result, the result itself.  Spans stay in memory until ``dump`` writes
them out.  A name that the installed version of the program no longer has
is reported as absent; the benchmark carries on without it.

Self time of a span is its duration minus the durations of its direct
children.  Calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

# (module, attribute, layer): the names the benchmark, kron.kronecker and
# the CLI look up when they call into the next layer.
WRAPPED = (
    ("hivekron", "kronecker", "kron.kronecker"),
    ("hivekron", "build_cone", "polyhedra.build_cone"),
    ("hivekron", "count_lattice_points", "polyhedra.count"),
    ("hivekron.kron", "build_cone", "polyhedra.build_cone"),
    ("hivekron.kron", "count_lattice_points", "polyhedra.count"),
    ("hivekron.polyhedra", "solve_lp", "lp.solve_lp"),
    ("hivekron.polyhedra", "build_bar", "diamonds.build_bar"),
    ("hivekron.polyhedra", "submodule_dims", "pathmods.submodule_dims"),
    ("hivekron.cli", "kronecker", "kron.kronecker"),
    ("hivekron.cli", "cached_cone", "cli.cached_cone"),
)

# every layer with a span; launcher.py adds cli.main around the CLI
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in WRAPPED)) + ("cli.main",)

NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, info]
        self.absent = []
        self._stack = []
        self._swaps = None       # (module, attribute, original, wrapper)

    def _open(self, name, info=None):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1, info]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, info=None):
        rec = self._open(name, info)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, fn, layer):
        def traced(*args, **kwargs):
            rec = self._open(layer)
            try:
                out = fn(*args, **kwargs)
                if isinstance(out, int):
                    rec[INFO] = out
                return out
            finally:
                self._close(rec)
        return traced

    def install(self):
        """Put the wrappers in place; the first call looks the names up."""
        if self._swaps is None:
            self._swaps = []
            for modname, attr, layer in WRAPPED:
                try:
                    module = importlib.import_module(modname)
                except ImportError:
                    self.absent.append(f"{modname}.{attr}")
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.absent.append(f"{modname}.{attr}")
                    continue
                self._swaps.append((module, attr, fn, self._wrap(fn, layer)))
        for module, attr, _, traced in self._swaps:
            setattr(module, attr, traced)

    def uninstall(self):
        """Put the original functions back."""
        for module, attr, fn, _ in self._swaps or ():
            setattr(module, attr, fn)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"absent": self.absent, "spans": self.spans}, fh)


def load(path):
    with open(path) as fh:
        doc = json.load(fh)
    return doc["spans"], doc["absent"]


def self_times(spans):
    """Self time of each span, in the order of ``spans``."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def descendants(spans, root):
    """Indices of the spans below ``root`` (children follow their parent)."""
    inside = {root}
    out = []
    for i in range(root + 1, len(spans)):
        if spans[i][PARENT] in inside:
            inside.add(i)
            out.append(i)
    return out
