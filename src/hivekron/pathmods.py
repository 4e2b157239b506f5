"""Boundary path modules of the twisted quiver and their submodule chains.

Every module here is uniserial: a walk through the quiver, one basis
vector per visit.  Submodule dimension vectors are the visit counts of
path suffixes; they are the facet normals of the g-vector cone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .diamonds import bar_label
from .errors import Inconsistent, OutOfRange
from .quiver import VertexId, det_vertex, hive_vertex


@dataclass(frozen=True)
class PathModule:
    path: tuple          # visited vertices, socle last
    dim: tuple           # ((vertex, count), ...) sorted

    @property
    def total_dim(self) -> int:
        return len(self.path)

    def dim_at(self, v: VertexId) -> int:
        return dict(self.dim).get(v, 0)


def _module(path) -> PathModule:
    counts = Counter(path)
    dim = tuple(sorted(counts.items(), key=lambda kv: kv[0].sort_key()))
    return PathModule(tuple(path), dim)


def _descent_side(n: int, s0: bool) -> bool:
    # for a plain boundary vertex the walk descends the dual hive in odd
    # diamonds and the plain hive in even ones; dual vertices mirror
    return s0 != (n % 2 == 1)


def boundary_path(l: int, m: int, v: VertexId, quiver) -> PathModule:
    """The uniserial boundary module attached to a frozen non-det vertex.

    The walk starts at the partner vertex v*, crosses every diamond along
    the straight direction, reflects at the self-glued edge, and ends at
    v.  Every consecutive pair is checked to be an arrow of the twisted
    quiver.
    """
    if v not in quiver.frozen or v.kind != "hive":
        raise OutOfRange(f"{v} is not a boundary frozen vertex")
    label_of = bar_label(l, m)
    s0 = v.dual
    j0 = v.j
    if not (1 <= j0 <= l - 1):
        raise OutOfRange(f"{v} has no boundary column")

    path = []
    # b-stretch: from v* down through the diamonds to the self-glued edge
    for n in range(m, 1, -1):
        d_side = _descent_side(n, s0)
        c_side = not d_side
        top = l - j0 if n == m else l - j0 - 1  # entry vertex shared with n+1
        for y in range(top, -1, -1):
            path.append(label_of(n, j0, y, d_side))
        for d in range(1, j0 + 1):
            path.append(label_of(n, j0 - d, d, c_side))
    # a-stretch: from the edge-1 reflection point out to v
    q = j0
    for n in range(2, m + 1):
        for x in range(1, l - q + 1):
            path.append(label_of(n, x, q, s0))
        q = l - q
    if path[-1] != v:
        raise Inconsistent(f"walk ended at {path[-1]}, expected {v}")
    for a, b in zip(path, path[1:]):
        if not quiver.has_arrow(a, b):
            raise Inconsistent(f"missing arrow {a} -> {b} on the walk to {v}")
    return _module(path)


def diagonal_module(l: int, m: int, n: int, quiver) -> PathModule:
    """Uniserial module on the diagonal of diamond n with socle at det n."""
    if not (1 <= n <= m):
        raise OutOfRange(f"det index {n} not in [1,{m}]")
    dn = det_vertex(n)
    if n == 1:
        return _module([dn])
    heads = [s for (s, t) in quiver.arrows if t == dn and s.kind == "hive"]
    if len(heads) != 1:
        raise Inconsistent(f"det vertex {n} has {len(heads)} incoming arrows")
    chain = [heads[0]]
    diag = {hive_vertex(n, i, 0, False) for i in range(1, l)}
    while len(chain) < l - 1:
        preds = [s for s in diag if quiver.has_arrow(s, chain[0])]
        if len(preds) != 1:
            raise Inconsistent(f"diagonal chain of diamond {n} is not a path")
        chain.insert(0, preds[0])
    return _module(chain + [dn])


def submodule_dims(T: PathModule, strict: bool):
    """Dimension vectors of the (strict) nonzero submodules: path suffixes."""
    start = 1 if strict else 0
    out = []
    for k in range(start, len(T.path)):
        counts = Counter(T.path[k:])
        out.append(tuple(sorted(counts.items(), key=lambda kv: kv[0].sort_key())))
    if len(set(out)) != len(out):
        raise Inconsistent("suffix dimension vectors are not pairwise distinct")
    return out
