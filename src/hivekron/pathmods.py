"""Boundary path modules of the twisted quiver and their submodule chains.

Every module here is uniserial, and is passed as its walk through the
quiver: a tuple of vertices, socle last, one basis vector per visit.  So
T.count(v) is its dimension at v, len(T) its total dimension and T[-1]
its socle.  Submodule dimension vectors are the visit counts of the
walk's suffixes; they are the facet normals of the g-vector cone.
"""

from __future__ import annotations

from collections import Counter

from .diamonds import bar_label
from .errors import Inconsistent, OutOfRange
from .quiver import VertexId, det_vertex, hive_vertex


def _descent_side(n: int, s0: bool) -> bool:
    # for a plain boundary vertex the walk descends the dual hive in odd
    # diamonds and the plain hive in even ones; dual vertices mirror
    return s0 != (n % 2 == 1)


def boundary_path(l: int, m: int, v: VertexId, quiver) -> tuple:
    """The walk of the uniserial boundary module attached to a frozen
    non-det vertex, socle last.

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
        if (a, b) not in quiver.arrows:
            raise Inconsistent(f"missing arrow {a} -> {b} on the walk to {v}")
    return tuple(path)


def diagonal_module(l: int, m: int, n: int, quiver) -> tuple:
    """The walk of the uniserial module on the diagonal of diamond n: l - 1
    chain vertices (none when n = 1), then its socle det n."""
    if not (1 <= n <= m):
        raise OutOfRange(f"det index {n} not in [1,{m}]")
    dn = det_vertex(n)
    if n == 1:
        return (dn,)
    heads = [s for (s, t) in quiver.arrows if t == dn and s.kind == "hive"]
    if len(heads) != 1:
        raise Inconsistent(f"det vertex {n} has {len(heads)} incoming arrows")
    chain = [heads[0]]
    diag = {hive_vertex(n, i, 0, False) for i in range(1, l)}
    while len(chain) < l - 1:
        preds = [s for s in diag if (s, chain[0]) in quiver.arrows]
        if len(preds) != 1:
            raise Inconsistent(f"diagonal chain of diamond {n} is not a path")
        chain.insert(0, preds[0])
    return (*chain, dn)


def submodule_dims(T: tuple, strict: bool):
    """Dimension vectors of the (strict) nonzero submodules of the module
    with walk T: the visit counts of its suffixes, as sorted (vertex,
    count) pairs.  They are pairwise distinct, since suffixes of different
    lengths have different totals."""
    return [tuple(sorted(Counter(T[k:]).items(),
                         key=lambda kv: kv[0].sort_key()))
            for k in range(1 if strict else 0, len(T))]
