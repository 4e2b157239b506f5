"""Ice quivers, B-matrices, quiver mutation, and weight transport.

Vertices carry structured labels.  Arrows are stored as a multiset of
ordered pairs; arrows between two frozen vertices are never stored, so
every operation is automatically "up to arrows between frozen vertices".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import Inconsistent, OutOfRange
from .intlin import hnf


class VertexId(NamedTuple):
    kind: str   # "hive" or "det"
    n: int      # diamond index; for "det" the determinant index
    i: int      # hive coordinates (0 for det vertices)
    j: int
    dual: bool

    def sort_key(self):
        return (self.kind, self.n, self.dual, self.i, self.j)

    def __repr__(self):
        if self.kind == "det":
            return f"det{self.n}"
        tag = "v" if self.dual else ""
        return f"({self.i},{self.j})^{self.n}{tag}"


def hive_vertex(n: int, i: int, j: int, dual: bool = False) -> VertexId:
    return VertexId("hive", n, i, j, bool(dual))


def det_vertex(n: int) -> VertexId:
    return VertexId("det", n, 0, 0, False)


Arrow = tuple[VertexId, VertexId]
Weight = tuple[int, ...]


@dataclass(frozen=True)
class IceQuiver:
    vertices: tuple[VertexId, ...]
    frozen: frozenset[VertexId]
    arrows: dict[Arrow, int] = field(hash=False)

    def __post_init__(self):
        vs = set(self.vertices)
        for (s, t), m in self.arrows.items():
            if m <= 0:
                raise OutOfRange(f"nonpositive multiplicity on {s}->{t}")
            if s == t:
                raise OutOfRange(f"loop at {s}")
            if s not in vs or t not in vs:
                raise OutOfRange(f"arrow endpoint not a vertex: {s}->{t}")

    @property
    def mutable(self) -> tuple[VertexId, ...]:
        return tuple(v for v in self.vertices if v not in self.frozen)

    def arrows_in(self, v: VertexId) -> list[tuple[VertexId, int]]:
        return [(s, m) for (s, t), m in self.arrows.items() if t == v]

    def arrows_out(self, v: VertexId) -> list[tuple[VertexId, int]]:
        return [(t, m) for (s, t), m in self.arrows.items() if s == v]

    def has_arrow(self, s: VertexId, t: VertexId) -> bool:
        return (s, t) in self.arrows


def make_quiver(vertices: Iterable[VertexId], frozen: Iterable[VertexId],
                arrows: Mapping[Arrow, int]) -> IceQuiver:
    """Normalize and build an ice quiver (drops frozen-frozen arrows)."""
    verts = tuple(sorted(set(vertices), key=VertexId.sort_key))
    fr = frozenset(frozen)
    cleaned: dict[Arrow, int] = {}
    for (s, t), m in arrows.items():
        if m == 0:
            continue
        if s in fr and t in fr:
            continue
        cleaned[(s, t)] = cleaned.get((s, t), 0) + m
    # cancel oriented 2-cycles left over from raw input
    for (s, t) in list(cleaned):
        if (t, s) in cleaned and (s, t) in cleaned and s.sort_key() < t.sort_key():
            a, b = cleaned[(s, t)], cleaned[(t, s)]
            k = min(a, b)
            if a - k:
                cleaned[(s, t)] = a - k
            else:
                del cleaned[(s, t)]
            if b - k:
                cleaned[(t, s)] = b - k
            else:
                del cleaned[(t, s)]
    return IceQuiver(verts, fr, cleaned)


def mutate_quiver(Q: IceQuiver, u: VertexId) -> IceQuiver:
    """Fomin-Zelevinsky mutation at a mutable vertex u."""
    if u not in set(Q.vertices):
        raise OutOfRange(f"{u} is not a vertex")
    if u in Q.frozen:
        raise OutOfRange(f"cannot mutate at frozen vertex {u}")
    ins = Q.arrows_in(u)
    outs = Q.arrows_out(u)
    new: dict[Arrow, int] = dict(Q.arrows)
    for v, m in ins:
        del new[(v, u)]
    for w, m in outs:
        del new[(u, w)]
    # compose v -> u -> w, then reverse the arrows at u; make_quiver drops
    # frozen-frozen arrows and cancels the oriented 2-cycles
    for v, mv in ins:
        for w, mw in outs:
            new[(v, w)] = new.get((v, w), 0) + mv * mw
    for v, m in ins:
        new[(u, v)] = new.get((u, v), 0) + m
    for w, m in outs:
        new[(w, u)] = new.get((w, u), 0) + m
    return make_quiver(Q.vertices, Q.frozen, new)


@dataclass(frozen=True)
class BMatrix:
    rows: tuple[VertexId, ...]      # mutable vertices
    cols: tuple[VertexId, ...]      # all vertices
    entries: tuple[tuple[int, ...], ...]


def b_matrix(Q: IceQuiver) -> BMatrix:
    """Signed arrow-count matrix, rows indexed by mutable vertices."""
    cols = Q.vertices
    rows = Q.mutable
    col_index = {v: k for k, v in enumerate(cols)}
    mat = [[0] * len(cols) for _ in rows]
    row_index = {u: k for k, u in enumerate(rows)}
    for (s, t), m in Q.arrows.items():
        if s in row_index:
            mat[row_index[s]][col_index[t]] += m
        if t in row_index:
            mat[row_index[t]][col_index[s]] -= m
    return BMatrix(rows, cols, tuple(tuple(r) for r in mat))


def b_matrix_rank(Q: IceQuiver) -> int:
    """Rank of B(Q) over the rationals, read off the echelon form of B^T."""
    return hnf(list(zip(*b_matrix(Q).entries)))[3]


WeightConfig = dict  # VertexId -> Weight


def _weight_sum(sigma: Mapping[VertexId, Weight], arrows, dim: int) -> list:
    """The sum of m sigma(v) over the arrows (v, m), in one pass."""
    acc = [0] * dim
    for v, m in arrows:
        w = sigma[v]
        for k in range(dim):
            acc[k] += m * w[k]
    return acc


def weight_defect(Q: IceQuiver, sigma: Mapping[VertexId, Weight]) -> list[VertexId]:
    """Mutable vertices where the in-sum differs from the out-sum."""
    dim = len(next(iter(sigma.values())))
    return [u for u in Q.mutable
            if _weight_sum(sigma, Q.arrows_in(u), dim)
            != _weight_sum(sigma, Q.arrows_out(u), dim)]


def _transport(Q: IceQuiver, sigma: Mapping[VertexId, Weight],
               u: VertexId) -> WeightConfig:
    """The weight mutation at u: u gets its in-sum minus its old weight."""
    if u not in Q.vertices:
        raise OutOfRange(f"{u} is not a vertex")
    if u in Q.frozen:
        raise OutOfRange(f"cannot mutate weights at frozen vertex {u}")
    acc = _weight_sum(sigma, Q.arrows_in(u), len(sigma[u]))
    return {**sigma, u: tuple(a - b for a, b in zip(acc, sigma[u]))}


def mutate_weights_seq(Q: IceQuiver, sigma: Mapping[VertexId, Weight],
                       seq: Sequence[VertexId]) -> tuple[IceQuiver, WeightConfig]:
    """Transport weights along a mutation sequence, checked at both ends."""
    bad = weight_defect(Q, sigma)
    if bad:
        raise OutOfRange(f"in/out weight sums differ at {bad[:3]}")
    sig = dict(sigma)
    for u in seq:
        sig = _transport(Q, sig, u)
        Q = mutate_quiver(Q, u)
    bad = weight_defect(Q, sig)
    if bad:
        raise Inconsistent(f"transport broke the configuration at {bad[:3]}")
    return Q, sig
