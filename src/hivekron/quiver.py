"""Ice quivers, B-matrices, quiver mutation, and weight transport.

Vertices carry structured labels.  Arrows are stored as a multiset of
ordered pairs; arrows between two frozen vertices are never stored, so
every operation is automatically "up to arrows between frozen vertices".
"""

from __future__ import annotations

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


class IceQuiver:
    """Two quivers are equal when their fields are; the hash leaves out
    the arrows, a dict."""

    def __init__(self, vertices: tuple[VertexId, ...],
                 frozen: frozenset[VertexId], arrows: dict[Arrow, int]):
        self.vertices = vertices
        self.frozen = frozen
        self.arrows = arrows
        vs = set(vertices)
        for (s, t), m in arrows.items():
            if m <= 0:
                raise OutOfRange(f"nonpositive multiplicity on {s}->{t}")
            if s == t:
                raise OutOfRange(f"loop at {s}")
            if s not in vs or t not in vs:
                raise OutOfRange(f"arrow endpoint not a vertex: {s}->{t}")

    def __eq__(self, other):
        if other.__class__ is not IceQuiver:
            return NotImplemented
        return (self.vertices, self.frozen, self.arrows) == \
            (other.vertices, other.frozen, other.arrows)

    def __hash__(self):
        return hash((self.vertices, self.frozen))

    @property
    def mutable(self) -> tuple[VertexId, ...]:
        return tuple(v for v in self.vertices if v not in self.frozen)

    def arrows_in(self, v: VertexId) -> list[tuple[VertexId, int]]:
        return [(s, m) for (s, t), m in self.arrows.items() if t == v]

    def arrows_out(self, v: VertexId) -> list[tuple[VertexId, int]]:
        return [(t, m) for (s, t), m in self.arrows.items() if s == v]


def make_quiver(vertices: Iterable[VertexId], frozen: Iterable[VertexId],
                arrows: Mapping[Arrow, int]) -> IceQuiver:
    """Normalize and build an ice quiver: drop zero and frozen-frozen
    arrows, net each oriented 2-cycle onto its larger side, and keep a loop
    for IceQuiver to reject."""
    verts = tuple(sorted(set(vertices), key=VertexId.sort_key))
    fr = frozenset(frozen)
    cleaned: dict[Arrow, int] = {}
    for (s, t), m in arrows.items():
        if m and not (s in fr and t in fr):
            cleaned[(s, t)] = cleaned.get((s, t), 0) + m
    for (s, t) in list(cleaned):
        if s != t and (s, t) in cleaned and (t, s) in cleaned:
            net = cleaned.pop((s, t)) - cleaned.pop((t, s))
            if net:
                cleaned[(s, t) if net > 0 else (t, s)] = abs(net)
    return IceQuiver(verts, fr, cleaned)


def mutate_quiver(Q: IceQuiver, u: VertexId) -> IceQuiver:
    """Fomin-Zelevinsky mutation at a mutable vertex u."""
    if u not in Q.vertices:
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


def b_matrix(Q: IceQuiver) -> tuple[tuple[int, ...], ...]:
    """Signed arrow-count matrix: rows follow Q.mutable, columns Q.vertices."""
    col_index = {v: k for k, v in enumerate(Q.vertices)}
    row_index = {u: k for k, u in enumerate(Q.mutable)}
    mat = [[0] * len(col_index) for _ in row_index]
    for (s, t), m in Q.arrows.items():
        if s in row_index:
            mat[row_index[s]][col_index[t]] += m
        if t in row_index:
            mat[row_index[t]][col_index[s]] -= m
    return tuple(tuple(r) for r in mat)


def b_matrix_rank(Q: IceQuiver) -> int:
    """Rank of B(Q) over the rationals, read off the echelon form of B^T."""
    return hnf(list(zip(*b_matrix(Q))))[3]


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


def mutate_weights_seq(Q: IceQuiver, sigma: Mapping[VertexId, Weight],
                       seq: Sequence[VertexId]) -> tuple[IceQuiver, WeightConfig]:
    """Transport weights along a mutation sequence, checked at both ends:
    at each u, which mutate_quiver checks, u's weight becomes its in-sum in
    the unmutated quiver minus its old weight."""
    bad = weight_defect(Q, sigma)
    if bad:
        raise OutOfRange(f"in/out weight sums differ at {bad[:3]}")
    sig = dict(sigma)
    for u in seq:
        P, Q = Q, mutate_quiver(Q, u)
        acc = _weight_sum(sig, P.arrows_in(u), len(sig[u]))
        sig[u] = tuple(a - b for a, b in zip(acc, sig[u]))
    bad = weight_defect(Q, sig)
    if bad:
        raise Inconsistent(f"transport broke the configuration at {bad[:3]}")
    return Q, sig
