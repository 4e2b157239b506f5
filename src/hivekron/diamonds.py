"""Glued hive quivers: the lifted quiver with its grading and its twist.

Both quivers come from one walk over the hives (``_hive_steps``): for
each diamond n, its plain and its dual hive, each grid position and each
of the three arrow families, the walk names the source and the target
through a label map.  The lifted quiver labels positions canonically and
reverses every step of its odd diamonds; the twisted quiver uses the
even form in every diamond and relabels its odd diamonds.  ``_glue``
turns either walk into an ice quiver: within a diamond the two hives are
glued along the j = 0 edge (non-consistently: the two sides induce the
same arrows there, stored once); adjacent diamonds are glued
consistently (their induced arrows along the shared edge cancel).
"""

from __future__ import annotations

from functools import partial
from operator import mul

from .errors import Inconsistent, OutOfRange, as_ints
from .intlin import back_solve, hnf
from .quiver import (IceQuiver, VertexId, b_matrix, det_vertex, hive_vertex,
                     make_quiver, mutate_weights_seq, weight_defect)
from .semiinv import det_weight, normalize_label, sigma_lambda_weight


# ---------------------------------------------------------------------------
# hive coordinates


def hive_grid(l: int):
    """All hive coordinates (i,j) with 1 <= i+j <= l minus the two corners."""
    return [(i, j) for i in range(l + 1) for j in range(l + 1)
            if 1 <= i + j <= l and (i, j) not in ((l, 0), (0, l))]


def canonical_vertex(n: int, i: int, j: int, dual: bool,
                     l: int, m: int) -> VertexId:
    """Canonical representative of a raw hive label under the gluing rules."""
    i, j, n, dual = normalize_label(i, j, n, dual, l, m)
    return hive_vertex(n, i, j, dual)


# ---------------------------------------------------------------------------
# the walk and the gluing


def _hive_steps(l: int, m: int, label_of, families):
    """Every family arrow of every hive, as (n, family index, src, tgt).

    Ordered by diamond n, then plain before dual, then grid position,
    then family; ``families(n, dual)`` gives the three steps (dx, dy).
    """
    grid = hive_grid(l)
    gridset = set(grid)
    for n in range(2, m + 1):
        for dual in (False, True):
            steps = families(n, dual)
            for (x, y) in grid:
                src = label_of(n, x, y, dual)
                for k, (dx, dy) in enumerate(steps):
                    if (x + dx, y + dy) in gridset:
                        yield n, k, src, label_of(n, x + dx, y + dy, dual)


def _det_arrows(l: int, m: int, label_of):
    """The determinant-vertex arrows as (type, src, tgt).

    Diamond n's diagonal chain ends at grid position (l-1, 0) and points
    to det n, which points to both hives of diamond n.
    """
    out = [("bc", det_vertex(1), hive_vertex(1, 0, l - 1, False))]
    for n in range(2, m + 1):
        odd = n % 2 == 1
        out.append(("a", label_of(n, l - 1, 0, False), det_vertex(n)))
        for d in (False, True):
            tgt = hive_vertex(n, 0, l - 1, d) if odd else \
                hive_vertex(n, l - 1, 1, d)
            out.append(("b" if d != odd else "c", det_vertex(n), tgt))
    return out


def _edge_key(v: VertexId, l: int):
    """Identify the glued edge a vertex lies on, if any."""
    if v.kind != "hive":
        return None
    if v.n == 1:
        return ("edge1",)
    if v.j == 0:
        return ("diag", v.n)
    if v.n % 2 == 1 and v.i == 0:
        return ("right", v.n, v.dual)
    if v.n % 2 == 0 and v.i + v.j == l:
        return ("hyp", v.n, v.dual)
    return None


def _boundary_frozen(l: int, m: int) -> set:
    out = {det_vertex(n) for n in range(1, m + 1)}
    if m % 2 == 0:
        out |= {hive_vertex(m, i, l - i, d)
                for i in range(1, l) for d in (False, True)}
    else:
        out |= {hive_vertex(m, 0, j, d)
                for j in range(1, l) for d in (False, True)}
    return out


def _check_sizes(l: int, m: int):
    l, m = as_ints((l, m), "sizes l, m")
    if l < 2 or m < 2:
        raise OutOfRange(f"need l, m >= 2, got l={l}, m={m}")


def _glue(l: int, m: int, label_of, families) -> IceQuiver:
    """The glued ice quiver of one walk, with its determinant arrows.

    A step along a shared edge is counted in a bucket per direction; the
    two directions cancel and the net count, contributed by both glued
    sides, is halved.
    """
    _check_sizes(l, m)
    frozen = _boundary_frozen(l, m)
    verts = {det_vertex(n) for n in range(1, m + 1)}
    arrows: dict = {}
    edge_bucket: dict = {}
    for _, _, src, tgt in _hive_steps(l, m, label_of, families):
        verts.update((src, tgt))
        if src in frozen and tgt in frozen:
            continue
        ks = _edge_key(src, l)
        bucket = edge_bucket if ks is not None and ks == _edge_key(tgt, l) \
            else arrows
        bucket[(src, tgt)] = bucket.get((src, tgt), 0) + 1
    seen = set()
    for (s, t), fwd in edge_bucket.items():
        if (t, s) in seen:
            continue
        seen.add((s, t))
        back = edge_bucket.get((t, s), 0)
        net = fwd - back
        if net % 2 != 0:
            raise Inconsistent(
                f"unpaired shared-edge arrow {s}->{t} ({fwd} vs {back})")
        if net:
            a = (s, t) if net > 0 else (t, s)
            arrows[a] = arrows.get(a, 0) + abs(net) // 2
    for _, s, t in _det_arrows(l, m, label_of):
        if not (s in frozen and t in frozen):
            arrows[(s, t)] = arrows.get((s, t), 0) + 1
    return make_quiver(verts, frozen, arrows)


def _balanced(Q: IceQuiver, sigma: dict, name: str):
    bad = weight_defect(Q, sigma)
    if bad:
        raise Inconsistent(f"{name} quiver weights unbalanced at {bad[:4]}")
    return Q, sigma


def expected_vertex_count(l: int, m: int) -> int:
    """Glued-quiver vertex count (l-1)(l+2) + (l^2-1)(m-2), before dets."""
    return (l - 1) * (l + 2) + (l * l - 1) * (m - 2)


# ---------------------------------------------------------------------------
# the lifted glued quiver


def _tilde_families(n: int, dual: bool):
    steps = _bar_families(n, dual)
    return steps if n % 2 == 0 else tuple((-dx, -dy) for dx, dy in steps)


def build_tilde(l: int, m: int):
    """The lifted glued ice quiver with its weight configuration."""
    Q = _glue(l, m, partial(canonical_vertex, l=l, m=m), _tilde_families)
    sigma = {v: (sigma_lambda_weight(v.i, v.j, v.n, v.dual, l, m)
                 if v.kind == "hive" else det_weight(v.n, l, m))
             for v in Q.vertices}
    return _balanced(Q, sigma, "lifted")


# ---------------------------------------------------------------------------
# the twisted quiver, built directly in even form


def _bar_families(n: int, dual: bool):
    return ((1, 0), (0, -1), (-1, 1)) if not dual else \
           ((1, 0), (-1, 1), (0, -1))


def bar_label(l: int, m: int):
    """Vertex of the twisted quiver at hive point (x, y) of diamond n."""
    def label_of(n, x, y, dual):
        if n % 2 == 0:
            return canonical_vertex(n, x, y, dual, l, m)
        if y == 0:
            return hive_vertex(n, l - x, 0, False)
        if x == 0:
            return hive_vertex(n - 1, y, l - y, dual)
        if x + y == l:
            return hive_vertex(n, 0, x, dual)
        return hive_vertex(n, x, y, dual)
    return label_of


def bar_known_weight(v: VertexId, l: int, m: int):
    """Formula weight of a twisted-quiver vertex, None on odd interiors."""
    if v.kind == "det":
        return det_weight(v.n, l, m)
    if v.n % 2 == 1 and v.n >= 3:
        if v.j == 0:
            return sigma_lambda_weight(l - v.i, 0, v.n, False, l, m)
        if v.i >= 1 and v.i + v.j < l:
            return None
    return sigma_lambda_weight(v.i, v.j, v.n, v.dual, l, m)


def _solve_interior_weights(Q: IceQuiver, known: dict, dim: int) -> dict:
    """Solve B*sigma = 0 for the unknown weights, exactly and per coordinate.

    B's unknown columns are put in column echelon form B_u . U = M once;
    each coordinate of the right-hand side -B_k . sigma_k then costs one
    back-substitution w, and the unknown weights are U . w.
    """
    B = b_matrix(Q)
    unknown = [k for k, v in enumerate(B.cols) if v not in known]
    if not unknown:
        return {}
    fixed = [(k, known[v]) for k, v in enumerate(B.cols) if v in known]
    M, U, pivots, rank = hnf([[row[k] for k in unknown] for row in B.entries])
    if rank < len(unknown):
        raise Inconsistent(
            f"{len(unknown) - rank} interior weight rows undetermined")
    rhs = []
    for row in B.entries:
        terms = [(row[k], w) for k, w in fixed if row[k]]
        rhs.append([-sum(b * w[t] for b, w in terms) for t in range(dim)])
    x = []
    for target in zip(*rhs):
        # a unique rational solution that is not integral, or none at all
        w = back_solve(M, pivots, target)
        if w is None:
            raise Inconsistent(
                "interior weight system inconsistent or non-integral")
        x.append([sum(map(mul, u, w)) for u in U])
    return {B.cols[k]: tuple(xt[i] for xt in x) for i, k in enumerate(unknown)}


def build_bar(l: int, m: int):
    """The twisted glued ice quiver (all diamonds in even form) + grading."""
    Q = _glue(l, m, bar_label(l, m), _bar_families)
    sigma = {}
    for v in Q.vertices:
        w = bar_known_weight(v, l, m)
        if w is not None:
            sigma[v] = w
    sigma.update(_solve_interior_weights(Q, sigma, 2 * l + m))
    return _balanced(Q, sigma, "twisted")


# ---------------------------------------------------------------------------
# the twist as a mutation sequence


def _twist_word(l: int):
    """Interior mutation word of one hive realizing the twist.

    Nested row sweeps: for t = 1..l-2 mutate the interior rows y >= t,
    far row first, left to right within a row.  Total length C(l,3).
    """
    word = []
    for t in range(1, l - 1):
        for y in range(l - 2, t - 1, -1):
            for x in range(1, l - y):
                word.append((x, y))
    return word


def twist_sequence(l: int, m: int, n_odd: int):
    """Mutation sequence turning diamond ``n_odd`` into its even form.

    The dual hive runs the mirror word (x,y) -> (l-x-y, y); the two hives
    commute, so plain and dual mutations are emitted in alternation.
    """
    _check_sizes(l, m)
    if not (3 <= n_odd <= m and n_odd % 2 == 1):
        raise OutOfRange(
            f"twist applies to odd diamonds 3..m, got {n_odd}")
    seq = []
    for (x, y) in _twist_word(l):
        seq.append(hive_vertex(n_odd, x, y, False))
        seq.append(hive_vertex(n_odd, l - x - y, y, True))
    return seq


def twist_relabel(v: VertexId, l: int) -> VertexId:
    """Label map aligning the mutated quiver with the direct even form."""
    if v.kind == "hive" and v.n % 2 == 1 and v.n >= 3 and v.j == 0:
        return hive_vertex(v.n, l - v.i, 0, False)
    return v


def all_twists(l: int, m: int):
    seq = []
    for n in range(3, m + 1, 2):
        seq.extend(twist_sequence(l, m, n))
    return seq


def bar_via_mutation(l: int, m: int):
    """Route R1: mutate the lifted quiver along all twists, then relabel."""
    Q, sigma = build_tilde(l, m)
    Q2, sig2 = mutate_weights_seq(Q, sigma, all_twists(l, m))
    relabel = {v: twist_relabel(v, l) for v in Q2.vertices}
    arrows = {(relabel[s], relabel[t]): mult
              for (s, t), mult in Q2.arrows.items()}
    verts = [relabel[v] for v in Q2.vertices]
    frozen = {relabel[v] for v in Q2.frozen}
    return make_quiver(verts, frozen, arrows), \
        {relabel[v]: w for v, w in sig2.items()}


def twist_route_difference(l: int, m: int):
    """The first vertex, in sort order, at which the twist-mutated lifted
    quiver and the direct build differ (in presence, frozenness, an arrow
    at it or its weight), or None if they agree exactly."""
    routes = build_bar(l, m), bar_via_mutation(l, m)
    direct, mutated = ({v: (v in Q.frozen, sigma[v],
                            {a: k for a, k in Q.arrows.items() if v in a})
                        for v in Q.vertices} for Q, sigma in routes)
    return next((v for v in sorted(set(direct) | set(mutated),
                                   key=VertexId.sort_key)
                 if direct.get(v) != mutated.get(v)), None)
