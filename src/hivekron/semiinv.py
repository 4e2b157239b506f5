"""Schofield semi-invariants: inverse-free lifts, exact evaluation, and
the exchange-relation check.  Their weights are the grading in diamonds.

A presentation is stored as a grid of "central indices": entry k in
position (source P_s, target P_t) stands for the unique path from t to s
passing through the k-th central arrow.  All lifted presentations used
here are inverse-free, so every entry is a single such path or zero.
"""

from __future__ import annotations

import random
from operator import mul
from typing import NamedTuple

from .diamonds import normalize_label
from .errors import DegenerateSample, Inconsistent
from .intlin import det

Matrix = list  # list of rows, each a list of ints


# ---------------------------------------------------------------------------
# presentations and evaluation


class Presentation(NamedTuple):
    """Block presentation P(sources) -> P(targets) with single-path entries.

    sources/targets are signed vertex labels of the flagged Kronecker
    quiver (positive k for P_k, negative for P_{-k}); grid[s][t] is a
    central index or 0 for the zero map.
    """
    sources: tuple
    targets: tuple
    grid: tuple  # tuple of tuples of ints

    def dual(self) -> "Presentation":
        sources = tuple(-t for t in self.targets)
        targets = tuple(-s for s in self.sources)
        grid = tuple(tuple(self.grid[s][t] for s in range(len(self.sources)))
                     for t in range(len(self.targets)))
        return Presentation(sources, targets, grid)


def lifted_presentation(i: int, j: int, n: int, dual: bool,
                        l: int, m: int) -> Presentation:
    """Inverse-free block presentation of the lifted semi-invariant."""
    i, j, n, dual = normalize_label(i, j, n, dual, l, m)
    if n == 1:
        t = max(i, j)
        return Presentation((t,), (-t,), ((1,),))
    if j == 0:
        return Presentation((i,), (-i,), ((n,),))
    r = (n - 2) // 2 if n % 2 == 0 else (n - 1) // 2
    sources = [i + j] + [l] * r
    targets = ([-i] if i >= 1 else []) + [-j] + [-l] * r
    nt = len(targets)
    jcol = 1 if i >= 1 else 0
    grid = [[0] * nt for _ in range(1 + r)]
    if i >= 1:
        grid[0][0] = n
    if r == 0:
        grid[0][jcol] = 1  # n = 2: the [1]-path
    else:
        # the chain of the alternating path: reading from P_{-j}, the
        # first central arrow is a_1, the inverted even ones live on the
        # diagonal of the square block
        grid[0][jcol + r] = n if n % 2 == 1 else n - 1
        for k in range(1, r + 1):
            grid[k][jcol + k] = 2 * k
            grid[k][jcol + k - 1] = 2 * k - 1
    pres = Presentation(tuple(sources), tuple(targets),
                        tuple(tuple(row) for row in grid))
    return pres.dual() if dual else pres


# ---------------------------------------------------------------------------
# integer representations


class Representation:
    """Integer point of the representation space of the flagged quiver.

    asc[k] has shape (k+1) x k, desc[k] shape k x (k+1) (k = 1..l-1),
    central[t] is l x l (t = 1..m).  Only the matrices are kept, so l is
    len(asc) + 1.  Path matrices are not kept either: each is a product of
    at most 2l small integer matrices, rebuilt on every request.
    """

    def __init__(self, asc, desc, central):
        self.asc = asc
        self.desc = desc
        self.central = central

    @classmethod
    def random(cls, l: int, m: int, rng: random.Random) -> "Representation":
        """Entries drawn uniformly from -5..5."""
        def rm(rows, cols):
            return [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        asc = {k: rm(k + 1, k) for k in range(1, l)}
        desc = {k: rm(k, k + 1) for k in range(1, l)}
        central = {t: rm(l, l) for t in range(1, m + 1)}
        return cls(asc, desc, central)

    def path_matrix(self, target: int, source: int, central_index: int) -> Matrix:
        """Matrix of the unique path target -> source through a central arrow.

        target = -x with x in [1,l], source = y in [1,l]; the result is the
        y-by-x composite desc_y ... desc_{l-1} . a_k . asc_{l-1} ... asc_x.
        """
        x, y = -target, source
        out = self.central[central_index]
        l = len(self.asc) + 1
        for k in range(l - 1, x - 1, -1):
            out = _mat_mul(out, self.asc[k])
        for k in range(l - 1, y - 1, -1):
            out = _mat_mul(self.desc[k], out)
        return out


def _mat_mul(A: Matrix, B: Matrix) -> Matrix:
    return [[sum(map(mul, row, col)) for col in zip(*B)] for row in A]


def eval_semi_invariant(p: Presentation, M: Representation) -> int:
    """Exact value det M(p) of a semi-invariant on an integer representation."""
    rows, cols = sum(map(abs, p.sources)), sum(map(abs, p.targets))
    if rows != cols:
        raise Inconsistent(f"block matrix is {rows}x{cols}")
    grand = []
    for s, ks in zip(p.sources, p.grid):
        # the |s| rows of source s: its path blocks side by side, a zero
        # block where the grid holds 0
        blocks = [M.path_matrix(t, s, k) if k else [[0] * abs(t)] * abs(s)
                  for t, k in zip(p.targets, ks)]
        grand += [sum(parts, []) for parts in zip(*blocks)]
    return det(grand)


# ---------------------------------------------------------------------------
# exchange-relation sampling


def vertex_value(v, M: Representation, l: int, m: int) -> int:
    """Evaluate the cluster variable sitting at a canonical quiver vertex."""
    if v.kind == "det":
        return det(M.central[v.n])
    return eval_semi_invariant(lifted_presentation(v.i, v.j, v.n, v.dual, l, m), M)


def check_exchange_relations(l: int, m: int, M: Representation,
                             quiver) -> list:
    """The mutable vertices whose exchange relation fails exact integer
    divisibility; empty when every relation holds.

    At each mutable vertex u of the lifted glued quiver the product of
    in-neighbor values plus/minus the product of out-neighbor values must
    be divisible by the value at u.  The relative sign is not normalized
    (per-variable signs of the lifts are not), so either sign is accepted.
    """
    values = {}
    for v in quiver.vertices:
        val = vertex_value(v, M, l, m)
        if val == 0:
            raise DegenerateSample(f"semi-invariant vanishes at {v}")
        values[v] = val
    failures = []
    for u in quiver.mutable:
        pin = 1
        for v, mult in quiver.arrows_in(u):
            pin *= values[v] ** mult
        pout = 1
        for w, mult in quiver.arrows_out(u):
            pout *= values[w] ** mult
        if (pin + pout) % values[u] and (pin - pout) % values[u]:
            failures.append(u)
    return failures
