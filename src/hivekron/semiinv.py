"""Schofield semi-invariants: inverse-free lifts, exact evaluation, weights.

A presentation is stored as a grid of "central indices": entry k in
position (source P_s, target P_t) stands for the unique path from t to s
passing through the k-th central arrow.  All lifted presentations used
here are inverse-free, so every entry is a single such path or zero.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import DegenerateSample, Inconsistent, OutOfRange
from .intlin import det

Matrix = list  # list of rows, each a list of ints


# ---------------------------------------------------------------------------
# weight formulas


def _e(l: int, m: int) -> list:
    return [0] * (2 * l + m)


def _sigma_coord(t: int, l: int) -> int:
    """Index of sigma(t) in the (sigma(-1..-l), sigma(1..l), lambda) layout."""
    if t < 0:
        return -t - 1
    return l + t - 1


def _lambda_coord(k: int, l: int) -> int:
    return 2 * l + k - 1


def normalize_label(i: int, j: int, n: int, dual: bool, l: int, m: int):
    """Resolve a raw hive label to its canonical identification class;
    OutOfRange unless (i, j) is in the hive of size l, 1 <= n, and the
    normalized n is at most m."""
    if not (0 <= i and 0 <= j and 1 <= i + j <= l) or (i, j) in ((l, 0), (0, l)):
        raise OutOfRange(f"({i},{j}) outside the hive of size {l}")
    if n < 1:
        raise OutOfRange(f"bad diamond index {n}")
    if j == 0:
        dual = False
    if i == 0 and n % 2 == 0:
        n -= 1
        if n == 1:
            dual = False
    if i + j == l and n % 2 == 1 and n >= 3:
        n -= 1
    if n > m:
        raise OutOfRange(f"diamond index {n} out of range for m={m}")
    return i, j, n, dual


def sigma_lambda_weight(i: int, j: int, n: int, dual: bool,
                        l: int, m: int) -> tuple:
    """(sigma, lambda) weight of the lifted semi-invariant at (i,j,n,dual).

    Coordinate order: sigma(-1..-l), sigma(1..l), lambda(1..m).
    """
    i, j, n, dual = normalize_label(i, j, n, dual, l, m)
    w = _e(l, m)
    if n == 1:
        # edge-1 vertex (0,j)^1 = (j,0)^1: single path through a_1
        t = max(i, j)
        w[_sigma_coord(t, l)] += 1
        w[_sigma_coord(-t, l)] -= 1
        w[_lambda_coord(1, l)] += t
        return tuple(w)
    if j == 0:
        w[_sigma_coord(i, l)] += 1
        w[_sigma_coord(-i, l)] -= 1
        w[_lambda_coord(n, l)] += i
        return tuple(w)
    r = (n - 2) // 2 if n % 2 == 0 else (n - 1) // 2
    if dual:
        if i >= 1:
            w[_sigma_coord(i, l)] += 1
        w[_sigma_coord(j, l)] += 1
        w[_sigma_coord(-(i + j), l)] -= 1
    else:
        w[_sigma_coord(i + j, l)] += 1
        if i >= 1:
            w[_sigma_coord(-i, l)] -= 1
        w[_sigma_coord(-j, l)] -= 1
    w[_sigma_coord(l, l)] += r
    w[_sigma_coord(-l, l)] -= r
    # lambda part: same for the plain and dual lifts
    w[_lambda_coord(n, l)] += i
    top = n if n % 2 == 1 else n - 1
    for k in range(1, top + 1):
        w[_lambda_coord(k, l)] += j if k % 2 == 1 else l - j
    return tuple(w)


def det_weight(n: int, l: int, m: int) -> tuple:
    """Weight of the n-th central determinant."""
    w = _e(l, m)
    w[_sigma_coord(l, l)] += 1
    w[_sigma_coord(-l, l)] -= 1
    w[_lambda_coord(n, l)] += l
    return tuple(w)


# ---------------------------------------------------------------------------
# presentations and evaluation


@dataclass(frozen=True)
class Presentation:
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
    central[t] is l x l (t = 1..m).  Path matrices are not kept: each is a
    product of at most 2l small integer matrices, rebuilt on every request.
    """

    def __init__(self, l: int, m: int, asc, desc, central):
        self.l = l
        self.m = m
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
        return cls(l, m, asc, desc, central)

    def path_matrix(self, target: int, source: int, central_index: int) -> Matrix:
        """Matrix of the unique path target -> source through a central arrow.

        target = -x with x in [1,l], source = y in [1,l]; the result is the
        y-by-x composite desc_y ... desc_{l-1} . a_k . asc_{l-1} ... asc_x.
        """
        x, y = -target, source
        out = self.central[central_index]
        for k in range(self.l - 1, x - 1, -1):
            out = _mat_mul(out, self.asc[k])
        for k in range(self.l - 1, y - 1, -1):
            out = _mat_mul(self.desc[k], out)
        return out


def _mat_mul(A: Matrix, B: Matrix) -> Matrix:
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    assert not A or len(A[0]) == inner
    out = [[0] * cols for _ in range(rows)]
    for r in range(rows):
        Ar = A[r]
        Or = out[r]
        for k in range(inner):
            a = Ar[k]
            if a:
                Bk = B[k]
                for c in range(cols):
                    Or[c] += a * Bk[c]
    return out


def eval_semi_invariant(p: Presentation, M: Representation) -> int:
    """Exact value det M(p) of a semi-invariant on an integer representation."""
    src_dims = [abs(s) for s in p.sources]
    tgt_dims = [abs(t) for t in p.targets]
    if sum(src_dims) != sum(tgt_dims):
        raise Inconsistent(f"block matrix is {sum(src_dims)}x{sum(tgt_dims)}")
    size = sum(src_dims)
    grand = [[0] * size for _ in range(size)]
    r0 = 0
    for si, s in enumerate(p.sources):
        c0 = 0
        for ti, t in enumerate(p.targets):
            k = p.grid[si][ti]
            if k:
                block = M.path_matrix(t, s, k)
                for r in range(len(block)):
                    row = block[r]
                    for c in range(len(row)):
                        grand[r0 + r][c0 + c] = row[c]
            c0 += tgt_dims[ti]
        r0 += src_dims[si]
    return det(grand)


# ---------------------------------------------------------------------------
# exchange-relation sampling


@dataclass
class RelationReport:
    l: int
    m: int
    checked: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def vertex_value(v, M: Representation, l: int, m: int) -> int:
    """Evaluate the cluster variable sitting at a canonical quiver vertex."""
    if v.kind == "det":
        return det(M.central[v.n])
    return eval_semi_invariant(lifted_presentation(v.i, v.j, v.n, v.dual, l, m), M)


def check_exchange_relations(l: int, m: int, M: Representation,
                             quiver) -> RelationReport:
    """Verify exact integer divisibility of every exchange relation.

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
    checked = 0
    for u in quiver.mutable:
        pin = 1
        for v, mult in quiver.arrows_in(u):
            pin *= values[v] ** mult
        pout = 1
        for w, mult in quiver.arrows_out(u):
            pout *= values[w] ** mult
        checked += 1
        if (pin + pout) % values[u] and (pin - pout) % values[u]:
            failures.append(u)
    return RelationReport(l, m, checked, failures)
