"""The g-vector cone, fibre polytopes, and exact lattice-point counts.

The cone is cut out by the submodule dimension vectors of the boundary
and diagonal modules; its fibres under the weight grading are enumerated
by a depth-first search over an integral parametrization of the fibre
lattice, pruned by exact interval propagation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .diamonds import build_bar
from .errors import OutOfRange, UnboundedFibre, as_ints
from .intlin import back_solve, hnf
from .lp import OPTIMAL, float_basis, solve_lp
from .pathmods import boundary_path, diagonal_module, submodule_dims
from .quiver import VertexId, vertex_from_json, vertex_to_json


@dataclass(frozen=True)
class Cone:
    l: int
    m: int
    vertices: tuple                 # canonical vertex order
    facets: tuple                   # tuple of integer normal tuples
    grading: tuple                  # row per vertex, length 2l+m

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices)


def _normalize_normal(vec):
    g = 0
    for x in vec:
        g = math.gcd(g, abs(x))
    if g > 1:
        return tuple(x // g for x in vec)
    return tuple(vec)


@lru_cache(maxsize=None)
def build_cone(l: int, m: int) -> Cone:
    """Facets from submodule dimension vectors; grading from the twist."""
    Q, sigma = build_bar(l, m)
    vorder = Q.vertices
    vindex = {v: k for k, v in enumerate(vorder)}

    def as_normal(dim_pairs):
        vec = [0] * len(vorder)
        for v, c in dim_pairs:
            vec[vindex[v]] = c
        return _normalize_normal(vec)

    facets = []
    seen = set()
    for n in range(1, m + 1):
        T = diagonal_module(l, m, n, Q)
        for d in submodule_dims(T, strict=False):
            vec = as_normal(d)
            if vec not in seen:
                seen.add(vec)
                facets.append(vec)
    for v in sorted((w for w in Q.frozen if w.kind == "hive"),
                    key=VertexId.sort_key):
        T = boundary_path(l, m, v, Q)
        for d in submodule_dims(T, strict=True):
            vec = as_normal(d)
            if vec not in seen:
                seen.add(vec)
                facets.append(vec)
    grading = tuple(tuple(sigma[v]) for v in vorder)
    return Cone(l, m, vorder, tuple(facets), grading)


# ---------------------------------------------------------------------------
# counting


# int64 magnitude below which the DFS arithmetic cannot overflow
_INT64_SAFE = 2 ** 61


def _tighten(R, res, lo, hi, idx):
    """Propagate the facets over the free coordinates idx to a fixpoint.

    Facet f gives c_j z_j >= -res_f - (best case of the other free
    coordinates over their boxes); exact floor division tightens lo and hi
    in place.  Returns False when the box is empty.
    """
    import numpy as np

    sub = R[:, idx]
    pos = sub > 0
    neg = sub < 0
    if bool((res[~(pos | neg).any(axis=1)] < 0).any()):
        return False
    has_pos, has_neg = bool(pos.any()), bool(neg.any())
    pos_div = np.where(pos, sub, 1)
    neg_div = np.where(neg, sub, 1)
    Rp, Rn = np.maximum(sub, 0), np.minimum(sub, 0)
    while True:
        lo_i, hi_i = lo[idx], hi[idx]
        maxc = Rp * hi_i + Rn * lo_i
        rest = (res + maxc.sum(axis=1))[:, None] - maxc
        changed = False
        if has_pos:
            new_lo = np.where(pos, -(rest // pos_div), lo_i).max(axis=0)
            if bool((new_lo > lo_i).any()):
                lo[idx] = new_lo
                changed = True
        if has_neg:
            new_hi = np.where(neg, (-rest) // neg_div, hi_i).min(axis=0)
            if bool((new_hi < hi_i).any()):
                hi[idx] = new_hi
                changed = True
        if bool((lo[idx] > hi[idx]).any()):
            return False
        if not changed:
            return True


def _np_rec(R, res, lo, hi, idx):
    """Exact DFS over the free coordinates idx: propagate, branch narrowest."""
    import numpy as np

    if not _tighten(R, res, lo, hi, idx):
        return 0
    widths = hi[idx] - lo[idx]
    free = widths > 0
    if np.count_nonzero(free) <= 1:
        # at the fixpoint every facet holds at the fixed coordinates, and the
        # bounds of the one remaining coordinate are exactly its 1-D fibre
        return int(widths.sum()) + 1
    fixed = idx[~free]
    if fixed.size:
        res = res + R[:, fixed] @ lo[fixed]
    idx, widths = idx[free], widths[free]
    k = int(np.argmin(widths))
    j = int(idx[k])
    rest = np.delete(idx, k)
    col = R[:, j]
    total = 0
    base = res + int(lo[j]) * col
    for _ in range(int(lo[j]), int(hi[j]) + 1):
        total += _np_rec(R, base, lo.copy(), hi.copy(), rest)
        base = base + col
    return total


def _np_count(geo, r0, lo, hi, workers: int = 1):
    """Exact count by the vectorized DFS, on int64 or on Python integers.

    Boxes only shrink, so the bound taken on the initial boxes covers every
    intermediate value; the geometry's int64 matrix is used when it is
    below _INT64_SAFE, object arrays of Python integers otherwise.
    """
    import numpy as np

    max_b = max([abs(x) for x in lo] + [abs(x) for x in hi] + [1])
    max_res = max((abs(x) for x in r0), default=0)
    safe = max_res + (2 * geo.d + 2) * geo.max_r * max_b < _INT64_SAFE
    dtype = np.int64 if safe else object
    R = geo.R64 if safe else np.array(geo.R, dtype=object)
    res0 = np.array(r0, dtype=dtype)
    lo0 = np.array(lo, dtype=dtype)
    hi0 = np.array(hi, dtype=dtype)
    idx = np.arange(geo.d)
    if workers > 1 and geo.d:
        # split the widest coordinate of the tightened root box
        if not _tighten(R, res0, lo0, hi0, idx):
            return 0
        j = int(np.argmax(hi0 - lo0))
        if hi0[j] > lo0[j]:
            col = R[:, j]
            rest = np.delete(idx, j)
            branches = [(R, res0 + v * col, lo0.copy(), hi0.copy(), rest)
                        for v in range(int(lo0[j]), int(hi0[j]) + 1)]
            import multiprocessing as mp
            ctx = mp.get_context("fork")
            with ctx.Pool(processes=min(workers, len(branches))) as pool:
                return sum(pool.starmap(_np_rec, branches))
    return _np_rec(R, res0, lo0, hi0, idx)


def _size_reduce(rows, passes=3):
    """Bounded-pass integer size reduction of a lattice basis.

    Each pass sorts by norm and reduces every row against the
    Gram-Schmidt directions of the shorter ones (nearest-integer
    coefficients, ties rounded down).  Gram-Schmidt is kept integral
    (Cohen, A Course in Computational Algebraic Number Theory, 2.6.7):
    dets[j] is the Gram determinant of rows 0..j and lam[i][j] equals
    dets[j] * mu_ij.  All row operations are unimodular, so the spanned
    lattice is unchanged.  The rows must be linearly independent.
    """
    n = len(rows)
    b = [list(r) for r in rows]
    if n <= 1:
        return b

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def gram_step(u, k, x, y):
        # exact: Cohen's recursion divides by the previous Gram determinant
        return (dets[k] * u - x * y) // (dets[k - 1] if k else 1)

    for _ in range(passes):
        b.sort(key=lambda v: dot(v, v))
        dets, lam = [], []
        changed = False
        for i in range(n):
            li = []
            for j in range(i):
                u = dot(b[i], b[j])
                for k in range(j):
                    u = gram_step(u, k, li[k], lam[j][k])
                li.append(u)
            for j in range(i - 1, -1, -1):
                r, rem = divmod(li[j], dets[j])
                if 2 * rem > dets[j]:
                    r += 1
                if r:
                    b[i] = [x - r * y for x, y in zip(b[i], b[j])]
                    li[j] -= r * dets[j]
                    for k in range(j):
                        li[k] -= r * lam[j][k]
                    changed = True
            u = dot(b[i], b[i])
            for k in range(i):
                u = gram_step(u, k, li[k], li[k])
            dets.append(u)
            lam.append(li)
        if not changed:
            break
    return b


# largest denominator a float certificate entry is rationalized to
_CERT_DENOMINATOR = 10 ** 6


def _is_certificate(A_eq, b, y):
    """(Y, D) with y = Y / D, D the least common denominator, if y >= 0
    and A_eq . y = b (checked in integers); None otherwise."""
    if any(v < 0 for v in y):
        return None
    D = math.lcm(*(v.denominator for v in y))
    Y = [v.numerator * (D // v.denominator) for v in y]
    if all(sum(map(mul, row, Y)) == D * t for row, t in zip(A_eq, b)):
        return Y, D
    return None


class _FibreGeometry:
    """Per-cone integer data shared by every fibre query.

    The grading's echelon form M = rows . U is computed once; a target
    weight theta then costs one back-substitution w and the facet residuals
    r0 = (facets . U) w.  R is the facet matrix on a kernel basis that is
    size-reduced against the facet image (a unimodular change, so counts
    are unaffected), kept as Python-int rows for the exact certificate
    checks and once as the int64 matrix R64 with max|R| for the DFS.  Dual
    certificates, integer rows Y with one denominator D each, bound every
    reduced coordinate by a floor division of Y . r0, so no rational
    arithmetic runs per fibre.
    """

    def __init__(self, c: Cone):
        n = c.ambient_dim
        rows = [[g[t] for g in c.grading] for t in range(len(c.grading[0]))]
        self.M, U, self.pivots, rank = hnf(rows)
        self.FU = [[sum(f[v] * U[v][k] for v in range(n)) for k in range(rank)]
                   for f in c.facets]
        kernel = [[u[k] for u in U] for k in range(rank, n)]
        if kernel:
            embedded = [list(kv) + [sum(map(mul, f, kv)) for f in c.facets]
                        for kv in kernel]
            kernel = [row[:n] for row in _size_reduce(embedded)]
        self.d = len(kernel)
        self.R = [[sum(map(mul, f, kv)) for kv in kernel] for f in c.facets]
        self.max_r = max((abs(x) for row in self.R for x in row), default=0)
        import numpy as np
        # an R past int64 never passes _np_count's guard
        self.R64 = (np.array(self.R, dtype=np.int64) if self.max_r < 2 ** 63
                    else None)
        self.up_cert, self.dn_cert = self._certificates()

    def _certificates(self):
        """Dual certificates (Y, D) bounding each reduced coordinate.

        y = Y / D >= 0 with (-R)^T y = e_j gives z_j <= y . r0 on
        {Rz + r0 >= 0}; the certificate is theta-independent.  The simplex
        run in floats suggests an optimal basis of min 1.y; y read on that
        basis and rationalized is used only once it passes the exact check.
        Anything else goes to the exact simplex, whose dual infeasibility
        alone means the coordinate is unbounded over some fibre (None).
        """
        F, d = len(self.R), self.d
        A_eq = [[-self.R[f][j] for f in range(F)] for j in range(d)]
        ups, dns = [], []
        cap = 3 * (F + d)
        for j in range(d):
            for sign, out in ((1, ups), (-1, dns)):
                b = [sign if k == j else 0 for k in range(d)]
                cert = None
                guess = float_basis([1] * F, A_eq, b, maxit=cap)
                if guess:
                    y = [Fraction(0)] * F
                    for k, v in guess.items():
                        y[k] = Fraction(v).limit_denominator(_CERT_DENOMINATOR)
                    cert = _is_certificate(A_eq, b, y)
                if cert is None:
                    st, _, y = solve_lp([1] * F, A_eq=A_eq, b_eq=b,
                                        free=False, phase2_maxit=cap)
                    if st == OPTIMAL:
                        cert = _is_certificate(A_eq, b, y)
                        if cert is None:
                            raise ArithmeticError("exact optimum fails check")
                out.append(cert)
        return ups, dns

    def solve_theta(self, theta):
        """Facet residuals r0 of an integer point of the grading at theta."""
        w = back_solve(self.M, self.pivots, theta)
        if w is None:
            return None
        return [sum(map(mul, row, w)) for row in self.FU]

    def boxes(self, r0):
        lo, hi = [], []
        for j, (up, dn) in enumerate(zip(self.up_cert, self.dn_cert)):
            if up is None or dn is None:
                raise UnboundedFibre(
                    f"the grading fibres are unbounded in direction {j}")
            hi.append(sum(map(mul, up[0], r0)) // up[1])
            lo.append(-(sum(map(mul, dn[0], r0)) // dn[1]))
        return lo, hi


@lru_cache(maxsize=None)
def _geometry(c: Cone) -> _FibreGeometry:
    return _FibreGeometry(c)


def count_lattice_points(c: Cone, theta, workers: int = 1) -> int:
    """Exact number of integer points of the fibre at theta (2l+m ints)."""
    if workers < 1:
        raise OutOfRange(f"worker count must be >= 1, got {workers}")
    theta = as_ints(theta, "theta")
    if len(theta) != 2 * c.l + c.m:
        raise OutOfRange(f"theta must have length {2 * c.l + c.m}")
    geo = _geometry(c)
    r0 = geo.solve_theta(theta)
    if r0 is None:
        return 0
    lo, hi = geo.boxes(r0)
    return _np_count(geo, r0, lo, hi, workers=workers)


# ---------------------------------------------------------------------------
# serialization


def cone_to_json(c: Cone) -> str:
    doc = {
        "l": str(c.l),
        "m": str(c.m),
        "vertices": [vertex_to_json(v) for v in c.vertices],
        "facets": [[str(x) for x in f] for f in c.facets],
        "grading": [[str(x) for x in g] for g in c.grading],
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def cone_from_json(text: str) -> Cone:
    doc = json.loads(text)
    return Cone(int(doc["l"]), int(doc["m"]),
                tuple(vertex_from_json(v) for v in doc["vertices"]),
                tuple(tuple(int(x) for x in f) for f in doc["facets"]),
                tuple(tuple(int(x) for x in g) for g in doc["grading"]))
