"""The g-vector cone, fibre polytopes, and exact lattice-point counts.

The cone is cut out by the submodule dimension vectors of the boundary
and diagonal modules; its fibres under the weight grading are enumerated
by a depth-first search over an integral parametrization of the fibre
lattice, pruned by exact interval propagation on blocks of integer boxes.
A batch of target weights reaches its facet constants and root boxes by
one integer product with a per-cone matrix, and a pass then bounds every
facet over every box of a block by one matrix product.  Both keep the
cone's own facet order, one facet per row.  A block holds one node per
column, so each bound of its boxes is one contiguous row.
Both products run on one number type per call, chosen before the first:
float32 when a proven bound keeps every value an exact integer below
2^24, float64 when it keeps them below 2^53 (one BLAS call each either
way), and Python integers otherwise.  A block's row cap is a number of
bytes, so a float32 block holds twice the nodes of a float64 one.
A block runs passes while most of its boxes still move; the boxes still
moving then go on with the next block, and the boxes at their fixpoint
are counted or branched.  A block that holds the whole frontier has no
next block to share passes with, so its moving boxes with two or more
open coordinates branch at once; only a box at its fixpoint is counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from operator import mul

from .diamonds import build_bar
from .errors import OutOfRange, UnboundedFibre, as_ints
from .intlin import back_solve, hnf
from .lp import OPTIMAL, float_bases, solve_lp
from .pathmods import boundary_path, diagonal_module, submodule_dims
from .quiver import VertexId


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

    @cached_property
    def geometry(self) -> _FibreGeometry:
        return _FibreGeometry(self)


@lru_cache(maxsize=None, typed=True)
def build_cone(l: int, m: int) -> Cone:
    """Facets from submodule dimension vectors; grading from the twist.

    Cached by type as well as value: 3.0 must reach build_bar's size
    check, not the cone of 3."""
    Q, sigma = build_bar(l, m)
    vorder = Q.vertices
    vindex = {v: k for k, v in enumerate(vorder)}

    def as_normal(dim_pairs):
        vec = [0] * len(vorder)
        for v, c in dim_pairs:
            vec[vindex[v]] = c
        return tuple(vec)

    facets = [as_normal(d) for n in range(1, m + 1)
              for d in submodule_dims(diagonal_module(l, m, n, Q),
                                      strict=False)]
    facets += [as_normal(d)
               for v in sorted((w for w in Q.frozen if w.kind == "hive"),
                               key=VertexId.sort_key)
               for d in submodule_dims(boundary_path(l, m, v, Q),
                                       strict=True)]
    grading = tuple(tuple(sigma[v]) for v in vorder)
    return Cone(l, m, vorder, tuple(facets), grading)


# ---------------------------------------------------------------------------
# counting


# (number type, bound): every integer of smaller magnitude than the bound
# is a number of the type, so a call's fibre map and block DFS run on the
# first type whose bound _FibreGeometry.fibres proves their values stay
# below, and on Python integers past them all
_EXACT_TYPES = (("float32", 2 ** 24), ("float64", 2 ** 53))
# the number types a call can run on, each with its copy of the per-cone
# matrices
_TYPES = tuple(t for t, _ in _EXACT_TYPES) + (object,)
# cap on rows x bytes per number x nonzeros of R in one block of nodes,
# so memory stays flat
_BLOCK_BYTES = 8 * 2 ** 15


class _Plan:
    """The facet matrix R laid out for the block DFS, in the cone's facet
    order: row f of every facet block is facet f.

    A block holds its nodes one per column: a node's box is one column
    u = [-lo | hi] of 2d upper bounds, so each bound of a block is one
    contiguous row.  Term c z_j of facet f is at most |c| u[j + d [c > 0]]
    over the box, so the upper bounds of the facets are S^T u + rf, with
    S^T the dense F x 2d matrix that holds |c| at (f, j + d [c > 0]); a
    facet without nonzeros (``empty`` lists them) has a zero row, and its
    bound is its constant.  The same term bounds u[t] for
    t = j + d [c < 0] by floor(facet_f / |c|) less the other half of
    coordinate j, u[t -+ d], so every bound reads one row of the extended
    facet block [facet ; facet[bf] // bc], which appends one quotient row
    per pair (facet, |c| > 1).  Column t of ``qruns`` lists the rows that
    bound u[t].  Each u[t] has one when R has nonzeros, as R must give
    every coordinate a term of each sign: a bounded cone's does, since an
    up certificate y >= 0 of z_j with sum_f -R[f][j] y_f = 1 needs some
    R[f][j] < 0, and a down certificate some R[f][j] > 0.

    ``dense`` maps each number type that ``_FibreGeometry.fibres``
    chooses from (``_TYPES``) to (S^T, bc as a column), both built once;
    bc holds the |c| of the quotient rows.  ``swap`` maps row t of u to
    t + d for t < d and to t - d past it: gathering u's rows by it puts
    the other half of each coordinate, u[t -+ d], at row t.
    """

    def __init__(self, R, d):
        import numpy as np
        nz = [(f, j, c) for f, row in enumerate(R) for j, c in enumerate(row)
              if c]
        self.nnz = len(nz)
        self.empty = np.array([f for f, row in enumerate(R) if not any(row)],
                              dtype=np.intp)
        S = [[0] * len(R) for _ in range(2 * d)]
        runs = [[] for _ in range(2 * d)]
        for f, j, c in nz:
            S[j + d * (c > 0)][f] = abs(c)
            runs[j + d * (c < 0)].append((f, abs(c)))
        pairs = sorted({p for run in runs for p in run if p[1] > 1})
        self.bf = np.array([f for f, _ in pairs], dtype=np.intp)
        bc = [a for _, a in pairs]
        self.dense = {np.dtype(t): (np.array(S, dtype=t).T.copy(),
                                    np.array(bc, dtype=t).reshape(-1, 1))
                      for t in _TYPES}
        ext = {p: len(R) + i for i, p in enumerate(pairs)}
        runs = [[ext.get(p, p[0]) for p in run] for run in runs]
        # each u[t]'s run, padded by repeating its own members: a minimum
        # over the padded column equals the minimum over the run
        width = max(map(len, runs), default=0)
        self.qruns = np.array([[run[i % len(run)] for run in runs]
                               for i in range(width)], dtype=np.intp)
        self.swap = np.roll(np.arange(2 * d), d)


def _tighten_block(plan, rf, u, fid, whole):
    """Tighten the nodes of a block (columns of u, of fibres fid) together;
    return (u, fid, widths) of the nodes it settles and (u, fid) of the
    nodes still moving, all nonempty, leaving u as it was.  The widths
    hi - lo of a settled node are a column of u[:d] + u[d:].

    A pass bounds every facet over each box by one matrix product,
    facet = S^T u + rf (rf: the node's fibre's constants), and lowers each
    u[t] to floor(facet_f / |c|) - u[t -+ d] over its terms (f, j, c):
    floor(rest / |c|), rest the facet's bound less the term's own
    |c| u[t -+ d], as the facet holds only where c z_j >= -rest.  A
    bound's terms are whole rows of the extended facet block, so the
    gather and its minimum read contiguous rows, and the other halves
    u[t -+ d] are one gather of u's rows by ``plan.swap``.  A node at its
    fixpoint stays in the pass, which leaves it unchanged.  Passes go on
    while more than 3/4 of the nodes moved and none emptied (lo > hi);
    after the first pass that breaks this, the nodes it left unchanged are
    at their fixpoint and settled, the empty are dropped and the others
    are still moving, so no pass reads an empty box.  When the block holds
    the whole frontier (whole), a moving node with two or more open
    coordinates is settled too: its box still holds every point of its
    node, so it can branch now, and a leaf is still always at its
    fixpoint.  A block that settles every node returns its own arrays,
    with no copies.
    """
    import numpy as np

    d = len(u) // 2
    if not plan.nnz:
        return u, fid, u[:d] + u[d:], u[:, :0], fid[:0]
    St, bc = plan.dense[u.dtype]
    while True:
        facet = St @ u
        facet += rf
        if len(bc):
            facet = np.concatenate((facet, facet[plan.bf] // bc))
        new = np.minimum.reduce(facet.take(plan.qruns, axis=0))
        np.subtract(new, u.take(plan.swap, axis=0), out=new)
        np.minimum(new, u, out=new)
        moved, u = np.logical_or.reduce(new < u, axis=0), new
        widths = u[:d] + u[d:]
        empty = np.minimum.reduce(widths, axis=None) < 0
        count = np.count_nonzero(moved)
        if empty or 4 * count <= 3 * len(fid):
            break
    if whole and count:
        moved &= np.add.reduce(widths > 0, axis=0) < 2
        count = np.count_nonzero(moved)
    if not (count or empty):
        return u, fid, widths, u[:, :0], fid[:0]
    still = ~moved
    if empty:
        nonempty = np.logical_and.reduce(widths >= 0, axis=0)
        still &= nonempty
        moved &= nonempty
    # compress selects columns faster than a mask index
    done = u.compress(still, axis=1)
    return (done, fid[still], done[:d] + done[d:], u.compress(moved, axis=1),
            fid[moved])


def _block_count(plan, rf, u):
    """Exact counts of the integer points z with R z + rf[:, k] >= 0 in
    the box u[:, k] = [-lo | hi], one fibre k per column, on float32 or
    float64 arrays of exact integers or on Python-int object arrays; row f
    of rf holds the constants of facet f.

    Depth first over blocks of nodes, one node per column.  A node is a
    box and the index of its fibre, which its children inherit; nodes of
    different fibres share blocks, each tightened against its own fibre's
    constants.  A fibre with lo > hi, or with a negative constant on a
    facet without nonzeros (in ``plan.empty``), counts 0 and enters no
    block.  A block off the stack is topped up from those below to the
    row cap, the most rows whose bytes per nonzero of R fit _BLOCK_BYTES,
    and tightened; the nodes it leaves still moving go back on the stack,
    to be tightened on with the next block, and only the nodes it settles
    are counted or branched: those at their fixpoint and, when the stack
    was empty after the top-up (the block holds the whole frontier), the
    moving nodes with two or more open coordinates.  A node at its
    fixpoint with at most one open coordinate is exact (every facet holds
    at its fixed coordinates, the free interval is its 1-D fibre) and
    adds its open width + 1 to its fibre's Python-int total.
    Others branch on their narrowest open coordinate z_j, lowest index
    first, into n = min(open width + 1, row cap) children: child k fixes
    z_j = lo_j + k, except the last, which keeps lo_j + n - 1 <= z_j <=
    hi_j, the rest of the interval.  Past the row cap in the block's
    running total of children, a node of more than two values makes
    n = 1 child, itself, so it goes back on the stack whole and branches
    in a later block, and a block makes at most 3 row caps of children.
    The row cap is at least 2, so a block's first branching node makes
    two children or more.
    """
    import numpy as np

    d = len(u) // 2
    # the row cap: rows x bytes per number x nonzeros of R <= _BLOCK_BYTES,
    # and at least 2: at one row, a node's one child is the node itself
    rows = max(2, _BLOCK_BYTES // (u.itemsize * max(plan.nnz, 1)))
    totals = [0] * u.shape[1]
    stack = []

    def push(u, fid):
        if len(fid) > rows:
            stack.extend((u[:, s:s + rows], fid[s:s + rows])
                         for s in range(0, len(fid), rows))
        elif len(fid):
            stack.append((u, fid))

    widths = u[:d] + u[d:]
    if len(plan.empty) or np.minimum.reduce(widths, axis=None, initial=0) < 0:
        fid = np.flatnonzero(
            np.logical_and.reduce(widths >= 0, axis=0)
            & np.logical_and.reduce(rf[plan.empty] >= 0, axis=0))
        u = u[:, fid]
    else:
        fid = np.arange(u.shape[1])
    push(u, fid)
    while stack:
        u, fid = stack.pop()
        while stack and len(fid) < rows:
            below, below_fid = stack.pop()
            k = rows - len(fid)
            u = np.concatenate((u, below[:, :k]), axis=1)
            fid = np.concatenate((fid, below_fid[:k]))
            if len(below_fid) > k:
                stack.append((below[:, k:], below_fid[k:]))
        u, fid, widths, moving, moving_fid = _tighten_block(
            plan, rf.take(fid, axis=1), u, fid, not stack)
        push(moving, moving_fid)
        if not len(fid):
            continue
        # a leaf's widths sum to at most its narrowest positive one
        key = np.where(widths, widths, np.inf)
        size = np.add.reduce(widths, axis=0)
        narrow = np.minimum.reduce(key, axis=0, initial=np.inf)
        leaf = size <= narrow
        leaves = np.count_nonzero(leaf)
        if leaves == len(fid):
            for k, w in zip(fid.tolist(), size.tolist()):
                totals[k] += int(w) + 1
            continue
        if leaves:
            for k, w in zip(fid[leaf].tolist(), size[leaf].tolist()):
                totals[k] += int(w) + 1
            narrow[leaf] = -1
        # n children on the narrowest open coordinate: one per value, at
        # most rows, none for a leaf, and one, the node itself, for a node
        # of more than two values past the block's row cap.  n is an exact
        # intp
        n = np.minimum(narrow + 1, rows).astype(np.intp)
        ends = n.cumsum()
        # under the row cap every node makes one child per value
        short = ends[-1] >= rows
        if ends[-1] > rows:
            n[(ends > rows) & (n > 2)] = 1
            ends = n.cumsum()
        first, j = ends - n, key.argmin(0)
        kids, fid = u.repeat(n, axis=1), fid.repeat(n)
        at = np.arange(len(fid))
        # child k of its parent fixes z_j = lo_j + k, and its last child
        # keeps lo_j + n - 1 <= z_j <= hi_j, the rest of the interval.  The
        # bounds are flat indices of kids, which take and put read in C
        # order (repeat makes a new C-order array), and ends - 1 is the last
        # child of a node or, for a leaf, of one before it (the block's last
        # child if there is none)
        lo_at = (j * len(fid)).repeat(n) + at
        hi_at = lo_at + d * len(fid)
        t = kids.take(lo_at) - (at - first.repeat(n))
        kids.put(lo_at, t)
        if short:
            # a last child's lo_j + n - 1 is its hi_j unless n was cut
            last = ends - 1
            t[last] = -kids.take(hi_at[last])
        kids.put(hi_at, -t)
        push(kids, fid)
    return totals


def _size_reduce(rows):
    """Integer size reduction of a lattice basis, in at most three passes.

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

    for _ in range(3):
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
    """Per-cone integer data shared by every fibre query, built on the
    first read of ``Cone.geometry`` and kept on that cone object.

    The grading's echelon form M = rows . U is computed once, so a target
    weight theta costs one back-substitution w, and the facet residuals
    are r0 = (facets . U) w = FU w.  R is the facet matrix on a kernel
    basis that is size-reduced against the facet image (a unimodular
    change, so counts are unaffected), kept as Python-int rows for the
    exact certificate checks, with max|R| for the magnitude guard.  Dual
    certificates, integer rows Y with one denominator D each, bound every
    reduced coordinate by y . r0.  A cone whose fibres are unbounded
    (``unbounded`` names a coordinate without a certificate) keeps no
    more; a bounded cone keeps R once more as the block DFS's plan.

    Everything the DFS reads off a fibre is linear in w, so it is one
    integer matrix K per bounded cone (rank x columns; see ``fibres``): a
    batch of weights becomes its facet constants and its root boxes by one
    exact product W K and one floor division, and no rational arithmetic
    runs per fibre.
    """

    def __init__(self, c: Cone):
        import numpy as np
        n = c.ambient_dim
        rows = [[g[t] for g in c.grading] for t in range(len(c.grading[0]))]
        self.M, U, self.pivots, self.rank = hnf(rows)
        Ut = list(zip(*U))
        FU = [[sum(map(mul, f, col)) for col in Ut] for f in c.facets]
        # kernel rows over their facet images: size reduction keeps each
        # tail the facet image of its head, so the tails are R's columns
        reduced = _size_reduce([list(Ut[k]) + [fu[k] for fu in FU]
                                for k in range(self.rank, n)])
        FU = [fu[:self.rank] for fu in FU]
        self.d = len(reduced)
        self.R = [[row[n + f] for row in reduced] for f in range(len(FU))]
        self.max_r = max((abs(x) for row in self.R for x in row), default=0)
        self.up_cert, self.dn_cert = self._certificates()
        self.unbounded = next((j for j, pair in
                               enumerate(zip(self.up_cert, self.dn_cert))
                               if None in pair), None)
        if self.unbounded is not None:
            return
        self.plan = _Plan(self.R, self.d)
        # the columns of K: FU's rows in facet order, then each certificate
        # premultiplied by FU, for [-lo | hi] = [dn | up]
        certs = self.dn_cert + self.up_cert
        FUt = list(zip(*FU))
        cols = FU + [[sum(map(mul, Y, col)) for col in FUt] for Y, _ in certs]
        dens = [D for _, D in certs]
        # the largest column 1-norm of K or denominator, at least 1, and
        # the factor by which the block DFS can outgrow it (see fibres)
        k_max = max([sum(map(abs, col)) for col in cols] + dens + [1])
        self.growth = k_max * (1 + (self.d + 1) * self.max_r)
        # K^T and D as a column, so a product lays its fibres out as the
        # block DFS does, one per column
        Kt = np.array(cols, dtype=object).reshape(len(cols), self.rank)
        D = np.array(dens, dtype=object).reshape(-1, 1)
        self.K = {t: (Kt.astype(t), D.astype(t)) for t in _TYPES}

    def _certificates(self):
        """Dual certificates (Y, D) bounding each reduced coordinate.

        y = Y / D >= 0 with (-R)^T y = e_j gives z_j <= y . r0 on
        {Rz + r0 >= 0}; the certificate is theta-independent.  The 2d LPs
        min 1.y of the right-hand sides +-e_j, every up one first, then
        every down one, share c and A: ``float_bases`` solves the first
        cold and the others, and then each failed one again, warm by a dual
        simplex.  y read on a suggested basis and rationalized is used only
        once it passes the exact check.  Anything else is a feasibility
        question for the exact simplex (objective 0), whose feasible point
        is a certificate and whose infeasibility alone means the coordinate
        is unbounded over some fibre (None).
        """
        F, d = len(self.R), self.d
        A_eq = [[-self.R[f][j] for f in range(F)] for j in range(d)]
        bs = [[sign * (k == j) for k in range(d)]
              for sign in (1, -1) for j in range(d)]
        cap = 3 * (F + d)
        certs = []
        for b, guess in zip(bs, float_bases([1] * F, A_eq, bs, maxit=cap)):
            cert = None
            if guess:
                y = [Fraction(0)] * F
                for k, v in guess.items():
                    y[k] = Fraction(v).limit_denominator(_CERT_DENOMINATOR)
                cert = _is_certificate(A_eq, b, y)
            if cert is None:
                st, y = solve_lp([0] * F, A_eq, b)
                cert = _is_certificate(A_eq, b, y) if st == OPTIMAL else None
                if st == OPTIMAL and cert is None:
                    raise ArithmeticError("exact feasible point fails check")
            certs.append(cert)
        return certs[:d], certs[d:]

    def fibres(self, thetas):
        """(on, rf, u) of the fibres at thetas: on lists the indices of the
        thetas on the grading, in order, and column k of each array belongs
        to theta on[k], the block DFS's layout.  Row f of rf is the
        constant of facet f, and u = [-lo | hi] is the certificate box;
        both are None when on is empty.  UnboundedFibre when the cone has
        an unbounded direction and some theta is on the grading; the
        grading is checked first, so thetas off it map to no columns.

        The w of the thetas are the columns of W^T, and P = K^T W^T is one
        product: rf is P's first F rows, one per facet, and u the rest of
        P floor-divided by D, the certificates' denominators, since a
        bound (Y . r0) // D equals ((Y . FU) . w) // D in integers.

        The call's one number type is chosen here: the first type of
        _EXACT_TYPES whose bound exceeds 2 max(max|w|, 1) growth (float32
        below 2^24, float64 below 2^53), and Python integers past both.
        k_max >= 1 bounds every column 1-norm of K and every entry of D, so
        every entry of W, K and D, every partial sum of a row of K^T times
        a column of W^T, and so every entry of rf and of u (D >= 1), is at
        most T = max(max|w|, 1) k_max in magnitude.  count_fibres' proof
        with this T keeps every value of the block DFS within
        T (1 + (d + 1) max_r) = max(max|w|, 1) growth.  So under the chosen
        type's bound every value of the call is an integer that the type
        holds exactly, and so are P's floor quotients.
        """
        import numpy as np
        on, ws = [], []
        for k, theta in enumerate(thetas):
            w = back_solve(self.M, self.pivots, theta)
            if w is not None:
                on.append(k)
                ws.append(w)
        if not ws:
            return on, None, None
        if self.unbounded is not None:
            raise UnboundedFibre("the grading fibres are unbounded in "
                                 f"direction {self.unbounded}")
        top = max(map(abs, chain.from_iterable(ws)), default=0)
        need = 2 * max(top, 1) * self.growth
        dtype = next((t for t, bound in _EXACT_TYPES if need < bound), object)
        Kt, D = self.K[dtype]
        P = Kt @ np.array(ws, dtype=dtype).T
        F = len(P) - 2 * self.d
        return on, P[:F], P[F:] // D


def count_fibres(c: Cone, thetas) -> list[int]:
    """Exact number of integer points of the fibre at each theta of thetas
    (2l+m ints each), in order: every fibre on the grading is counted in
    one block DFS, from the roots that ``_FibreGeometry.fibres`` maps the
    whole batch to in one product.

    The DFS runs on the number type that ``fibres`` chose for the batch,
    from the bound T = max(max|w|, 1) k_max of every constant of rf and
    every bound of a root box.  A pass reads only live boxes, and live
    boxes only shrink, so every entry of u is at most T in magnitude and a
    product |c| u[s] at most max_r T.  A facet has at most d products, so
    every partial sum of a row of S^T times a column of u, in whatever
    order BLAS adds, blocks or fuses them (an FMA rounds once, after its
    exact product), is at most d max_r T, and adding rf in place keeps
    the facet within T + d max_r T.  A quotient facet // |c|, less one
    entry of u, is then within B = (1 + (d + 1) max_r) T, and so is every
    candidate bound.  A width is at least -2 B, also on a node that a
    pass empties.  A node's summed widths and its number of children are
    at most 2 d T + 1 <= 2 B (max_r >= 1 when d > 0, as every coordinate
    has a certificate), and a leaf's count leaves the float type as its
    one open width.  So when 2 B is below the chosen type's bound in
    _EXACT_TYPES (2^24 for float32, 2^53 for float64) every value is an
    integer that the type holds exactly, and a sum, product, FMA, minimum
    or comparison of such integers, or a floor division (numpy derives it
    from the exact fmod), whose true result is one, returns it exactly.
    """
    thetas = [as_ints(theta, "theta") for theta in thetas]
    if any(len(theta) != 2 * c.l + c.m for theta in thetas):
        raise OutOfRange(f"theta must have length {2 * c.l + c.m}")
    geo = c.geometry
    counts = [0] * len(thetas)
    on, rf, u = geo.fibres(thetas)
    if on:
        for k, count in zip(on, _block_count(geo.plan, rf, u)):
            counts[k] = count
    return counts


def count_lattice_points(c: Cone, theta) -> int:
    """Exact number of integer points of the fibre at theta (2l+m ints)."""
    return count_fibres(c, [theta])[0]
