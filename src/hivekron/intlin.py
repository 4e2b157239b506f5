"""Exact integer linear algebra: column echelon form, back-substitution,
determinant.

Every elimination of the package runs here, on lists of Python-int rows,
so no rational arithmetic and no rounding enter any result.
"""

from __future__ import annotations

from operator import mul


def hnf(rows):
    """Column reduction rows . U = M of an integer matrix, U unimodular.

    Returns (M, U, pivots, rank).  M is in column echelon form: pivots[row]
    is the column of that row's positive pivot, or None, pivot columns are
    0..rank-1 in row order, and columns rank.. of M are zero, so columns
    rank.. of U are a basis of the integer kernel of rows.  The column
    operations act on M stacked over U, which starts as the identity.
    """
    R = len(rows)
    C = len(rows[0]) if rows else 0
    MU = [list(r) for r in rows] + [[int(i == j) for j in range(C)]
                                    for i in range(C)]

    def colop_swap(a, b):
        for r in MU:
            r[a], r[b] = r[b], r[a]

    def colop_addmul(dst, src, f):
        for r in MU:
            r[dst] += f * r[src]

    def colop_negate(a):
        for r in MU:
            r[a] = -r[a]

    M = MU[:R]
    rank = 0
    pivots = [None] * R
    for row in range(R):
        piv = next((c for c in range(rank, C) if M[row][c] != 0), None)
        if piv is None:
            continue
        colop_swap(rank, piv)
        for c in range(rank + 1, C):
            while M[row][c] != 0:
                q = M[row][rank] // M[row][c]
                colop_addmul(rank, c, -q)
                colop_swap(rank, c)
        if M[row][rank] < 0:
            colop_negate(rank)
        pivots[row] = rank
        rank += 1
    return M, MU[R:], pivots, rank


def back_solve(M, pivots, target):
    """The integer w with M[:, :rank] . w = target, or None if there is none.

    Row by row, only the pivot columns of earlier rows and the row's own
    pivot are nonzero, so each pivot fixes one entry of w.
    """
    w = []
    for row, p, t in zip(M, pivots, target):
        num = t - sum(map(mul, row, w))
        if p is not None:
            q, r = divmod(num, row[p])
            if r:
                return None
            w.append(q)
        elif num:
            return None
    return w


def det(mat) -> int:
    """Exact determinant via fraction-free Gaussian elimination."""
    n = len(mat)
    if n == 0:
        return 1
    a = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                a[r][c] = (a[r][c] * a[k][k] - a[r][k] * a[k][c]) // prev
            a[r][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
