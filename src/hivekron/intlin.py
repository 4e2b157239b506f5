"""Exact integer linear algebra: column echelon form, back-substitution,
determinant.

Every elimination of the package runs here, on lists of Python ints, so
no rational arithmetic and no rounding enter any result.
"""

from __future__ import annotations

from operator import mul


def hnf(rows):
    """Column reduction rows . U = M of an integer matrix, U unimodular.

    Returns (M, U, pivots, rank), M and U as lists of rows.  M is in column
    echelon form: pivots[row] is the column of that row's positive pivot,
    or None, pivot columns are 0..rank-1 in row order, and columns rank..
    of M are zero, so columns rank.. of U are a basis of the integer kernel
    of rows.  The column operations act on one list per column, M's
    column over U's, with U starting as the identity.
    """
    R, C = len(rows), len(rows[0]) if rows else 0
    cols = [[row[c] for row in rows] + [int(i == c) for i in range(C)]
            for c in range(C)]
    rank = 0
    pivots = [None] * R
    for row in range(R):
        piv = next((c for c in range(rank, C) if cols[c][row] != 0), None)
        if piv is None:
            continue
        cols[rank], cols[piv] = cols[piv], cols[rank]
        for c in range(rank + 1, C):
            while cols[c][row] != 0:
                q = cols[rank][row] // cols[c][row]
                cols[rank], cols[c] = cols[c], [
                    x - q * y for x, y in zip(cols[rank], cols[c])]
        if cols[rank][row] < 0:
            cols[rank] = [-x for x in cols[rank]]
        pivots[row] = rank
        rank += 1
    MU = [[col[i] for col in cols] for i in range(R + C)]
    return MU[:R], MU[R:], pivots, rank


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
