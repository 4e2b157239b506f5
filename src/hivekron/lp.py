"""Exact rational linear programming (dense two-phase simplex).

Small dense problems only; every pivot is done in Fraction arithmetic
with Bland-style anti-cycling.  Variables are nonnegative by default;
``free=True`` splits each variable into a difference of nonnegatives.
``float_basis`` runs the same method in floating point; it only
suggests a basis, and whatever a caller derives from it must be
certified exactly before use.
"""

from __future__ import annotations

from fractions import Fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _pivot(T, basis, r, c):
    piv = T[r][c]
    if piv != 1:
        T[r] = [x / piv for x in T[r]]
    Tr = T[r]
    for k in range(len(T)):
        if k != r:
            f = T[k][c]
            if f != 0:
                T[k] = [a - f * b for a, b in zip(T[k], Tr)]
    basis[r] = c


def _simplex(T, basis, ncols, maxit=None):
    """Minimize the last row over columns [0, ncols).

    Dantzig's rule for speed; after a burn-in the entering rule switches
    to Bland's, which guarantees termination on degenerate problems.
    With ``maxit`` the search may stop early at a feasible point.
    """
    burn_in = 20 * (len(T) + ncols)
    it = 0
    while True:
        it += 1
        if maxit is not None and it > maxit:
            return OPTIMAL
        obj = T[-1]
        if it <= burn_in:
            c = None
            best_red = 0
            for k in range(ncols):
                if obj[k] < best_red:
                    best_red = obj[k]
                    c = k
        else:
            c = next((k for k in range(ncols) if obj[k] < 0), None)
        if c is None:
            return OPTIMAL
        best = None
        for r in range(len(T) - 1):
            a = T[r][c]
            if a > 0:
                ratio = T[r][-1] / a
                if best is None or ratio < best[0] or \
                        (ratio == best[0] and basis[r] < basis[best[1]]):
                    best = (ratio, r)
        if best is None:
            return UNBOUNDED
        _pivot(T, basis, best[1], c)


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, free=True,
             phase2_maxit=None):
    """Minimize c.x subject to A_ub.x <= b_ub and A_eq.x = b_eq.

    Variables are free by default; with ``free=False`` they are required
    to be nonnegative.  Returns (status, value, x) in exact Fractions.
    ``phase2_maxit`` truncates the optimization phase: the returned point
    is then feasible but possibly suboptimal (callers that only need a
    feasible dual certificate use this).
    """
    A_ub = A_ub or []
    b_ub = b_ub or []
    A_eq = A_eq or []
    b_eq = b_eq or []
    n = len(c)

    def expand(row):
        row = [Fraction(x) for x in row]
        return row + [-x for x in row] if free else row

    nv = 2 * n if free else n
    nub = len(A_ub)
    rows = [expand(a) for a in A_ub] + [expand(a) for a in A_eq]
    rhs = [Fraction(b) for b in b_ub] + [Fraction(b) for b in b_eq]
    m_rows = len(rows)
    # orient rows to nonnegative rhs; track slack signs for ub rows
    slack_sign = []
    for r in range(m_rows):
        sgn = 1
        if rhs[r] < 0:
            rows[r] = [-x for x in rows[r]]
            rhs[r] = -rhs[r]
            sgn = -1
        slack_sign.append(sgn if r < nub else 0)
    # a slack column with +1 sign can start basic; others need artificials
    art_rows = [r for r in range(m_rows) if slack_sign[r] != 1]
    nslack = nub
    nart = len(art_rows)
    ncols = nv + nslack + nart
    art_col = {r: nv + nslack + k for k, r in enumerate(art_rows)}
    T = []
    basis = []
    for r in range(m_rows):
        row = rows[r] + [Fraction(0)] * (nslack + nart) + [rhs[r]]
        if r < nub:
            row[nv + r] = Fraction(slack_sign[r])
        if r in art_col:
            row[art_col[r]] = Fraction(1)
            basis.append(art_col[r])
        else:
            basis.append(nv + r)
        T.append(row)
    # phase 1
    if nart:
        obj = [Fraction(0)] * (ncols + 1)
        for r in art_rows:
            obj = [a - b for a, b in zip(obj, T[r])]
        for r in art_rows:
            obj[art_col[r]] = Fraction(0)
        T.append(obj)
        _simplex(T, basis, nv + nslack)
        if -T[-1][-1] != 0:
            return INFEASIBLE, None, None
        T.pop()
        for r in range(m_rows):
            if basis[r] >= nv + nslack:
                col = next((k for k in range(nv + nslack) if T[r][k] != 0), None)
                if col is not None:
                    Tfull = T + [[Fraction(0)] * (ncols + 1)]
                    _pivot(Tfull, basis, r, col)
                    T = Tfull[:-1]
    # phase 2
    cost = ([Fraction(x) for x in c] + ([-Fraction(x) for x in c] if free else [])
            + [Fraction(0)] * (nslack + nart)) + [Fraction(0)]
    obj = cost[:]
    for r in range(m_rows):
        f = cost[basis[r]]
        if f != 0:
            obj = [a - f * b for a, b in zip(obj, T[r])]
    T.append(obj)
    status = _simplex(T, basis, nv + nslack, maxit=phase2_maxit)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [Fraction(0)] * n
    for r in range(m_rows):
        k = basis[r]
        if k < n:
            x[k] += T[r][-1]
        elif free and k < nv:
            x[k - n] -= T[r][-1]
    val = sum(Fraction(f) * v for f, v in zip(c, x))
    return OPTIMAL, val, x


# ---------------------------------------------------------------------------
# floating-point guess of an optimal basis


_FLOAT_TOL = 1e-9


def _float_pivot(T, basis, r, c):
    import numpy as np

    T[r] /= T[r, c]
    f = T[:, c].copy()
    f[r] = 0
    T -= np.outer(f, T[r])
    basis[r] = c


def _float_simplex(T, basis, ncols, maxit):
    """Float twin of ``_simplex`` (Dantzig's rule, ratio ties to the lowest
    basic column); None when ``maxit`` pivots are used up."""
    import numpy as np

    for _ in range(maxit):
        red = T[-1, :ncols]
        c = int(np.argmin(red)) if ncols else 0
        if not ncols or red[c] >= -_FLOAT_TOL:
            return OPTIMAL
        col = T[:-1, c]
        rows = np.flatnonzero(col > _FLOAT_TOL)
        if not rows.size:
            return UNBOUNDED
        ratios = T[rows, -1] / col[rows]
        ties = rows[ratios <= ratios.min() + _FLOAT_TOL]
        _float_pivot(T, basis, min(ties, key=lambda k: basis[k]), c)
    return None


def float_basis(c, A_eq, b_eq, maxit):
    """Suggest an optimal basis of min c.x s.t. A_eq.x = b_eq, x >= 0.

    Dense two-phase simplex in floats, each phase capped at ``maxit``
    pivots.  Returns {basic column: its float value}, or None when the
    float search finds the problem infeasible or unbounded or hits the
    cap: only an exact method may conclude anything from that.
    """
    import numpy as np

    A = np.array(A_eq, dtype=float).reshape(len(A_eq), len(c))
    b = np.array(b_eq, dtype=float)
    m, n = A.shape
    flip = b < 0
    A[flip] = -A[flip]
    b[flip] = -b[flip]
    # tableau [A | I | b]: the artificials start basic
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    basis = list(range(n, n + m))
    if _float_simplex(T, basis, n, maxit) != OPTIMAL \
            or T[m, -1] < -_FLOAT_TOL:
        return None
    for r in range(m):
        if basis[r] >= n:
            nonzero = np.flatnonzero(np.abs(T[r, :n]) > _FLOAT_TOL)
            if nonzero.size:
                _float_pivot(T, basis, r, int(nonzero[0]))
    cost = np.zeros(n + m + 1)
    cost[:n] = c
    T[m] = cost - cost[basis] @ T[:m]
    if _float_simplex(T, basis, n, maxit) != OPTIMAL:
        return None
    return {k: float(T[r, -1]) for r, k in enumerate(basis) if k < n}
