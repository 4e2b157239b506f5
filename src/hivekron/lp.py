"""Linear programming: one dense two-phase simplex on a numpy tableau.

The same tableau code runs on an object array of Fractions, where every
pivot is exact, or on float64 with tolerance ``_FLOAT_TOL``.  The
entering column follows Dantzig's rule and, after a burn-in, Bland's,
which guarantees termination on degenerate problems.  ``solve_lp`` is
the exact solver; its variables are free unless ``free=False``.
``float_basis`` runs in floats and only suggests a basis: whatever a
caller derives from it must be certified exactly before use.
"""

from __future__ import annotations

from fractions import Fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_FLOAT_TOL = 1e-9


def _pivot(T, basis, r, c):
    """Bring column c into the basis at row r."""
    import numpy as np

    T[r] /= T[r, c]
    col = T[:, c].copy()
    col[r] = 0
    if T.dtype == object:
        # Fraction products are dear: touch only the rows that change
        rows = np.flatnonzero(col)
        T[rows] -= np.outer(col[rows], T[r])
    else:
        T -= np.outer(col, T[r])
    basis[r] = c


def _simplex(T, basis, ncols, tol, maxit=None):
    """Minimize the last row of T over columns [0, ncols).

    Dantzig's rule for speed; after a burn-in the entering rule switches
    to Bland's.  Ratio ties within tol go to the lowest basic column.
    Returns OPTIMAL, UNBOUNDED, or None when ``maxit`` pivots are used up.
    """
    import numpy as np

    if not ncols:
        return OPTIMAL
    burn_in = 20 * (len(T) + ncols)
    it = 0
    while maxit is None or it < maxit:
        red = T[-1, :ncols]
        # Bland's column is the first True of red < -tol, its argmax
        c = int(np.argmin(red) if it < burn_in else np.argmax(red < -tol))
        if red[c] >= -tol:
            return OPTIMAL
        col = T[:-1, c]
        rows = np.flatnonzero(col > tol)
        if not rows.size:
            return UNBOUNDED
        ratios = T[rows, -1] / col[rows]
        ties = rows[ratios <= ratios.min() + tol]
        _pivot(T, basis, min(ties, key=lambda k: basis[k]), c)
        it += 1
    return None


def _two_phase(c, A, b, exact, maxit):
    """Minimize c.x subject to A.x = b, x >= 0.

    Returns (status, T, basis); at OPTIMAL, row r of T ends in the value
    of column basis[r].  An exact run (Fractions, tolerance 0) caps only
    phase 2, and a hit cap leaves a feasible point reported as OPTIMAL.
    A float run caps both phases, and a hit cap gives status None.
    """
    import numpy as np

    m, n = len(b), len(c)
    dtype, tol = (object, 0) if exact else (float, _FLOAT_TOL)
    # tableau [A | I | b] with b >= 0: the artificial columns start basic
    T = np.zeros((m + 1, n + m + 1), dtype=dtype)
    T[:m, :n] = np.array(A, dtype=dtype).reshape(m, n)
    T[:m, -1] = b
    T[:m][T[:m, -1] < 0] *= -1
    T[np.arange(m), n + np.arange(m)] = 1
    T[m, :n] = -T[:m, :n].sum(axis=0)
    T[m, -1] = -T[:m, -1].sum()
    if exact:
        # Python ints in an object array would divide to floats
        T = np.frompyfunc(Fraction, 1, 1)(T)
    basis = list(range(n, n + m))
    status = _simplex(T, basis, n, tol, None if exact else maxit)
    if status != OPTIMAL:
        return status, T, basis
    if T[m, -1] < -tol:
        return INFEASIBLE, T, basis
    for r in range(m):
        if basis[r] >= n:
            nonzero = np.flatnonzero(abs(T[r, :n]) > tol)
            if nonzero.size:
                _pivot(T, basis, r, int(nonzero[0]))
    cost = np.zeros(n + m + 1, dtype=dtype)
    cost[:n] = c
    T[m] = cost - cost[basis] @ T[:m]
    status = _simplex(T, basis, n, tol, maxit)
    if exact and status is None:
        status = OPTIMAL
    return status, T, basis


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, free=True,
             phase2_maxit=None):
    """Minimize c.x subject to A_ub.x <= b_ub and A_eq.x = b_eq.

    Variables are free by default; with ``free=False`` they are required
    to be nonnegative.  Returns (status, value, x) in exact Fractions.
    ``phase2_maxit`` truncates the optimization phase: the returned point
    is then feasible but possibly suboptimal (callers that only need a
    feasible dual certificate use this).
    """
    A_ub, b_ub = A_ub or [], b_ub or []
    A_eq, b_eq = A_eq or [], b_eq or []
    n, nub = len(c), len(A_ub)
    # standard form: x = x+ - x- when free, one slack column per A_ub row
    signs = (1, -1) if free else (1,)
    A = [[s * a for s in signs for a in row] + [int(k == i) for k in range(nub)]
         for i, row in enumerate(A_ub)]
    A += [[s * a for s in signs for a in row] + [0] * nub for row in A_eq]
    cost = [s * x for s in signs for x in c] + [0] * nub
    status, T, basis = _two_phase(cost, A, list(b_ub) + list(b_eq), True,
                                  phase2_maxit)
    if status != OPTIMAL:
        return status, None, None
    x = [Fraction(0)] * n
    for k, v in zip(basis, T[:-1, -1]):
        if k < len(signs) * n:
            x[k % n] += signs[k // n] * v
    val = sum(Fraction(f) * v for f, v in zip(c, x))
    return OPTIMAL, val, x


def float_basis(c, A_eq, b_eq, maxit):
    """Suggest an optimal basis of min c.x s.t. A_eq.x = b_eq, x >= 0.

    The simplex in floats, each phase capped at ``maxit`` pivots.
    Returns {basic column: its float value}, or None when the float
    search finds the problem infeasible or unbounded or hits the cap:
    only an exact method may conclude anything from that.
    """
    status, T, basis = _two_phase(c, A_eq, b_eq, False, maxit)
    if status != OPTIMAL:
        return None
    return {k: float(T[r, -1]) for r, k in enumerate(basis) if k < len(c)}
