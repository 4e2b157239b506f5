"""Linear programming: one dense two-phase simplex on a numpy tableau.

The same tableau code runs on an object array of Fractions, where every
pivot is exact, or on float64 with tolerance ``_FLOAT_TOL``.  The
entering column follows Dantzig's rule and, after a burn-in, Bland's,
which guarantees termination on degenerate problems.  ``solve_lp`` is
the exact solver, on the standard form A.x = b, x >= 0.
``float_bases`` runs in floats and only suggests bases, one for each of
a sequence of right-hand sides b that share c and A: each b up to the
first that succeeds is solved cold, each later one, then each failed one
once more, warm from the last optimal basis, which stays dual feasible
when only b changes, by a dual simplex.  Whatever a caller derives from a suggestion must be
certified exactly before use.
"""

from __future__ import annotations

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


def _dual_simplex(T, basis, ncols, tol, maxit):
    """Make the basic values of T, whose reduced costs over columns
    [0, ncols) are >= -tol, nonnegative while keeping them so.

    The most negative basic value leaves, and the column of least ratio
    reduced cost / -entry over the columns whose entry in its row is below
    -tol enters, the first such column on a tie.  Returns OPTIMAL,
    INFEASIBLE when a negative row has no such column, or None when
    ``maxit`` pivots are used up.
    """
    import numpy as np

    it = 0
    while it < maxit:
        r = int(np.argmin(T[:-1, -1]))
        if T[r, -1] >= -tol:
            return OPTIMAL
        cols = np.flatnonzero(T[r, :ncols] < -tol)
        if not cols.size:
            return INFEASIBLE
        ratios = T[-1, cols] / -T[r, cols]
        _pivot(T, basis, r, int(cols[np.argmin(ratios)]))
        it += 1
    return None


def _two_phase(c, A, b, exact, maxit):
    """Minimize c.x subject to A.x = b, x >= 0.

    Returns (status, T, basis); at OPTIMAL, row r of T ends in the value
    of column basis[r].  An exact run uses Fractions and tolerance 0, a
    float run ``_FLOAT_TOL``.  Each phase makes at most ``maxit`` pivots
    (None: no cap), and a hit cap gives status None.
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
        from fractions import Fraction

        # Python ints in an object array would divide to floats
        T = np.frompyfunc(Fraction, 1, 1)(T)
    basis = list(range(n, n + m))
    status = _simplex(T, basis, n, tol, maxit)
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
    return _simplex(T, basis, n, tol, maxit), T, basis


def solve_lp(c, A_eq, b_eq):
    """Minimize c.x subject to A_eq.x = b_eq, x >= 0, in exact Fractions.

    Returns (status, x), with x None unless the status is OPTIMAL; with
    c = 0, x is the feasible point that phase 1 ends on.
    """
    from fractions import Fraction

    status, T, basis = _two_phase(c, A_eq, b_eq, True, None)
    if status != OPTIMAL:
        return status, None
    x = [Fraction(0)] * len(c)
    for k, v in zip(basis, T[:-1, -1]):
        if k < len(c):
            x[k] = v
    return OPTIMAL, x


def float_bases(c, A_eq, bs, maxit):
    """Suggest an optimal basis of min c.x s.t. A_eq.x = b, x >= 0 for
    each b of bs, in order.

    Each suggestion is {basic column: its float value}, or None when the
    float search finds the problem infeasible or unbounded or hits the
    cap: only an exact method may conclude anything from that.  Until a
    first b succeeds, each b is solved cold by the two-phase simplex, each
    phase capped at ``maxit`` pivots.  Every later b is warm: a copy of the
    last optimal tableau keeps its artificial columns, which hold B^-1 of
    its basis B (times the signs of the rows that its cold b negated), so
    its basic values become B^-1 b and its reduced costs stay >= 0 (its
    objective entry is stale; no pivot rule reads it), and a dual simplex
    of at most ``maxit`` pivots reoptimizes it.  A basic artificial column
    left nonzero (A has dependent rows) gives None too.  Then each b left
    None is tried once more, warm from the last optimal tableau, as a cold
    phase 1 can break down and a dual simplex from another basis can hit
    its cap.
    """
    import numpy as np

    n, m, last = len(c), len(A_eq), None

    def solve(b, warm):
        # b's suggestion, or None; an optimal tableau is kept as last
        nonlocal last
        if warm is None:
            status, T, basis = _two_phase(c, A_eq, b, False, maxit)
            signs = np.where(np.array(b, dtype=float) < 0, -1.0, 1.0)
        else:
            T, basis, signs = warm[0].copy(), warm[1][:], warm[2]
            T[:m, -1] = T[:m, n:n + m] @ (signs * b)
            status = _dual_simplex(T, basis, n, _FLOAT_TOL, maxit)
            if any(k >= n and abs(T[r, -1]) > _FLOAT_TOL
                   for r, k in enumerate(basis)):
                status = None
        if status != OPTIMAL:
            return None
        last = T, basis, signs
        return {k: float(T[r, -1]) for r, k in enumerate(basis) if k < n}

    # last is read afresh for each b, so the first success warms the rest
    out = [solve(b, last) for b in bs]
    return [guess if guess is not None or last is None else solve(b, last)
            for guess, b in zip(out, bs)]
