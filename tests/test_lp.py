import itertools
import random
from fractions import Fraction

import pytest

from hivekron.lp import (INFEASIBLE, OPTIMAL, UNBOUNDED, _simplex, float_bases,
                         solve_lp)

# Beale's cycling example: min c.x s.t. A.x <= b, x >= 0, optimum -5/4
BEALE_C = [Fraction(-3, 4), 20, Fraction(-1, 2), 6]
BEALE_A = [[Fraction(1, 4), -8, -1, 9],
           [Fraction(1, 2), -12, Fraction(-1, 2), 3],
           [0, 0, 1, 0]]
BEALE_B = [0, 0, 1]


def general_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, free=True):
    """Minimize c.x subject to A_ub.x <= b_ub and A_eq.x = b_eq through
    solve_lp's standard form: x = x+ - x- when free (the default), one
    slack column per A_ub row.  Returns (status, value, x)."""
    A_ub, b_ub = A_ub or [], b_ub or []
    A_eq, b_eq = A_eq or [], b_eq or []
    n, nub = len(c), len(A_ub)
    signs = (1, -1) if free else (1,)
    A = [[s * a for s in signs for a in row] + [int(k == i) for k in range(nub)]
         for i, row in enumerate(A_ub)]
    A += [[s * a for s in signs for a in row] + [0] * nub for row in A_eq]
    cost = [s * x for s in signs for x in c] + [0] * nub
    status, y = solve_lp(cost, A, list(b_ub) + list(b_eq))
    if status != OPTIMAL:
        return status, None, None
    x = [sum(s * y[k * n + i] for k, s in enumerate(signs)) for i in range(n)]
    return OPTIMAL, sum(Fraction(f) * v for f, v in zip(c, x)), x


def solve_square(rows, rhs):
    """The unique solution of a square system in Fractions, or None."""
    n = len(rows)
    M = [[Fraction(a) for a in row] + [Fraction(t)] for row, t in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col] / M[col][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [M[r][n] / M[r][r] for r in range(n)]


def feasible(x, A_ub, b_ub, A_eq, b_eq):
    dot = lambda row: sum(a * v for a, v in zip(row, x))
    return all(dot(row) <= t for row, t in zip(A_ub, b_ub)) and \
        all(dot(row) == t for row, t in zip(A_eq, b_eq))


def vertex_oracle(c, A_ub, b_ub, A_eq, b_eq):
    """Least c.x over the vertices of a pointed polyhedron: every point
    where n linearly independent constraints are active, if feasible."""
    n = len(c)
    rows = list(zip(A_ub, b_ub)) + list(zip(A_eq, b_eq))
    best = None
    for active in itertools.combinations(rows, n):
        x = solve_square([a for a, _ in active], [t for _, t in active])
        if x is not None and feasible(x, A_ub, b_ub, A_eq, b_eq):
            val = sum(Fraction(f) * v for f, v in zip(c, x))
            best = val if best is None else min(best, val)
    return best


def test_solve_lp_matches_vertex_enumeration():
    rng = random.Random(8)
    statuses = set()
    for _ in range(200):
        n = rng.randint(1, 3)
        entry = lambda: rng.randint(-3, 3)
        c = [entry() for _ in range(n)]
        A_ub = [[entry() for _ in range(n)] for _ in range(rng.randint(0, 4))]
        b_ub = [entry() for _ in A_ub]
        A_eq = [[entry() for _ in range(n)] for _ in range(rng.randint(0, 2))]
        b_eq = [entry() for _ in A_eq]
        # the box |x_i| <= 3 keeps every LP bounded
        box = [[s * int(i == k) for k in range(n)]
               for i in range(n) for s in (1, -1)]
        A_box, b_box = A_ub + box, b_ub + [3] * len(box)
        status, val, x = general_lp(c, A_box, b_box, A_eq, b_eq)
        expected = vertex_oracle(c, A_box, b_box, A_eq, b_eq)
        statuses.add(status)
        if expected is None:
            assert (status, val, x) == (INFEASIBLE, None, None)
        else:
            assert (status, val) == (OPTIMAL, expected)
            assert feasible(x, A_box, b_box, A_eq, b_eq)
            assert sum(f * v for f, v in zip(c, x)) == val
    assert statuses == {OPTIMAL, INFEASIBLE}


def test_beale_cycling_example():
    nonneg = [[-int(i == k) for k in range(4)] for i in range(4)]
    expected = vertex_oracle(BEALE_C, BEALE_A + nonneg, BEALE_B + [0] * 4,
                             [], [])
    status, val, x = general_lp(BEALE_C, BEALE_A, BEALE_B, free=False)
    assert (status, val) == (OPTIMAL, expected) == (OPTIMAL, Fraction(-5, 4))
    assert feasible(x, BEALE_A, BEALE_B, [], []) and min(x) >= 0


def test_bland_rule_ends_dantzig_cycle():
    import numpy as np
    # slacks basic: Dantzig's rule returns to this basis after 6 pivots
    T = np.full((4, 8), Fraction(0), dtype=object)
    for r in range(3):
        T[r, :4] = BEALE_A[r]
        T[r, 4 + r] = Fraction(1)
        T[r, -1] = Fraction(BEALE_B[r])
    T[3, :4] = BEALE_C
    basis = [4, 5, 6]
    cycled, cycled_basis = T.copy(), basis[:]
    assert _simplex(cycled, cycled_basis, 7, 0, maxit=6) is None
    assert cycled_basis == basis
    assert _simplex(T, basis, 7, 0, maxit=1000) == OPTIMAL
    assert T[3, -1] == Fraction(5, 4)


@pytest.mark.parametrize("free", [True, False])
def test_statuses(free):
    # x1 + x2 <= -1 and x1 + x2 >= 0
    assert general_lp([1, 1], [[1, 1], [-1, -1]], [-1, 0], free=free) == \
        (INFEASIBLE, None, None)
    assert general_lp([0, 0], A_eq=[[1, 1], [2, 2]], b_eq=[1, 3],
                      free=free) == (INFEASIBLE, None, None)
    # min -x1 - x2 with x1 - x2 <= 1
    assert general_lp([-1, -1], [[1, -1]], [1], free=free) == \
        (UNBOUNDED, None, None)


def test_float_basis_is_an_exact_optimal_basis():
    # standard form: min c.x s.t. A.x = b, x >= 0
    c = [2, 3, 1, 4, 1, 5]
    A = [[1, 1, 0, 2, -1, 0], [0, 1, 1, -1, 0, 2], [1, 0, -1, 0, 1, 1]]
    b = [4, 3, -1]
    _, best, _ = general_lp(c, A_eq=A, b_eq=b, free=False)
    (guess,) = float_bases(c, A, [b], maxit=50)
    cols = sorted(guess)
    assert len(cols) == len(A)
    xb = solve_square([[row[k] for k in cols] for row in A], b)
    x = [Fraction(0)] * len(c)
    for k, v in zip(cols, xb):
        x[k] = v
        assert v == pytest.approx(guess[k])
    assert min(x) >= 0 and feasible(x, [], [], A, b)
    assert sum(f * v for f, v in zip(c, x)) == best
    assert float_bases(c, A, [b], maxit=0) == [None]


def spy_lp(monkeypatch):
    """Counts of the cold float two-phase solves and of the dual simplex
    pivots that float_bases makes."""
    import hivekron.lp as L
    seen = {"cold": 0, "dual": 0}
    real_two_phase, real_dual, real_pivot = (L._two_phase, L._dual_simplex,
                                             L._pivot)
    dual = []

    def two_phase(c, A, b, exact, maxit):
        seen["cold"] += not exact
        return real_two_phase(c, A, b, exact, maxit)

    def dual_simplex(*args):
        dual.append(1)
        try:
            return real_dual(*args)
        finally:
            dual.pop()

    def pivot(*args):
        seen["dual"] += bool(dual)
        return real_pivot(*args)
    monkeypatch.setattr(L, "_two_phase", two_phase)
    monkeypatch.setattr(L, "_dual_simplex", dual_simplex)
    monkeypatch.setattr(L, "_pivot", pivot)
    return seen


def assert_optimal_basis(c, A, b, guess):
    """guess is a feasible point of A.x = b, x >= 0 (to float tolerance)
    whose objective is the exact optimum."""
    _, best, _ = general_lp(c, A_eq=A, b_eq=b, free=False)
    x = [guess.get(k, 0.0) for k in range(len(c))]
    assert min(x) >= -1e-9
    for row, t in zip(A, b):
        assert sum(a * v for a, v in zip(row, x)) == pytest.approx(t, abs=1e-9)
    assert sum(f * v for f, v in zip(c, x)) == pytest.approx(float(best))


def test_float_bases_warm_objectives_equal_the_cold_optimum(monkeypatch):
    # seeded LPs min c.x s.t. A.x = b, x >= 0 with c > 0 and every b = A x0
    # for some x0 >= 0, so each is feasible and bounded: the first b of a
    # sequence is solved cold, every later one warm, and each suggestion
    # is a basis whose objective is the exact optimum
    seen = spy_lp(monkeypatch)
    rng = random.Random(41)
    trials = 20
    for _ in range(trials):
        m, n = rng.randint(2, 4), rng.randint(5, 8)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        c = [rng.randint(1, 5) for _ in range(n)]
        bs = []
        for _ in range(6):
            x0 = [rng.randint(0, 3) for _ in range(n)]
            bs.append([sum(a * x for a, x in zip(row, x0)) for row in A])
        for b, guess in zip(bs, float_bases(c, A, bs, maxit=100)):
            assert_optimal_basis(c, A, b, guess)
    assert seen["cold"] == trials
    assert seen["dual"] >= trials


def test_float_bases_solve_cold_only_until_a_first_success(monkeypatch):
    # only the first b is solved cold; every later one is warm from the
    # last optimal tableau, after a None too.  The first b negates its last
    # row, so a warm b reads B^-1 with that row's sign.  A second sweep
    # tries each None once more, warm from the last optimal tableau: an
    # infeasible b stays None, and a capped one is recovered with no cold
    # solve
    import hivekron.lp as L
    c = [2, 3, 1, 4, 1, 5]
    A = [[1, 1, 0, 2, -1, 0], [0, 1, 1, -1, 0, 2], [1, 0, -1, 0, 1, 1]]
    bs = [[4, 3, -1], [1, 2, 3], [-1, -1, -1], [3, 1, 2], [2, 5, 1]]
    _, _, x = general_lp(c, A_eq=A, b_eq=[-1, -1, -1], free=False)
    assert x is None            # the third b is infeasible
    seen = spy_lp(monkeypatch)
    found = float_bases(c, A, bs, maxit=50)
    assert found[2] is None and seen == {"cold": 1, "dual": seen["dual"]}
    for k in (0, 1, 3, 4):
        assert_optimal_basis(c, A, bs[k], found[k])
    # the first warm b gets a cap of 0 pivots, so the first sweep leaves
    # the second b None and still solves the rest warm
    real = L._dual_simplex
    calls = []

    def capped(T, basis, ncols, tol, maxit):
        calls.append(1)
        return real(T, basis, ncols, tol, 0 if len(calls) == 1 else maxit)
    monkeypatch.setattr(L, "_dual_simplex", capped)
    seen["cold"] = 0
    again = float_bases(c, A, bs, maxit=50)
    assert again[0] == found[0] and again[2] is None
    assert seen["cold"] == 1
    # first sweep: b1 to b4 warm; second sweep: b1 and b2 warm
    assert len(calls) == 6
    for k in (1, 3, 4):
        assert_optimal_basis(c, A, bs[k], again[k])
    # a cap of 0 pivots leaves every b None, each one solved cold once:
    # with no optimal tableau there is no second sweep
    seen["cold"] = 0
    assert float_bases(c, A, bs, maxit=0) == [None] * len(bs)
    assert seen["cold"] == len(bs)
