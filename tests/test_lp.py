import itertools
import random
from fractions import Fraction

import pytest

from hivekron.lp import (INFEASIBLE, OPTIMAL, UNBOUNDED, _simplex, float_basis,
                         solve_lp)

# Beale's cycling example: min c.x s.t. A.x <= b, x >= 0, optimum -5/4
BEALE_C = [Fraction(-3, 4), 20, Fraction(-1, 2), 6]
BEALE_A = [[Fraction(1, 4), -8, -1, 9],
           [Fraction(1, 2), -12, Fraction(-1, 2), 3],
           [0, 0, 1, 0]]
BEALE_B = [0, 0, 1]


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
        status, val, x = solve_lp(c, A_box, b_box, A_eq, b_eq)
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
    status, val, x = solve_lp(BEALE_C, BEALE_A, BEALE_B, free=False)
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
    assert solve_lp([1, 1], [[1, 1], [-1, -1]], [-1, 0], free=free) == \
        (INFEASIBLE, None, None)
    assert solve_lp([0, 0], A_eq=[[1, 1], [2, 2]], b_eq=[1, 3],
                    free=free) == (INFEASIBLE, None, None)
    # min -x1 - x2 with x1 - x2 <= 1
    assert solve_lp([-1, -1], [[1, -1]], [1], free=free) == \
        (UNBOUNDED, None, None)


@pytest.mark.parametrize("maxit", [0, 1, 2])
def test_truncated_phase_two_is_feasible(maxit):
    status, val, x = solve_lp(BEALE_C, BEALE_A, BEALE_B, free=False,
                              phase2_maxit=maxit)
    assert status == OPTIMAL
    assert feasible(x, BEALE_A, BEALE_B, [], []) and min(x) >= 0
    assert val == sum(Fraction(f) * v for f, v in zip(BEALE_C, x))
    assert val >= Fraction(-5, 4)
    A_eq = [[1, 2, -1, 0, 1], [0, 1, 1, -1, 2], [1, 0, 0, 1, -1]]
    status, _, y = solve_lp([1, 1, 1, 1, 1], A_eq=A_eq, b_eq=[1, -1, 2],
                            free=False, phase2_maxit=maxit)
    assert status == OPTIMAL
    assert feasible(y, [], [], A_eq, [1, -1, 2]) and min(y) >= 0


def test_float_basis_is_an_exact_optimal_basis():
    # standard form: min c.x s.t. A.x = b, x >= 0
    c = [2, 3, 1, 4, 1, 5]
    A = [[1, 1, 0, 2, -1, 0], [0, 1, 1, -1, 0, 2], [1, 0, -1, 0, 1, 1]]
    b = [4, 3, -1]
    _, best, _ = solve_lp(c, A_eq=A, b_eq=b, free=False)
    guess = float_basis(c, A, b, maxit=50)
    cols = sorted(guess)
    assert len(cols) == len(A)
    xb = solve_square([[row[k] for k in cols] for row in A], b)
    x = [Fraction(0)] * len(c)
    for k, v in zip(cols, xb):
        x[k] = v
        assert v == pytest.approx(guess[k])
    assert min(x) >= 0 and feasible(x, [], [], A, b)
    assert sum(f * v for f, v in zip(c, x)) == best
    assert float_basis(c, A, b, maxit=0) is None
