"""The exact integer eliminator against Fraction references."""

import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivekron.diamonds import _solve_interior_weights
from hivekron.errors import Inconsistent
from hivekron.intlin import back_solve, det, hnf
from hivekron.quiver import b_matrix, b_matrix_rank, hive_vertex, make_quiver
from test_quiver import ice_quivers


def hnf_solve(rows, target):
    """All integer solutions of rows . g = target.

    Returns (g0, kernel_basis) or None if no integral solution exists;
    kernel_basis is a list of integer vectors.
    """
    M, U, pivots, rank = hnf(rows)
    w = back_solve(M, pivots, target)
    if w is None:
        return None
    g0 = [sum(map(mul, u, w)) for u in U]
    kernel = [[u[c] for u in U] for c in range(rank, len(U))]
    return g0, kernel


def fraction_rank(rows):
    """Reference rank by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in r] for r in rows]
    rk = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rk, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        for r in range(rk + 1, len(m)):
            f = m[r][col] / m[rk][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[rk])]
        rk += 1
    return rk


def fraction_det(rows):
    """Reference determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in r] for r in rows]
    out = Fraction(1)
    for col in range(len(m)):
        piv = next((r for r in range(col, len(m)) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            out = -out
        out *= m[col][col]
        for r in range(col + 1, len(m)):
            f = m[r][col] / m[col][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return out


def random_matrix(rng, rows, cols):
    """Entries in [-4, 4]; with probability 1/3 the last row repeats a
    combination of the others, so singular and rank-deficient cases occur."""
    mat = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rng.random() < 1 / 3:
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        mat[-1] = [a * x + b * y for x, y in zip(mat[0], mat[1 % (rows - 1)])]
    return mat


def test_hnf_solve_simple():
    g0, ker = hnf_solve([[2, 0, 0], [0, 3, 0]], [4, 6])
    assert g0[0] == 2 and g0[1] == 2
    assert len(ker) == 1 and ker[0][2] != 0
    assert hnf_solve([[2, 0]], [3]) is None


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
       st.integers(-4, 4), st.integers(-9, 9), st.integers(-9, 9))
@settings(max_examples=80, deadline=None)
def test_hnf_solve_random(a, b, c, d, t1, t2):
    rows = [[a, b, 1, 0], [c, d, 0, 2]]
    sol = hnf_solve(rows, [t1, t2])
    if sol is None:
        return
    g0, ker = sol
    for r, t in zip(rows, (t1, t2)):
        assert sum(x * y for x, y in zip(r, g0)) == t
        for kv in ker:
            assert sum(x * y for x, y in zip(r, kv)) == 0
    assert len(ker) == 4 - 2  # these rows are always independent


def test_hnf_random_matrices():
    rng = random.Random(9)
    for _ in range(200):
        R, C = rng.randint(1, 5), rng.randint(1, 6)
        rows = random_matrix(rng, R, C)
        M, U, pivots, rank = hnf(rows)
        assert M == [[sum(r[k] * U[k][c] for k in range(C)) for c in range(C)]
                     for r in rows]
        assert abs(det(U)) == 1
        assert rank == fraction_rank(rows)
        # column echelon form: pivot columns 0..rank-1 in row order, each
        # positive, nothing right of a row's pivot (or of the pivots so far)
        k = 0
        for row, p in zip(M, pivots):
            if p is not None:
                assert p == k and row[p] > 0
                k += 1
            assert not any(row[k:])
        assert k == rank
        for c in range(rank, C):
            assert all(sum(r[v] * U[v][c] for v in range(C)) == 0
                       for r in rows)


def test_det_matches_fraction_reference():
    rng = random.Random(3)
    singular = 0
    for _ in range(300):
        n = rng.randint(0, 5)
        mat = random_matrix(rng, n, n)
        got = det(mat)
        assert got == fraction_det(mat)
        singular += got == 0
    assert singular >= 30


@given(ice_quivers())
@settings(max_examples=60, deadline=None)
def test_b_matrix_rank_matches_fraction_rank(Q):
    assert b_matrix_rank(Q) == fraction_rank(b_matrix(Q).entries)


def V(k):
    return hive_vertex(1, k, 0)


def interior_weights(n_mut, arrows, known):
    """Solve for the weights of the vertices 1..4 missing from known."""
    Q = make_quiver([V(k) for k in range(1, 5)],
                    {V(k) for k in range(n_mut + 1, 5)},
                    {(V(a), V(b)): m for a, b, m in arrows})
    return _solve_interior_weights(Q, {V(k): w for k, w in known.items()}, 1)


def test_interior_weights_solved():
    # at 1: in-sum 2 x = out-sum 2
    assert interior_weights(1, [(3, 1, 2), (1, 4, 1)],
                            {1: (0,), 2: (0,), 4: (2,)}) == {V(3): (1,)}


def test_interior_weights_failures():
    # vertex 3 meets no mutable vertex, so no equation fixes it
    with pytest.raises(Inconsistent, match="interior weight rows undetermined"):
        interior_weights(1, [(2, 1, 1), (1, 4, 1)],
                         {1: (0,), 2: (1,), 4: (1,)})
    # at 1: 2 x = 1 has a rational solution only
    with pytest.raises(Inconsistent,
                       match="interior weight system inconsistent"):
        interior_weights(1, [(3, 1, 2), (1, 4, 1)],
                         {1: (0,), 2: (0,), 4: (1,)})
    # at 2: no unknown, in-sum 1 against out-sum 0
    with pytest.raises(Inconsistent,
                       match="interior weight system inconsistent"):
        interior_weights(2, [(3, 1, 1), (1, 4, 1), (4, 2, 1)],
                         {1: (0,), 2: (0,), 4: (1,)})
