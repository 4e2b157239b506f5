"""Identities that hold at every n, checked with no oracle.

Two-row parity: g((N, N), (N, N), (N, N)) is 1 for even N and 0 for odd
N (Garsia, Wallach, Xin and Zabrocki, Kronecker coefficients via
symmetric functions and constant term identities, IJAC 2012).

Transposition: g(mu', nu', lam) = g(mu, nu, lam), as the sign character
of S_n squares to the trivial one.

Monotone stability: g(mu + (k), nu + (k), lam + (k)), each first part
raised by k, is weakly increasing in k (Brion, Stable properties of
plethysm, Manuscripta Math. 1993).

Permuting alpha: the fibre at sigma(mu, nu) + alpha counts the weight
multiplicity <s_mu * s_nu, h_alpha>, and h_alpha is the same product of
complete symmetric functions in any order of alpha.

Dvir's bound: the largest lam_1 of a lam with g(mu, nu, lam) != 0 is
|mu & nu| = sum of min(mu_i, nu_i) (Dvir, On the Kronecker product of S_n
characters, J. Algebra 1993).
"""

import itertools

import pytest

from hivekron.kron import (_conjugate, kronecker, lambda_shifts,
                           partitions_of, sigma_of)
from hivekron.polyhedra import build_cone, count_fibres


def two_row_top(geo, N):
    """The largest |entry| of the w that g((N, N), (N, N), (N, N)) solves
    for on (2,2), over its distinct sorted shifts of (N, N)."""
    from hivekron.intlin import back_solve
    sigma = sigma_of((N, N), (N, N), 2)
    thetas = {sigma + tuple(sorted(alpha))
              for _, alpha, _ in lambda_shifts((N, N), 2)}
    return max(max(map(abs, back_solve(geo.M, geo.pivots, theta)))
               for theta in thetas)


def float32_edge():
    """The largest N whose two-row call on (2,2) the guard of
    ``_FibreGeometry.fibres`` keeps on float32."""
    import hivekron.polyhedra as P
    geo = build_cone(2, 2).geometry
    [bound] = [b for t, b in P._EXACT_TYPES if t == "float32"]

    def fits(N):
        return 2 * max(two_row_top(geo, N), 1) * geo.growth < bound
    lo, hi = 1, bound
    assert fits(lo) and not fits(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


@pytest.fixture
def call_dtypes(monkeypatch):
    """The number type of each block the block DFS tightens."""
    import hivekron.polyhedra as P
    seen = []
    real = P._tighten_block

    def spy(plan, rf, u, fid, whole):
        seen.append(u.dtype.name)
        return real(plan, rf, u, fid, whole)
    monkeypatch.setattr(P, "_tighten_block", spy)
    return seen


def test_two_row_parity_small(call_dtypes):
    for N in range(1, 13):
        assert kronecker((N, N), (N, N), (N, N)).value == 1 - N % 2, N
    assert set(call_dtypes) == {"float32"}


def test_two_row_parity_on_both_sides_of_the_float32_edge(call_dtypes):
    # the last N on float32 and the first on float64, one of each parity
    edge = float32_edge()
    assert 10 ** 5 < edge < 10 ** 6
    for N, dtype in ((edge, "float32"), (edge + 1, "float64")):
        call_dtypes.clear()
        assert kronecker((N, N), (N, N), (N, N)).value == 1 - N % 2, N
        assert call_dtypes and set(call_dtypes) == {dtype}, N


def test_transposition_on_the_33_cone():
    # every triple with mu, nu in the 3 x 3 box and lam of at most 3 rows,
    # so that both sides fit (3,3); the cone is given, as the default
    # would count both sides on one conjugate pair.  kronecker counts one
    # order of a triple, so nu <= mu covers every pair
    above_one = 0
    for n in range(1, 10):
        box = [p for p in partitions_of(n, 3) if p[0] <= 3]
        for mu, nu in itertools.combinations_with_replacement(box, 2):
            for lam in partitions_of(n, 3):
                g = kronecker(mu, nu, lam, l=3, m=3).value
                h = kronecker(_conjugate(mu), _conjugate(nu), lam,
                              l=3, m=3).value
                assert g == h, (mu, nu, lam)
                above_one += g > 1
    assert above_one >= 20


# ((mu, nu, lam), last k): each sequence runs from n below 24 to n above it
STABLE_SEQUENCES = ((((4, 4, 4),) * 3, 13),
                    (((6, 5, 3), (7, 7), (5, 5, 4)), 13),
                    (((10, 8), (9, 9), (6, 6, 6)), 10),
                    (((8, 8), (9, 7), (10, 6)), 12))


@pytest.mark.parametrize("triple, last", STABLE_SEQUENCES)
def test_monotone_stability_across_n_24(triple, last):
    values = [kronecker(*((p[0] + k,) + p[1:] for p in triple)).value
              for k in range(last + 1)]
    assert sum(triple[0]) < 24 < sum(triple[0]) + last
    assert all(a <= b for a, b in zip(values, values[1:])), values
    assert values[0] < values[-1]


# (mu, nu, alpha) on (2,3) at n = 60 and 120, far past tests/test_kron.py's
# check of every alpha up to n = 6: each permutation of alpha gives a
# differently shaped fibre, many of whose leaves have open width 4 or more
PERMUTED_FIBRES = (((40, 20), (33, 27), (10, 20, 30)),
                   ((70, 50), (64, 56), (23, 41, 56)))


@pytest.mark.parametrize("mu, nu, alpha", PERMUTED_FIBRES)
def test_fibre_counts_are_invariant_under_permuting_alpha(mu, nu, alpha):
    sigma = sigma_of(mu, nu, 2)
    counts = count_fibres(build_cone(2, 3),
                          [sigma + p for p in itertools.permutations(alpha)])
    assert len(set(counts)) == 1 and counts[0] > 1, counts


# (mu, nu) at n = 27-40, past the oracle: 9, 20, 2 and 36 lam of at most 3
# rows lie past Dvir's bound, and 2, 3, 1 and 1 at it give g != 0
DVIR_PAIRS = (((10, 9, 8), (15, 8, 4)), ((12, 10, 8), (20, 6, 4)),
              ((14, 13, 13), (16, 12, 12)), ((9, 9, 9), (20, 5, 2)))


@pytest.mark.parametrize("mu, nu", DVIR_PAIRS)
def test_dvir_bound_past_the_oracle(mu, nu):
    top = sum(map(min, mu, nu))
    values = {lam: kronecker(mu, nu, lam).value
              for lam in partitions_of(sum(mu), 3) if lam[0] >= top}
    past = {lam: g for lam, g in values.items() if lam[0] > top}
    assert past and not any(past.values()), past
    assert any(g for lam, g in values.items() if lam[0] == top), values
