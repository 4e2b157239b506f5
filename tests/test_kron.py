import itertools
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivekron import kron
from hivekron.diamonds import build_bar
from hivekron.errors import HivekronError, OutOfRange, SizeTooLargeForOracle
from hivekron.kron import (class_size_inverse, kronecker, kronecker_oracle,
                           lambda_shifts, mn_character, partition,
                           partitions_of, sigma_of)
from hivekron.polyhedra import build_cone, count_lattice_points


def test_partition_normalization():
    assert partition((3, 2, 0, 0)) == (3, 2)
    with pytest.raises(OutOfRange):
        partition((1, 2))
    with pytest.raises(OutOfRange):
        partition((2.5, 1))


@pytest.mark.parametrize("bad", [(1, 2), (2, -1), (2.9, 1)])
def test_bad_partition_is_a_package_error(bad):
    for compute in (kronecker, kronecker_oracle):
        with pytest.raises(HivekronError):
            compute(bad, (2, 1), (2, 1))


def transpose(p: tuple) -> tuple:
    """The conjugate partition: the reference sigma is read off."""
    if not p:
        return ()
    return tuple(sum(1 for x in p if x > j) for j in range(p[0]))


def test_transpose_involution():
    for p in partitions_of(6):
        assert transpose(transpose(tuple(p))) == tuple(p)


def test_sigma_of_21():
    # mu = nu = (2,1), l = 3: mu* = (2,1)
    assert sigma_of((2, 1), (2, 1), 3) == (-1, -1, 0, 1, 1, 0)


def test_sigma_of_row():
    assert sigma_of((3,), (3,), 3) == (-3, 0, 0, 3, 0, 0)


def test_sigma_of_matches_the_transpose_formula():
    # sigma(-k) = -#{columns of mu of length k}, sigma(k) likewise for nu
    pairs = 0
    for n in range(9):
        shapes = partitions_of(n)
        for mu, nu in itertools.product(shapes, repeat=2):
            for l in (max(len(mu), len(nu), 1), max(len(mu), len(nu)) + 1):
                neg, pos = [0] * l, [0] * l
                for part in transpose(mu):
                    neg[part - 1] -= 1
                for part in transpose(nu):
                    pos[part - 1] += 1
                assert sigma_of(mu, nu, l) == tuple(neg + pos), (mu, nu, l)
                pairs += 1
    assert pairs == 2 * sum(len(partitions_of(n)) ** 2 for n in range(9))


def test_one_row_triples_past_any_enumeration():
    # sigma costs O(l) and the fibre map is exact at any size: at
    # N = 10^20 the fibres are single points or empty
    N = 10 ** 20
    assert sigma_of((N,), (N,), 2) == (-N, 0, N, 0)
    assert kronecker((N,), (N,), (N,)).value == 1
    assert kronecker((N + 1, N - 1), (N, N), (2 * N,)).value == 0


def test_sigma_of_size_mismatch():
    with pytest.raises(OutOfRange, match=r"\|mu\|=4 differs from \|nu\|=3"):
        sigma_of((2, 2), (3,), 3)


def test_sigma_of_partition_longer_than_l():
    # either partition may be the long one; l parts are still fine
    for mu, nu in (((1, 1, 1), (3,)), ((3,), (1, 1, 1))):
        with pytest.raises(OutOfRange, match="partition length exceeds l=2"):
            sigma_of(mu, nu, 2)
    assert sigma_of((1, 1, 1), (3,), 3) == (0, 0, -1, 3, 0, 0)


def test_sigma_weight_invariants():
    for mu in partitions_of(5, max_len=3):
        for nu in partitions_of(5, max_len=3):
            s = sigma_of(tuple(mu), tuple(nu), 3)
            assert all(x <= 0 for x in s[:3])
            assert all(x >= 0 for x in s[3:])
            assert sum(-(i + 1) * s[i] for i in range(3)) == 5
            assert sum((i + 1) * s[3 + i] for i in range(3)) == 5


def test_lambda_shifts_examples():
    assert lambda_shifts((2, 1), 3) == [
        ((1, 2, 3), (2, 1, 0), 1), ((2, 1, 3), (3, 0, 0), -1)]
    assert lambda_shifts((5,), 2) == [((1, 2), (5, 0), 1)]
    # strictly decreasing with enough slack keeps all m! permutations
    assert len(lambda_shifts((9, 5, 2), 3)) == 6
    with pytest.raises(OutOfRange, match="lambda has more than m=2 parts"):
        lambda_shifts((1, 1, 1), 2)


def test_mn_character_trivial_and_sign():
    for rho in partitions_of(5):
        assert mn_character((5,), tuple(rho)) == 1
        assert mn_character((1,) * 5, tuple(rho)) == (-1) ** (5 - len(rho))


def test_mn_character_dimension():
    assert mn_character((2, 1), (1, 1, 1)) == 2
    assert mn_character((3, 2, 1), (1,) * 6) == 16  # hook lengths 6!/45


@pytest.mark.parametrize("n", range(2, 9))
def test_column_orthogonality(n):
    parts = [tuple(p) for p in partitions_of(n)]
    for la, ka in itertools.combinations_with_replacement(parts, 2):
        s = sum(class_size_inverse(tuple(r)) * mn_character(la, tuple(r))
                * mn_character(ka, tuple(r)) for r in parts)
        assert s == (1 if la == ka else 0)


def test_oracle_values():
    assert kronecker_oracle((1,), (1,), (1,)) == 1
    assert kronecker_oracle((2,), (1, 1), (1, 1)) == 1
    assert kronecker_oracle((2, 1), (2, 1), (1, 1, 1)) == 1
    assert kronecker_oracle((2, 1), (2, 1), (2, 1)) == 1
    # a value bigger than one (hand character sum: 4096/720 - 8/18 - 8/18 + 1/5)
    assert kronecker_oracle((3, 2, 1), (3, 2, 1), (3, 2, 1)) == 5


def test_oracle_bound():
    with pytest.raises(SizeTooLargeForOracle,
                       match="n=25 exceeds the oracle bound 24"):
        kronecker_oracle((25,), (25,), (25,))


def test_oracle_size_mismatch():
    with pytest.raises(OutOfRange, match="sizes differ"):
        kronecker_oracle((2,), (3,), (2, 1))


def test_kronecker_trivial_cases(small_builds):
    assert kronecker((1,), (1,), (1,)).value == 1
    assert kronecker((1, 1), (1, 1), (2,)).value == 1
    assert kronecker((2, 1), (2, 1), (2, 1)).value == 1


def test_kronecker_breakdown(small_builds):
    res = kronecker((2, 1), (2, 1), (2, 1))
    assert res.l == 2 and res.m == 2
    total = sum(sg * ct for _, _, sg, ct in res.breakdown)
    assert total == res.value == 1
    assert len(res.breakdown) == len(lambda_shifts((2, 1), 2))


@given(st.integers(0, 30))
@settings(max_examples=12, deadline=None)
def test_sign_times_sign_is_trivial(k):
    n = 2 + (k % 4)
    lam = (1,) * n
    assert kronecker_oracle(lam, lam, (n,)) == 1


def test_pipeline_matches_oracle_at_n15(small_builds):
    mu, nu, lam = (7, 5, 3), (6, 5, 4), (6, 6, 3)
    assert kronecker(mu, nu, lam).value == kronecker_oracle(mu, nu, lam) == 45


def test_four_part_coefficient_on_the_44_cone():
    # the (4,4) cone is the one whose R has coefficients |c| > 1 in two
    # quotient columns of the block DFS; the default would count on (4,3)
    mu, lam = (4, 2, 2, 2), (3, 3, 2, 2)
    res = kronecker(mu, mu, lam, l=4, m=4)
    assert (res.l, res.m) == (4, 4)
    assert build_cone(4, 4).geometry.plan.bf.size == 2
    assert res.value == kronecker_oracle(mu, mu, lam) == 4


def test_kronecker_explicit_l_m(small_builds):
    base = kronecker((2, 1), (2, 1), (2, 1))
    assert kronecker((2, 1), (2, 1), (2, 1), l=3, m=3).value == base.value


def test_kronecker_counts_an_order_that_fits(small_builds):
    # lambda = (1,1,1) needs m = 3; at l = 2 only it can be the third part
    res = kronecker((2, 1), (1, 1, 1), (2, 1), l=2, m=3)
    assert res.value == kronecker_oracle((2, 1), (2, 1), (1, 1, 1)) == 1
    assert res.orientation == ((2, 1), (2, 1), (1, 1, 1))
    with pytest.raises(OutOfRange, match="no order of the partitions fits"):
        kronecker((3,), (1, 1, 1), (2, 1), l=2, m=2)


@pytest.mark.parametrize("size", [3.0, "3"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_non_integer_size_is_out_of_range(size, warm):
    # a warm cone cache must not answer 3.0 with the cone of 3
    build_cone.cache_clear()
    if warm:
        build_cone(3, 3)
    g = (2, 1)
    for call in (lambda: build_cone(size, 3), lambda: build_cone(3, size),
                 lambda: build_bar(size, 3), lambda: build_bar(3, size),
                 lambda: kronecker(g, g, g, l=size, m=3),
                 lambda: kronecker(g, g, g, l=3, m=size)):
        with pytest.raises(OutOfRange, match="must be integers"):
            call()


def test_class_sizes_sum():
    for n in range(1, 8):
        total = sum(class_size_inverse(tuple(r)) for r in partitions_of(n))
        # sum of 1/z_rho = number of partitions weighted... equals p(n)/n!*...:
        # the conjugacy classes partition S_n, so sum of |class|/n! = 1
        assert total == Fraction(1)


def test_mn_size_mismatch():
    with pytest.raises(OutOfRange, match=r"\|lambda\|=3 differs from \|rho\|=4"):
        mn_character((2, 1), (2, 2))


# ---------------------------------------------------------------------------
# fibres are weight multiplicities, and g is symmetric


@lru_cache(maxsize=None)
def kostka(shape, content):
    """Semistandard tableaux of the shape with the content: the boxes of
    the largest entry form a horizontal strip shape / inner, so the count
    recurses over the inner shapes interlacing the shape."""
    if not content:
        return int(not shape)
    rest, k = content[:-1], content[-1]
    ranges = [range(below, row + 1)
              for row, below in zip(shape, shape[1:] + (0,))]
    return sum(kostka(tuple(x for x in inner if x), rest)
               for inner in itertools.product(*ranges)
               if sum(shape) - sum(inner) == k)


def test_kostka_counter():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((3, 2), (2, 2, 1)) == 2
    assert kostka((2, 2), (3, 1)) == 0
    assert kostka((4, 2), (0, 3, 0, 3)) == 1
    # sum_lambda K_{lambda,1^n} f^lambda = n!, with f^lambda = K_{lambda,1^n}
    assert sum(kostka(p, (1,) * 5) ** 2 for p in partitions_of(5)) == 120


@lru_cache(maxsize=None)
def _fibre_counts(l, m, n):
    """{(mu, nu, alpha): count} for every pair of at most l rows and every
    weak composition alpha of n with m parts; shared by the tests below."""
    pairs = [p for p in partitions_of(n) if len(p) <= l]
    alphas = [a for a in itertools.product(range(n + 1), repeat=m)
              if sum(a) == n]
    cone = build_cone(l, m)
    return {(mu, nu, a): count_lattice_points(cone, sigma_of(mu, nu, l) + a)
            for mu in pairs for nu in pairs for a in alphas}


@pytest.mark.parametrize("l, m", [(2, 3), (3, 3)])
def test_fibre_count_is_invariant_under_permuting_alpha(small_builds, l, m):
    for n in range(1, 7):
        counts = _fibre_counts(l, m, n)
        for (mu, nu, a), cnt in counts.items():
            assert cnt == counts[mu, nu, tuple(sorted(a))], (mu, nu, a)


def test_fibre_count_is_a_weight_multiplicity(small_builds):
    # N(mu, nu, alpha) = <s_mu * s_nu, h_alpha>
    #                 = sum_lambda K_{lambda,alpha} g(mu, nu, lambda)
    for n in range(1, 7):
        for (mu, nu, a), cnt in _fibre_counts(3, 3, n).items():
            if list(a) != sorted(a):
                continue
            assert cnt == sum(kostka(lam, a)
                              * kronecker_oracle(mu, nu, lam)
                              for lam in partitions_of(n)), (mu, nu, a)


def test_every_input_order_gives_one_result(small_builds):
    # the plan depends on the triple, not on its order
    seen = {}
    for n in range(1, 7):
        parts = [p for p in partitions_of(n) if len(p) <= 3]
        for triple in itertools.product(parts, repeat=3):
            res = kronecker(*triple, l=3, m=3)
            key = tuple(sorted(triple))
            if key not in seen:
                assert res.value == kronecker_oracle(*triple), triple
                assert sorted(res.orientation) == list(key)
                # all orders fit (3,3): the largest under (lambda, mu)
                assert res.orientation == max(
                    itertools.permutations(triple),
                    key=lambda order: (order[2], order[0])), triple
                seen[key] = res
            got = seen[key]
            assert (res.value, res.orientation, res.breakdown) == \
                (got.value, got.orientation, got.breakdown), triple
    assert len(seen) == 154


@pytest.mark.parametrize("n_max, longest, classes",
                         [(6, (0, 1, 2, 3), 154), (8, (4,), 743)],
                         ids=["3-row", "4-row"])
def test_default_path_gives_one_result_for_every_input_order(
        small_builds, monkeypatch, n_max, longest, classes):
    # a call that leaves l and m to the default takes its cone and the
    # triple it counts, maybe a conjugate pair, from the multiset alone.
    # Repeated fibres are counted once, since the subject is the plan.
    real, memo = kron.count_fibres, {}

    def count_once(cone, thetas):
        key = (cone.l, cone.m, tuple(thetas))
        if key not in memo:
            memo[key] = real(cone, thetas)
        return memo[key]
    monkeypatch.setattr(kron, "count_fibres", count_once)
    seen = 0
    for n in range(1, n_max + 1):
        parts = [p for p in partitions_of(n) if len(p) <= max(longest)]
        for triple in itertools.combinations_with_replacement(parts, 3):
            if max(map(len, triple)) not in longest:
                continue
            got = {(r.l, r.m, r.orientation, r.breakdown)
                   for r in (kronecker(*order)
                             for order in itertools.permutations(triple))}
            assert len(got) == 1, triple
            (l, m, (a, b, c), breakdown), = got
            assert sum(sg * ct for _, _, sg, ct in breakdown) == \
                kronecker_oracle(*triple), triple
            # the input or a conjugate pair of it, on a cone no larger in
            # l or m than the input's with the shortest partition as c
            counted = sorted((a, b, c))
            assert counted == sorted(triple) or counted in (
                sorted(p if i == k else transpose(p)
                       for i, p in enumerate(triple)) for k in range(3))
            lengths = sorted(map(len, triple))
            assert l <= max(2, lengths[2]) and m <= max(2, lengths[0])
            assert max(len(a), len(b)) <= l and len(c) <= m
            seen += 1
    assert seen == classes


def test_four_equal_rows_count_on_the_43_cone():
    # conjugating two of (3,3,3,3)^3 gives two 3-row partitions, so the
    # default counts on (4,3), at most 6 fibres, in place of (4,4)
    p = (3, 3, 3, 3)
    res = kronecker(p, p, p)
    assert (res.l, res.m) == (4, 3)
    assert res.orientation == ((4, 4, 4), (3, 3, 3, 3), (4, 4, 4))
    assert res.value == kronecker_oracle(p, p, p) == 1


def test_explicit_l_or_m_counts_the_input_itself(small_builds):
    # the default counts the conjugate pair (2,1), (2,1), (3) on (2,2);
    # an l and an m given pin the cone, and the input is counted as given
    triple = ((2, 1), (2, 1), (1, 1, 1))
    res = kronecker(*triple)
    assert (res.l, res.m, res.orientation) == (2, 2, ((2, 1), (2, 1), (3,)))
    for l, m in ((3, 2), (3, 3)):
        res = kronecker(*triple, l=l, m=m)
        assert (res.l, res.m) == (l, m)
        assert sorted(res.orientation) == sorted(triple)
        assert res.value == 1
    # one side alone is an error, whatever the order of the input
    for order in itertools.permutations(triple):
        for l, m in ((3, None), (None, 3)):
            with pytest.raises(OutOfRange, match="give both l and m, or "
                                                 "neither"):
                kronecker(*order, l=l, m=m)


def test_conjugate_pair_never_grows_l_or_m(small_builds):
    # conjugating both (4,1,1) gives the cone (4,2), less in l + m than
    # the input's (3,3) but larger in l, so the input is counted
    triple = ((4, 1, 1), (4, 1, 1), (2, 2, 2))
    res = kronecker(*triple)
    assert (res.l, res.m) == (3, 3)
    assert sorted(res.orientation) == sorted(triple)
    assert res.value == kronecker_oracle(*triple) == 1
    # the rule alone, on cones too large to count here: a pair would give
    # (6,3) and (4,3), larger in l and in m than the input's (4,4), (6,2)
    for triple, cone in ((((6, 1, 1, 1), (3, 2, 2, 2), (6, 1, 1, 1)), (4, 4)),
                         (((5, 1, 1, 1), (5, 1, 1, 1), (3, 3, 1, 1)), (4, 4)),
                         (((6, 1, 1), (4, 4), (3, 1, 1, 1, 1, 1)), (6, 2))):
        assert kron._default_cone(triple) == cone + (triple,)


def test_planning_solves_no_box(small_builds, monkeypatch):
    # the order is read off the partitions: the call maps only the fibres
    # it counts, one per distinct sorted alpha, in one fibre map product
    import hivekron.polyhedra as P
    real = P._FibreGeometry.fibres
    calls = []

    def spy(self, thetas):
        calls.append(list(thetas))
        return real(self, thetas)
    monkeypatch.setattr(P._FibreGeometry, "fibres", spy)
    res = kronecker((6, 3, 3), (5, 4, 3), (4, 4, 4), l=3, m=3)
    sigma = sigma_of(*res.orientation[:2], 3)
    alphas = {alpha for _, alpha, _, _ in res.breakdown}
    assert len(calls) == 1 and len(alphas) == 6
    assert sorted(calls[0]) == sorted(sigma + alpha for alpha in alphas)
