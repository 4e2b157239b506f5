import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivekron.errors import HivekronError, OutOfRange, SizeTooLargeForOracle
from hivekron.kron import (class_size_inverse, kronecker, kronecker_oracle,
                           lambda_shifts, mn_character, partition,
                           partitions_of, sigma_of, transpose)


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


def test_transpose_involution():
    for p in partitions_of(6):
        assert transpose(transpose(tuple(p))) == tuple(p)


def test_sigma_of_21():
    # mu = nu = (2,1), l = 3: mu* = (2,1)
    assert sigma_of((2, 1), (2, 1), 3) == (-1, -1, 0, 1, 1, 0)


def test_sigma_of_row():
    assert sigma_of((3,), (3,), 3) == (-3, 0, 0, 3, 0, 0)


def test_sigma_of_size_mismatch():
    with pytest.raises(OutOfRange, match=r"\|mu\|=4 differs from \|nu\|=3"):
        sigma_of((2, 2), (3,), 3)


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


def test_kronecker_explicit_l_m(small_builds):
    base = kronecker((2, 1), (2, 1), (2, 1))
    assert kronecker((2, 1), (2, 1), (2, 1), l=3, m=3).value == base.value


def test_class_sizes_sum():
    for n in range(1, 8):
        total = sum(class_size_inverse(tuple(r)) for r in partitions_of(n))
        # sum of 1/z_rho = number of partitions weighted... equals p(n)/n!*...:
        # the conjugacy classes partition S_n, so sum of |class|/n! = 1
        assert total == Fraction(1)


def test_mn_size_mismatch():
    with pytest.raises(OutOfRange, match=r"\|lambda\|=3 differs from \|rho\|=4"):
        mn_character((2, 1), (2, 2))
