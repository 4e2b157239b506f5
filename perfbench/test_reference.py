"""Checks of the benchmark's own reference routine against known values.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from reference import character, kronecker, partitions


def test_known_coefficients():
    assert kronecker((2, 1), (2, 1), (2, 1)) == 1
    assert kronecker((3, 2, 1), (3, 2, 1), (3, 2, 1)) == 5


def test_characters_of_s3():
    assert character((2, 1), (1, 1, 1)) == 2
    assert character((2, 1), (2, 1)) == 0
    assert character((2, 1), (3,)) == -1
    assert character((1, 1, 1), (2, 1)) == -1


def test_trivial_and_sign_rows():
    for n in range(1, 7):
        for lam in partitions(n):
            assert kronecker((n,), lam, lam) == 1
            conj = tuple(sum(1 for x in lam if x > j) for j in range(lam[0]))
            assert kronecker((1,) * n, lam, conj) == 1


def test_partition_counts():
    assert [len(partitions(n)) for n in range(1, 9)] == [1, 2, 3, 5, 7, 11, 15, 22]
    assert [len(partitions(n, 3)) for n in range(1, 8)] == [1, 2, 3, 4, 5, 7, 8]
