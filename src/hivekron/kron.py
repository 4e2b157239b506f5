"""Kronecker coefficients: the lattice-count pipeline and a character oracle.

The pipeline translates a partition triple into a weight target, counts
lattice points in at most m! fibre polytopes, and takes the signed sum.
The oracle computes the same number from symmetric-group characters via
the Murnaghan-Nakayama rule; the two must agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (LengthExceedsL, LengthExceedsM, OutOfRange,
                     SizeMismatch, SizeTooLargeForOracle, as_ints)
from .polyhedra import build_cone, count_lattice_points

ORACLE_BOUND = 12


def partition(parts) -> tuple:
    """Normalize to a weakly decreasing tuple without trailing zeros."""
    p = as_ints(parts, "partition parts")
    if any(a < b for a, b in zip(p, p[1:])):
        raise OutOfRange(f"not weakly decreasing: {p}")
    if any(x < 0 for x in p):
        raise OutOfRange(f"negative part: {p}")
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def transpose(p: tuple) -> tuple:
    if not p:
        return ()
    return tuple(sum(1 for x in p if x > j) for j in range(p[0]))


def partitions_of(n: int, max_len: int = None):
    """All partitions of n (optionally of bounded length), lexicographic."""
    def gen(rest, most, length):
        if rest == 0:
            yield ()
            return
        if max_len is not None and length >= max_len:
            return
        for first in range(min(rest, most), 0, -1):
            for tail in gen(rest - first, first, length + 1):
                yield (first,) + tail
    return list(gen(n, n, 0))


def sigma_of(mu, nu, l: int) -> tuple:
    """Weight coordinates (sigma(-1..-l), sigma(1..l)) of a pair (mu, nu)."""
    mu, nu = partition(mu), partition(nu)
    if sum(mu) != sum(nu):
        raise SizeMismatch(f"|mu|={sum(mu)} differs from |nu|={sum(nu)}")
    if len(mu) > l or len(nu) > l:
        raise LengthExceedsL(f"partition length exceeds l={l}")
    mu_t, nu_t = transpose(mu), transpose(nu)
    neg = [0] * l
    pos = [0] * l
    for part in mu_t:
        neg[part - 1] -= 1
    for part in nu_t:
        pos[part - 1] += 1
    return tuple(neg + pos)


def lambda_shifts(lam, m: int):
    """(omega, lam^omega, sign) for the permutations keeping lam^omega >= 0."""
    lam = partition(lam)
    if len(lam) > m:
        raise LengthExceedsM(f"lambda has more than m={m} parts")
    padded = list(lam) + [0] * (m - len(lam))
    out = []
    for omega in itertools.permutations(range(1, m + 1)):
        shifted = tuple(padded[i - 1] - i + omega[i - 1] for i in range(1, m + 1))
        if all(x >= 0 for x in shifted):
            sign = _perm_sign(omega)
            out.append((omega, shifted, sign))
    return out


def _perm_sign(omega) -> int:
    seen = [False] * len(omega)
    sign = 1
    for s in range(len(omega)):
        if seen[s]:
            continue
        length = 0
        k = s
        while not seen[k]:
            seen[k] = True
            k = omega[k] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@dataclass(frozen=True)
class KroneckerResult:
    value: int
    l: int
    m: int
    breakdown: tuple      # ((omega, lam_shift, sign, count), ...)


def kronecker(mu, nu, lam, l: int = None, m: int = None,
              workers: int = 1) -> KroneckerResult:
    """g_{mu,nu}^lambda as a signed sum of fibre lattice-point counts."""
    mu, nu, lam = partition(mu), partition(nu), partition(lam)
    n = sum(mu)
    if sum(nu) != n or sum(lam) != n:
        raise SizeMismatch(
            f"sizes differ: |mu|={sum(mu)}, |nu|={sum(nu)}, |lambda|={sum(lam)}")
    if l is None:
        l = max(2, len(mu), len(nu))
    if m is None:
        m = max(2, len(lam))
    sigma = sigma_of(mu, nu, l)
    cone = build_cone(l, m)
    breakdown = []
    total = 0
    for omega, shifted, sign in lambda_shifts(lam, m):
        cnt = count_lattice_points(cone, sigma + shifted, workers=workers)
        breakdown.append((omega, shifted, sign, cnt))
        total += sign * cnt
    return KroneckerResult(total, l, m, tuple(breakdown))


# ---------------------------------------------------------------------------
# the character-theoretic oracle


@lru_cache(maxsize=None)
def mn_character(lam: tuple, rho: tuple) -> int:
    """Irreducible symmetric-group character via border-strip recursion.

    Border strips are removed on the beta-set (abacus) model: a strip of
    size k is a bead b with b-k free; its height is the number of beads
    strictly between b-k and b.
    """
    lam, rho = partition(lam), partition(rho)
    if sum(lam) != sum(rho):
        raise SizeMismatch(f"|lambda|={sum(lam)} differs from |rho|={sum(rho)}")
    if not lam:
        return 1
    k = rho[0]
    rest = rho[1:]
    L = len(lam)
    beta = [lam[i] + (L - 1 - i) for i in range(L)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((beta_set - {b}) | {nb}, reverse=True)
        new_lam = tuple(new_beta[i] - (L - 1 - i) for i in range(L))
        total += (-1) ** height * mn_character(partition(new_lam), rest)
    return total


def class_size_inverse(rho: tuple) -> Fraction:
    """1/z_rho where z_rho = prod_i i^{m_i} m_i!."""
    z = 1
    for part in set(rho):
        mult = rho.count(part)
        z *= part ** mult
        for k in range(1, mult + 1):
            z *= k
    return Fraction(1, z)


def kronecker_oracle(mu, nu, lam, bound: int = ORACLE_BOUND) -> int:
    """Independent character-sum evaluation of the Kronecker coefficient."""
    mu, nu, lam = partition(mu), partition(nu), partition(lam)
    n = sum(mu)
    if sum(nu) != n or sum(lam) != n:
        raise SizeMismatch(
            f"sizes differ: |mu|={sum(mu)}, |nu|={sum(nu)}, |lambda|={sum(lam)}")
    if n > bound:
        raise SizeTooLargeForOracle(f"n={n} exceeds the oracle bound {bound}")
    total = Fraction(0)
    for rho in partitions_of(n):
        total += (class_size_inverse(rho) * mn_character(lam, rho)
                  * mn_character(mu, rho) * mn_character(nu, rho))
    if total.denominator != 1:
        raise ArithmeticError(f"character sum is not integral: {total}")
    return int(total)
