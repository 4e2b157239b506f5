"""Kronecker coefficients: the lattice-count pipeline and a character oracle.

The pipeline translates a partition triple into a weight target, counts
lattice points in at most len(lam)! fibre polytopes, and takes the signed sum.
The oracle computes the same number from symmetric-group characters via
the Murnaghan-Nakayama rule; the two must agree.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import add, sub
from typing import NamedTuple

from .errors import (OutOfRange, SizeTooLargeForOracle, as_ints,
                     as_worker_count)
from .polyhedra import build_cone, count_fibres

# cold at n = 24 the character sum takes at most 0.7 s on a 2-core host
# (worst measured: (12,1^12),(8,8,8),(7,6,5,4,2)); it grows with p(n)
ORACLE_BOUND = 24


def partition(parts) -> tuple:
    """Normalize to a weakly decreasing tuple without trailing zeros."""
    p = as_ints(parts, "partition parts")
    if list(p) != sorted(p, reverse=True):
        raise OutOfRange(f"not weakly decreasing: {p}")
    if p and p[-1] < 0:
        raise OutOfRange(f"negative part: {p}")
    while p and p[-1] == 0:
        p = p[:-1]
    return p


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


def _sigma(mu, nu, l: int) -> tuple:
    """Weight coordinates (sigma(-1..-l), sigma(1..l)) of a pair (mu, nu)
    of normalized partitions of one size and at most l parts.

    sigma(-k) is minus the number of columns of mu of length k, which is
    mu_k - mu_{k+1}, and sigma(k) is nu_k - nu_{k+1}: O(l), whatever n."""
    mu += (0,) * (l + 1 - len(mu))
    nu += (0,) * (l + 1 - len(nu))
    return tuple(map(sub, mu[1:], mu)) + tuple(map(sub, nu, nu[1:]))


def _shifts(lam, m: int):
    """(omega, lam^omega, sign) for the permutations omega of 1..m that keep
    lam^omega_i = lam_i - i + omega(i) >= 0, for a normalized partition lam
    of at most m parts, in itertools.permutations order.

    Past lam's k parts a shift needs omega(i) >= i, so omega fixes every
    i > k: only the k! orders of lam's own parts are scanned."""
    k = len(lam)
    base = [x - i for i, x in enumerate(lam, 1)]
    fixed, zeros = tuple(range(k + 1, m + 1)), (0,) * (m - k)
    out = []
    for omega, sign in _signed_permutations(k):
        shifted = tuple(map(add, base, omega))
        if min(shifted, default=0) >= 0:
            out.append((omega + fixed, shifted + zeros, sign))
    return out


@lru_cache(maxsize=None)
def _signed_permutations(k: int) -> tuple:
    """(omega, sign of omega) for every permutation of 1..k, in
    itertools.permutations order; _shifts asks only for k = len(lam)."""
    return tuple((omega, (-1) ** sum(a > b for a, b
                                     in itertools.combinations(omega, 2)))
                 for omega in itertools.permutations(range(1, k + 1)))


def _conjugate(p: tuple) -> tuple:
    """The conjugate of a normalized partition: its length is p's first
    part, and its first part p's length."""
    padded = p + (0,)
    out = []
    for i in range(len(p), 0, -1):
        out += [i] * (padded[i - 1] - padded[i])
    return tuple(out)


def _triple(mu, nu, lam) -> tuple:
    """The three partitions normalized; OutOfRange unless of one size."""
    mu, nu, lam = partition(mu), partition(nu), partition(lam)
    if not sum(mu) == sum(nu) == sum(lam):
        raise OutOfRange(
            f"sizes differ: |mu|={sum(mu)}, |nu|={sum(nu)}, |lambda|={sum(lam)}")
    return mu, nu, lam


class KroneckerResult(NamedTuple):
    value: int
    l: int
    m: int
    # (a, b, c) that was counted: the input in some order or, on the
    # default cone, a conjugate pair of it in some order
    orientation: tuple
    breakdown: tuple      # ((omega, sorted lam_shift, sign, count), ...)


def _default_cone(triple):
    """(l, m, triple) for a call that leaves both l and m to the default.

    The shortest partition goes on the m side, which gives the cone
    (l0, m0) = (max(2, longest), max(2, shortest)).  g is unchanged when
    two of its partitions are conjugated, and the conjugate of p is as
    long as p's first part, so each of the three conjugate pairs has a
    cone read off the lengths and first parts alone.  A pair is taken only
    when its cone has l <= l0 and m <= m0 and the least (l + m, m) of all,
    the input's included; of equal pairs, the one that keeps the largest
    partition unconjugated.  The result depends only on the multiset of
    the triple, and only the pair taken is conjugated.
    """
    lengths = list(map(len, triple))
    firsts = [p[0] if p else 0 for p in triple]
    l0, m0 = max(2, *lengths), max(2, min(lengths))
    best, kept, cone = (l0 + m0, m0), None, (l0, m0)
    for k, p in enumerate(triple):
        # the new lengths of the other two, conjugated
        x, y = firsts[k - 1], firsts[k - 2]
        if x > l0 or y > l0:
            continue
        l = max(2, lengths[k], x, y)
        m = max(2, min(lengths[k], x, y))
        key = (l + m, m)
        if m <= m0 and (key < best or key == best and kept is not None
                        and p > triple[kept]):
            best, kept, cone = key, k, (l, m)
    if kept is not None:
        triple = tuple(p if i == kept else _conjugate(p)
                       for i, p in enumerate(triple))
    return cone + (triple,)


def _plan(cone, triple):
    """(orientation, sigma, shifts, alphas) of the order (a, b, c) of the
    normalized triple, of one size, to count on cone: sigma(a, b), the
    shifts of c with each alpha sorted ascending, and the distinct sorted
    alphas.  The fibre at sigma(a, b) + alpha counts the weight
    multiplicity <s_a * s_b, h_alpha>, which depends only on the sorted
    alpha.

    Of the orders with a, b of at most l parts and c of at most m, the one
    taken is the largest under the key (c, a): c is the lexicographically
    largest partition that fits, and a the larger of the other two.
    """
    fitting = []
    for i, c in enumerate(triple):
        b, a = sorted(triple[:i] + triple[i + 1:])
        if len(a) <= cone.l and len(b) <= cone.l and len(c) <= cone.m:
            fitting.append((c, a, b))
    if not fitting:
        raise OutOfRange(f"no order of the partitions fits l={cone.l}, "
                         f"m={cone.m}")
    c, a, b = max(fitting)
    shifts = [(omega, tuple(sorted(alpha)), sign)
              for omega, alpha, sign in _shifts(c, cone.m)]
    alphas = sorted({alpha for _, alpha, _ in shifts})
    return (a, b, c), _sigma(a, b, cone.l), shifts, alphas


def kronecker(mu, nu, lam, l: int = None, m: int = None,
              workers: int = 1) -> KroneckerResult:
    """g_{mu,nu}^lambda as a signed sum of fibre lattice-point counts.

    g is symmetric in its arguments, and unchanged when two of them are
    conjugated.  A call that leaves both l and m to the default counts on
    the smallest cone that a rule on the lengths and first parts finds:
    the shortest partition on the m side, or a conjugate pair of the
    triple when that gives a cone no larger in l or m and smaller in
    (l + m, m); the orientation then holds the conjugate pair.  A call
    that gives both l and m counts the triple itself on that cone; one
    that gives only one of them raises OutOfRange.

    On its cone the triple is counted in one fixed order (a, b, c) among
    those that fit: c is the lexicographically largest partition that
    fits, and a the larger of the other two, so every input order gives
    one result.  The breakdown has one term per shift of c, with its alpha
    sorted, and each distinct sorted alpha is counted once: all of them
    together, in one block DFS whose blocks mix their nodes.

    workers must be an int >= 1 (else OutOfRange) and has no other effect:
    every call counts in one process.
    """
    triple = _triple(mu, nu, lam)
    as_worker_count(workers)
    if l is None and m is None:
        l, m, triple = _default_cone(triple)
    elif l is None or m is None:
        raise OutOfRange("give both l and m, or neither")
    cone = build_cone(l, m)
    orientation, sigma, shifts, alphas = _plan(cone, triple)
    thetas = [sigma + alpha for alpha in alphas]
    count_of = dict(zip(alphas, count_fibres(cone, thetas)))
    breakdown = tuple(shift + (count_of[shift[1]],) for shift in shifts)
    total = sum(sign * cnt for _, _, sign, cnt in breakdown)
    return KroneckerResult(total, l, m, orientation, breakdown)


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
        raise OutOfRange(f"|lambda|={sum(lam)} differs from |rho|={sum(rho)}")
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


def class_size_inverse(rho: tuple):
    """1/z_rho as a Fraction, where z_rho = prod_i i^{m_i} m_i!."""
    from fractions import Fraction

    z = 1
    for part in set(rho):
        mult = rho.count(part)
        z *= part ** mult
        for k in range(1, mult + 1):
            z *= k
    return Fraction(1, z)


def kronecker_oracle(mu, nu, lam) -> int:
    """Independent character-sum evaluation of the Kronecker coefficient."""
    mu, nu, lam = _triple(mu, nu, lam)
    n = sum(mu)
    if n > ORACLE_BOUND:
        raise SizeTooLargeForOracle(
            f"n={n} exceeds the oracle bound {ORACLE_BOUND}")
    total = 0
    for rho in partitions_of(n):
        total += (class_size_inverse(rho) * mn_character(lam, rho)
                  * mn_character(mu, rho) * mn_character(nu, rho))
    if total.denominator != 1:
        raise ArithmeticError(f"character sum is not integral: {total}")
    return int(total)
