"""Kronecker coefficients from symmetric-group characters, for checking.

This module imports nothing from ``hivekron``: the benchmark checks the
program's values against it.  Characters follow the Murnaghan-Nakayama
rule, removing one rim hook per cell of the diagram whose hook length
equals the part being removed, and

    g(mu, nu, lam) = (1/n!) * sum over classes rho of
                     |class rho| * chi^mu(rho) * chi^nu(rho) * chi^lam(rho).
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial


def partitions(n: int, max_rows: int | None = None) -> list:
    """Partitions of n with at most max_rows parts, largest first."""
    out = []

    def grow(rest, cap, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        if max_rows is not None and len(prefix) == max_rows:
            return
        for part in range(min(rest, cap), 0, -1):
            grow(rest - part, part, prefix + [part])

    grow(n, n, [])
    return out


def _remove_rim_hooks(lam: tuple, k: int):
    """(smaller partition, leg length) for each rim hook of size k in lam."""
    rows = len(lam)
    for i in range(rows):
        for j in range(lam[i]):
            arm = lam[i] - j - 1
            leg = sum(1 for r in range(i + 1, rows) if lam[r] > j)
            if arm + leg + 1 != k:
                continue
            new = list(lam)
            for r in range(i, i + leg):
                new[r] = lam[r + 1] - 1
            new[i + leg] = j
            yield tuple(x for x in new if x > 0), leg


@lru_cache(maxsize=None)
def character(lam: tuple, rho: tuple) -> int:
    """chi^lam at the class of cycle type rho (parts in any order)."""
    if not rho:
        return 1 if not lam else 0
    k, rest = rho[0], rho[1:]
    return sum((-1) ** leg * character(smaller, rest)
               for smaller, leg in _remove_rim_hooks(lam, k))


def class_size(rho: tuple) -> int:
    """Number of permutations of cycle type rho."""
    n = sum(rho)
    z = 1
    for part in set(rho):
        mult = rho.count(part)
        z *= part ** mult * factorial(mult)
    return factorial(n) // z


def kronecker(mu, nu, lam) -> int:
    """The Kronecker coefficient g(mu, nu, lam) by the character sum."""
    mu, nu, lam = (tuple(x for x in p if x > 0) for p in (mu, nu, lam))
    n = sum(mu)
    if sum(nu) != n or sum(lam) != n:
        raise ValueError(f"sizes differ: {mu}, {nu}, {lam}")
    total = sum(class_size(rho) * character(mu, rho) * character(nu, rho)
                * character(lam, rho) for rho in partitions(n))
    value, rem = divmod(total, factorial(n))
    if rem:
        raise ArithmeticError(f"character sum not divisible by {n}!")
    return value
