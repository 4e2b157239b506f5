"""The benchmark's workloads: their inputs, made from a seed.

Each workload is a list of calls that makes up one round; a run repeats
whole rounds until its measuring time is used up.  An item is
``(mu, nu, lam, l, m)``; ``l`` and ``m`` are None where the call leaves
them to the program's default.  The README gives the reasons for each
choice of size.
"""

from __future__ import annotations

import random

from reference import partitions

SWEEP_N = 7          # table-sweep: every n <= 7, at most 3 rows
DFS_N = 12           # dfs-heavy: balanced three-row shapes of 12
CLI_N = 6            # cli-cold: three-row shapes of 6
CLI_CALLS = {(3, 3): 6, (2, 2): 2}    # cli-cold calls per cone in a round
REFERENCE_CONES = ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4))

NAMES = ("table-sweep", "dfs-heavy", "cli-cold")


def default_cone(mu, nu, lam):
    """The (l, m) that kronecker and ``hivekron coeff`` choose by default."""
    return max(2, len(mu), len(nu)), max(2, len(lam))


def table_sweep(rng):
    """Each unordered pair {mu, nu} once, mu >= nu, in a seeded order."""
    items = []
    for n in range(1, SWEEP_N + 1):
        shapes = partitions(n, 3)
        items += [(mu, nu, lam, None, None) for i, mu in enumerate(shapes)
                  for nu in shapes[i:] for lam in shapes]
    rng.shuffle(items)
    return items


def balanced_shapes(n):
    """Three-row partitions of n whose smallest part is at least n/4."""
    return [p for p in partitions(n, 3) if len(p) == 3 and 4 * p[2] >= n]


def dfs_heavy(rng):
    """Every triple of balanced shapes with mu >= nu, in a seeded order.

    The whole set runs every round: item costs spread over a factor of
    ten, so a seeded subset would move the median with its mix.
    """
    shapes = balanced_shapes(DFS_N)
    items = [(a, b, lam, 3, 3) for i, a in enumerate(shapes)
             for b in shapes[i:] for lam in shapes]
    rng.shuffle(items)
    return items


def cli_cold(rng):
    """Seeded triples of size CLI_N whose default cone is one of CLI_CALLS."""
    shapes = partitions(CLI_N, 3)
    items = []
    for (l, m), calls in CLI_CALLS.items():
        pool = [(mu, nu, lam, None, None) for mu in shapes for nu in shapes
                for lam in shapes if default_cone(mu, nu, lam) == (l, m)]
        items += rng.sample(pool, calls)
    rng.shuffle(items)
    return items


def make(name, seed):
    rng = random.Random(f"{name}:{seed}")
    if name == "table-sweep":
        return table_sweep(rng)
    if name == "dfs-heavy":
        return dfs_heavy(rng)
    if name == "cli-cold":
        return cli_cold(rng)
    raise ValueError(f"unknown workload {name!r}")


def cones(items):
    """The cones the items use, sorted, so set-up runs in a fixed order."""
    out = []
    for mu, nu, lam, l, m in items:
        cone = (l, m) if l is not None else default_cone(mu, nu, lam)
        if cone not in out:
            out.append(cone)
    return sorted(out)
