#!/usr/bin/env python3
"""Time the lattice-point DFS on the ladder g((2k,k,k), (2k,k,k), (2k,k,k)).

Each k is one coefficient of n = 4k counted on the (3,3) cone, timed after
the cone and its fibre geometry are built; a line gives n, the value and
the wall time.

Example:
    python scripts/dfs_ladder.py 4 6 8
"""

import argparse
import sys
import time

sys.path.insert(0, "src")

from hivekron.kron import kronecker


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("k", type=int, nargs="+")
    args = ap.parse_args()
    if min(args.k) < 1:
        ap.error("every k must be >= 1")
    kronecker((1,), (1,), (1,), l=3, m=3)      # builds the (3,3) geometry
    for k in args.k:
        lam = (2 * k, k, k)
        t0 = time.perf_counter()
        g = kronecker(lam, lam, lam, l=3, m=3).value
        print(f"n={4 * k} g={g} {time.perf_counter() - t0:.3f}s")


if __name__ == "__main__":
    main()
