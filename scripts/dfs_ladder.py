#!/usr/bin/env python3
"""Time the lattice-point DFS on the ladder g((2k,k,k), (2k,k,k), (2k,k,k)).

Each k is one coefficient of n = 4k counted on the (3,3) cone, timed after
the cone and its fibre geometry are built; a line gives n, the value and
the wall time.  With --verify each value is checked against the character
oracle (outside the timing); a mismatch is reported on stderr and the exit
code is 2.  A value past the oracle's size bound is reported on stderr as
unverified.  A bad command line exits 1.

Example:
    python scripts/dfs_ladder.py 4 6 8
    python scripts/dfs_ladder.py --verify 4 5
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from hivekron.cli import Parser
from hivekron.errors import SizeTooLargeForOracle
from hivekron.kron import kronecker, kronecker_oracle


def main(argv=None):
    ap = Parser(description=__doc__)
    ap.add_argument("k", type=int, nargs="+")
    ap.add_argument("--verify", action="store_true",
                    help="check each value against the character oracle")
    args = ap.parse_args(argv)
    if min(args.k) < 1:
        ap.error("every k must be >= 1")
    kronecker((1,), (1,), (1,), l=3, m=3)      # builds the (3,3) geometry
    wrong = 0
    for k in args.k:
        lam = (2 * k, k, k)
        t0 = time.perf_counter()
        g = kronecker(lam, lam, lam, l=3, m=3).value
        print(f"n={4 * k} g={g} {time.perf_counter() - t0:.3f}s", flush=True)
        if not args.verify:
            continue
        try:
            expect = kronecker_oracle(lam, lam, lam)
        except SizeTooLargeForOracle as exc:
            print(f"{exc}, unverified", file=sys.stderr)
            continue
        if expect != g:
            print(f"n={4 * k}: the oracle gives g={expect}", file=sys.stderr)
            wrong += 1
    if wrong:
        sys.exit(2)


if __name__ == "__main__":
    main()
