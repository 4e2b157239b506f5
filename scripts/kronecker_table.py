#!/usr/bin/env python3
"""Tabulate Kronecker coefficients for all partition triples of n.

With --verify each value is checked against the character oracle; a
mismatch is reported on stderr and the exit code is 2.  Past the oracle's
size bound the table is printed unverified, as its summary line on stderr
says, and the exit code is 0.  A bad command line, n < 0 or --max-len < 1
among them, exits 1.

Example:
    python scripts/kronecker_table.py 5 --max-len 3 --verify
"""

import itertools
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from hivekron.cli import Parser
from hivekron.errors import SizeTooLargeForOracle
from hivekron.kron import kronecker, kronecker_oracle, partitions_of


def main(argv=None):
    ap = Parser(description=__doc__)
    ap.add_argument("n", type=int)
    ap.add_argument("--max-len", type=int, default=3)
    ap.add_argument("--verify", action="store_true")
    ap.add_argument("--nonzero-only", action="store_true")
    args = ap.parse_args(argv)
    if args.n < 0 or args.max_len < 1:
        ap.error("n must be >= 0 and --max-len >= 1")

    parts = [tuple(p) for p in partitions_of(args.n, max_len=args.max_len)]
    t0 = time.time()
    rows = wrong = 0
    verify, tag = args.verify, "unverified"
    for mu, nu in itertools.combinations_with_replacement(parts, 2):
        for lam in parts:
            g = kronecker(mu, nu, lam).value
            if verify:
                try:
                    expect = kronecker_oracle(mu, nu, lam)
                except SizeTooLargeForOracle as exc:
                    # every triple has the same n, so no later one verifies
                    verify, expect, tag = False, g, f"{exc}, unverified"
                if expect != g:
                    print(f"g[{mu} , {nu} ; {lam}]: the oracle gives {expect}",
                          file=sys.stderr)
                    wrong += 1
            if g or not args.nonzero_only:
                print(f"g[{mu} , {nu} ; {lam}] = {g}")
                rows += 1
    if verify:
        tag = (f"mismatches with the character oracle: {wrong}" if wrong
               else "verified against the character oracle")
    print(f"# {rows} rows in {time.time() - t0:.1f}s ({tag})", file=sys.stderr)
    if wrong:
        sys.exit(2)


if __name__ == "__main__":
    main()
