#!/usr/bin/env python3
"""Run the structural validation suite over a grid of quiver sizes.

The exit code is 2 if a check fails on some size, and 1 on a bad command
line, --max-l or --max-m below 2 among them.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from hivekron.cli import Parser
from hivekron.validate import run_validation


def main(argv=None):
    ap = Parser(description=__doc__)
    ap.add_argument("--max-l", type=int, default=4)
    ap.add_argument("--max-m", type=int, default=4)
    ap.add_argument("--level", choices=("quick", "full"), default="quick")
    args = ap.parse_args(argv)
    if min(args.max_l, args.max_m) < 2:
        ap.error("--max-l and --max-m must be >= 2")
    worst = 0
    for l in range(2, args.max_l + 1):
        for m in range(2, args.max_m + 1):
            checks = run_validation(l, m, level=args.level)
            bad = [c for c in checks if not c["ok"]]
            names = "; " + ", ".join(c["name"] for c in bad) if bad else ""
            print(f"l={l} m={m}: {'FAILED' if bad else 'ok'} "
                  f"({len(checks)} checks{names})")
            for c in bad:
                print(f"  {c['name']}: {c['detail']}")
            if bad:
                worst = 2
    sys.exit(worst)


if __name__ == "__main__":
    main()
