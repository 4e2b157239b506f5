#!/usr/bin/env python3
"""Run the structural validation suite over a grid of quiver sizes.

The exit code is 2 if a check fails on some size, and 1 on a bad command
line.
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
    worst = 0
    for l in range(2, args.max_l + 1):
        for m in range(2, args.max_m + 1):
            report = run_validation(l, m, level=args.level)
            status = "ok" if report.ok else "FAILED"
            bad = [c["name"] for c in report.checks if not c["ok"]]
            print(f"l={l} m={m}: {status} "
                  f"({len(report.checks)} checks{'; ' + ', '.join(bad) if bad else ''})")
            if not report.ok:
                worst = 2
                for c in report.checks:
                    if not c["ok"]:
                        print(f"  {c['name']}: {c['detail']}")
    sys.exit(worst)


if __name__ == "__main__":
    main()
