"""Compare two sets of end-to-end results against the bounds of BENCHMARK.json.

Usage, from the root of the repository:

    python3 perfbench/compare.py SET_A SET_B

Each set is a directory of result files written by ``run.py --trace 0``
(see ``--results``).  For each workload and end-to-end metric this prints
each set's median and quartiles, the spread (quartile distance over the
median) and the change of B's median against A's, signed so that a
positive change is worse.  The sets agree on a metric when B's median is
within the bound of A's, in either direction, and both spreads are
within the bound.  The share of failed operations must be the same in
both sets.  Exits with 1 when the sets disagree anywhere.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{workload: [result, ...]} of the untraced results in a directory."""
    sets = {}
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        if doc.get("trace") == 0 and "workload" in doc:
            sets.setdefault(doc["workload"], []).append(doc)
    return sets


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med


def failed_share(results):
    return (sum(r["failed"] for r in results),
            sum(r["attempted"] for r in results))


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load(argv[0]), load(argv[1])
    agree = True
    print("workload     metric        set   median        q1          q3"
          "          spread  B worse  bound  verdict")
    for workload in sorted(set(a) | set(b)):
        ra, rb = a.get(workload, []), b.get(workload, [])
        if len(ra) < 2 or len(rb) < 2:
            print(f"{workload:12} needs two results in each set "
                  f"(has {len(ra)} and {len(rb)})")
            agree = False
            continue
        fa, fb = failed_share(ra), failed_share(rb)
        if fa[0] * fb[1] != fb[0] * fa[1]:
            print(f"{workload:12} failed share differs: "
                  f"{fa[0]}/{fa[1]} against {fb[0]}/{fb[1]}")
            agree = False
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sa = summary([r["metrics"][name]["value"] for r in ra])
            sb = summary([r["metrics"][name]["value"] for r in rb])
            worse = (sb[0] - sa[0]) / sa[0]
            if metric["better"] == "higher":
                worse = -worse
            ok = abs(worse) <= bound and max(sa[3], sb[3]) <= bound
            agree &= ok
            for label, (med, q1, q3, spread) in (("A", sa), ("B", sb)):
                print(f"{workload:12} {name:13} {label:3} {med:<11.5g} "
                      f"{q1:<11.5g} {q3:<11.5g} {spread:6.3f}", end="")
                print(f"  {worse:+7.3f}  {bound:5.2f}  "
                      + ("agree" if ok else "DISAGREE") if label == "B"
                      else "")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
