"""Runtime validation suite driving the invariants of every module."""

from __future__ import annotations

import itertools
import random

from .diamonds import (build_bar, build_tilde, expected_vertex_count,
                       twist_route_difference)
from .errors import DegenerateSample, OutOfRange
from .kron import kronecker, kronecker_oracle, partitions_of
from .pathmods import boundary_path
from .polyhedra import build_cone
from .quiver import b_matrix_rank
from .semiinv import Representation, check_exchange_relations


def run_validation(l: int, m: int, level: str = "quick") -> list:
    """The checks of the (l, m) quiver and cone at this level, in a fixed
    order, each a dict {"name", "ok", "detail"}."""
    if level not in ("quick", "full"):
        raise OutOfRange(f"level must be 'quick' or 'full', not {level!r}")
    checks = []

    def add(name: str, ok: bool, detail: str = ""):
        checks.append({"name": name, "ok": ok, "detail": detail})

    rng = random.Random(20240501)

    # both builds raise Inconsistent unless their weights are balanced
    Qt, _ = build_tilde(l, m)
    Qb, sb = build_bar(l, m)
    diff = twist_route_difference(l, m)
    add("twist-routes", diff is None, str(diff or ""))

    exp = expected_vertex_count(l, m)
    add("vertex-count", len(Qt.vertices) == exp,
        f"{len(Qt.vertices)} vs {exp}")
    add("bar-vertex-count", len(Qb.vertices) == exp)

    add("tilde-full-rank", b_matrix_rank(Qt) == len(Qt.mutable))
    add("bar-full-rank", b_matrix_rank(Qb) == len(Qb.mutable))

    # weight-dimension identity against the boundary modules
    wd_ok = True
    for v in Qb.frozen:
        if v.kind != "hive":
            continue
        T = boundary_path(l, m, v, Qb)
        j = v.j
        for u in Qb.vertices:
            w = sb[u]
            if T.count(u) != (w[l + j - 1] if v.dual else -w[j - 1]):
                wd_ok = False
    add("weight-dimension-identity", wd_ok)

    cone = build_cone(l, m)
    add("facet-frozen-support", all(
        sum(1 for v, coef in zip(cone.vertices, f)
            if coef and v in Qb.frozen) == 1
        for f in cone.facets))
    if (l, m) == (3, 3):
        add("facet-count-43", len(cone.facets) == 43,
            f"{len(cone.facets)} facets")

    # exchange relations on random integer representations
    samples = 5 if level == "quick" else 100
    failures = 0
    done = 0
    while done < samples:
        M = Representation.random(l, m, rng)
        try:
            failures += len(check_exchange_relations(l, m, M, Qt))
        except DegenerateSample:
            continue
        done += 1
    add("exchange-relations", failures == 0,
        f"{done} samples, {failures} failures")

    if level == "full":
        bad = 0
        n_max = 4 if max(l, m) >= 3 else 3
        for n in range(1, n_max + 1):
            parts = [p for p in partitions_of(n) if len(p) <= min(l, 3)]
            lparts = [p for p in partitions_of(n) if len(p) <= min(m, 3)]
            for mu, nu in itertools.combinations_with_replacement(parts, 2):
                for lam in lparts:
                    got = kronecker(mu, nu, lam, l=l, m=m).value
                    if got != kronecker_oracle(mu, nu, lam):
                        bad += 1
        add("oracle-sweep", bad == 0, f"{bad} mismatches")
    return checks
