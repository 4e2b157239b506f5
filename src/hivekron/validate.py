"""Runtime validation suite driving the invariants of every module."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .diamonds import (build_bar, build_tilde, expected_vertex_count,
                       twist_route_difference)
from .errors import DegenerateSample, OutOfRange
from .kron import kronecker, kronecker_oracle, partitions_of
from .pathmods import boundary_path, diagonal_module
from .polyhedra import build_cone
from .quiver import b_matrix_rank, weight_defect
from .semiinv import Representation, check_exchange_relations


@dataclass
class ValidationReport:
    l: int
    m: int
    level: str
    checks: list = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = ""):
        self.checks.append({"name": name, "ok": ok, "detail": detail})

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)


def run_validation(l: int, m: int, level: str = "quick",
                   seed: int = 20240501) -> ValidationReport:
    if level not in ("quick", "full"):
        raise OutOfRange(f"level must be 'quick' or 'full', not {level!r}")
    rep = ValidationReport(l, m, level)
    rng = random.Random(seed)

    Qt, st = build_tilde(l, m)       # raises if B.sigma != 0
    rep.add("tilde-weight-config", not weight_defect(Qt, st))
    Qb, sb = build_bar(l, m)
    rep.add("bar-weight-config", not weight_defect(Qb, sb))
    diff = twist_route_difference(l, m)
    rep.add("twist-routes", diff is None, str(diff or ""))

    exp = expected_vertex_count(l, m) + m
    rep.add("vertex-count", len(Qt.vertices) == exp,
            f"{len(Qt.vertices)} vs {exp}")
    rep.add("bar-vertex-count", len(Qb.vertices) == exp)

    rep.add("tilde-full-rank", b_matrix_rank(Qt) == len(Qt.mutable))
    rep.add("bar-full-rank", b_matrix_rank(Qb) == len(Qb.mutable))

    # weight-dimension identity against the boundary modules
    wd_ok = True
    for v in Qb.frozen:
        if v.kind != "hive":
            continue
        T = boundary_path(l, m, v, Qb)
        j = v.j
        for u in Qb.vertices:
            d = T.dim_at(u)
            w = sb[u]
            expect = w[l + j - 1] if v.dual else -w[j - 1]
            if d != expect:
                wd_ok = False
    rep.add("weight-dimension-identity", wd_ok)

    # diagonal modules are uniserial with socle at the det vertex
    diag_ok = True
    for n in range(1, m + 1):
        T = diagonal_module(l, m, n, Qb)
        if T.total_dim != (l if n >= 2 else 1):
            diag_ok = False
        if T.path[-1].kind != "det":
            diag_ok = False
    rep.add("diagonal-modules", diag_ok)

    cone = build_cone(l, m)
    rep.add("facet-frozen-support", all(
        sum(1 for v, coef in zip(cone.vertices, f)
            if coef and v in Qb.frozen) == 1
        for f in cone.facets))
    if (l, m) == (3, 3):
        rep.add("facet-count-43", len(cone.facets) == 43,
                f"{len(cone.facets)} facets")

    # exchange relations on random integer representations
    samples = 5 if level == "quick" else 100
    failures = 0
    done = 0
    while done < samples:
        M = Representation.random(l, m, rng)
        try:
            report = check_exchange_relations(l, m, M, Qt)
        except DegenerateSample:
            continue
        done += 1
        failures += len(report.failures)
    rep.add("exchange-relations", failures == 0,
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
        rep.add("oracle-sweep", bad == 0, f"{bad} mismatches")
    return rep
