"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Tolerances are exact: every assertion below is integer equality or an
exact structural identity.
"""

import itertools
import random
import time

from hivekron.diamonds import build_bar, build_tilde, expected_vertex_count
from hivekron.kron import kronecker, kronecker_oracle, partitions_of
from hivekron.pathmods import boundary_path, diagonal_module, submodule_dims
from hivekron.polyhedra import build_cone, count_lattice_points
from hivekron.quiver import b_matrix_rank, hive_vertex, weight_defect
from hivekron.semiinv import Representation, check_exchange_relations


def _report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {tag} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def H(i, j, n, dual=False):
    return hive_vertex(n, i, j, dual)


def test_criterion_1_facet_fixture(capsys):
    build_cone.cache_clear()
    t0 = time.time()
    cone = build_cone(3, 3)
    cold = time.time() - t0
    Q, _ = build_bar(3, 3)
    path_counts = []
    for v in sorted((w for w in Q.frozen if w.kind == "hive"),
                    key=lambda w: w.sort_key()):
        path_counts.append(len(submodule_dims(boundary_path(3, 3, v, Q), True)))
    diag_counts = [len(submodule_dims(diagonal_module(3, 3, n, Q), False))
                   for n in (1, 2, 3)]
    ok = (len(cone.facets) == 43 and path_counts == [9, 9, 9, 9]
          and diag_counts == [1, 3, 3] and cold < 1.0)
    with capsys.disabled():
        _report(1, ok, f"43 facets = 36+6+1, cold build {cold:.3f}s")


def test_criterion_2_path_fixtures(capsys, small_builds):
    Q, _ = build_bar(3, 3)
    p1 = boundary_path(3, 3, H(0, 1, 3), Q)
    p2 = boundary_path(3, 3, H(0, 2, 3), Q)
    exp1 = [H(0, 1, 3, True), H(1, 1, 3, True), H(2, 0, 3), H(1, 2, 2),
            H(1, 1, 2), H(1, 0, 2), H(0, 1, 1), H(1, 1, 2), H(2, 1, 2),
            H(0, 1, 3)]
    exp2 = [H(0, 2, 3, True), H(1, 0, 3), H(1, 1, 3), H(2, 1, 2),
            H(2, 0, 2), H(1, 1, 2, True), H(0, 2, 1), H(1, 2, 2),
            H(1, 1, 3), H(0, 2, 3)]
    ok = (list(p1) == exp1 and list(p2) == exp2
          and p1.count(H(1, 1, 2)) == 2 and p2.count(H(1, 1, 3)) == 2)
    with capsys.disabled():
        _report(2, ok, "both displayed vertex sequences verbatim")


def test_criterion_3_oracle_sweep(capsys, small_builds):
    t0 = time.time()
    mismatches = []
    checked = 0
    for n in range(1, 7):
        parts = [tuple(p) for p in partitions_of(n) if len(p) <= 3]
        for mu, nu, lam in itertools.product(parts, repeat=3):
            checked += 1
            if kronecker(mu, nu, lam).value != kronecker_oracle(mu, nu, lam):
                mismatches.append((mu, nu, lam))
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 600
    with capsys.disabled():
        _report(3, ok, f"{checked} triples, {len(mismatches)} mismatches, "
                f"{elapsed:.1f}s")


def test_criterion_4_structural_suite(capsys):
    failures = []
    for l in (2, 3, 4):
        for m in (2, 3, 4):
            Qt, st_ = build_tilde(l, m)
            Qb, sb = build_bar(l, m)
            if weight_defect(Qt, st_) or weight_defect(Qb, sb):
                failures.append((l, m, "weights"))
            if b_matrix_rank(Qt) != len(Qt.mutable) or \
                    b_matrix_rank(Qb) != len(Qb.mutable):
                failures.append((l, m, "rank"))
            if len(Qt.vertices) != expected_vertex_count(l, m):
                failures.append((l, m, "count"))
            for v in Qb.frozen:
                if v.kind != "hive":
                    continue
                T = boundary_path(l, m, v, Qb)
                j = v.j
                for u in Qb.vertices:
                    w = sb[u]
                    expect = w[l + j - 1] if v.dual else -w[j - 1]
                    if T.count(u) != expect:
                        failures.append((l, m, "weight-dim", v, u))
    with capsys.disabled():
        _report(4, not failures,
                f"2<=l,m<=4 weights/rank/counts/dim-identity; {failures[:2]}")


def test_criterion_5_exchange_sampling(capsys):
    rng = random.Random(20260808)
    bad = 0
    for l in (2, 3):
        for m in (2, 3):
            Q, _ = build_tilde(l, m)
            done = 0
            while done < 100:
                M = Representation.random(l, m, rng)
                try:
                    bad += len(check_exchange_relations(l, m, M, Q))
                except Exception:
                    continue
                done += 1
    with capsys.disabled():
        _report(5, bad == 0, f"400 random representations, {bad} failures")


def test_criterion_6_counting_soundness(capsys, small_builds):
    from test_polyhedra import brute_force_count
    cone = build_cone(2, 2)
    rng = random.Random(606)
    bad = 0
    for _ in range(20):
        theta = tuple(rng.randint(-2, 2) for _ in range(6))
        if count_lattice_points(cone, theta) != brute_force_count(cone, theta):
            bad += 1
    with capsys.disabled():
        _report(6, bad == 0, "20 targets: DFS == brute force")


def test_criterion_7_symmetry_positivity_stability(capsys, small_builds):
    neg = []
    asym = []
    for n in range(1, 7):
        parts = [tuple(p) for p in partitions_of(n) if len(p) <= 3]
        for mu, nu in itertools.combinations_with_replacement(parts, 2):
            for lam in parts:
                a = kronecker(mu, nu, lam).value
                if a < 0:
                    neg.append((mu, nu, lam))
                if mu != nu and kronecker(nu, mu, lam).value != a:
                    asym.append((mu, nu, lam))
    stability_bad = []
    sample = [((1,), (1,), (1,)), ((2,), (2,), (2,)), ((2,), (1, 1), (1, 1)),
              ((1, 1), (1, 1), (2,)), ((2, 1), (2, 1), (2, 1)),
              ((2, 1), (2, 1), (1, 1, 1)), ((3,), (2, 1), (2, 1)),
              ((1, 1, 1), (1, 1, 1), (3,)), ((2, 2), (2, 2), (2, 2)),
              ((3, 1), (2, 2), (2, 1, 1))]
    for mu, nu, lam in sample:
        # pad the triple that was counted: a conjugate pair's cone need
        # not fit the input
        base = kronecker(mu, nu, lam)
        counted = base.orientation
        up_l = kronecker(*counted, l=base.l + 1, m=base.m).value
        up_m = kronecker(*counted, l=base.l, m=base.m + 1).value
        # far past m + 1 as well, which costs len(lam)! shifts, not m!
        far = [kronecker(*counted, l=base.l, m=m).value for m in (6, 8)]
        if not (base.value == up_l == up_m) or far != [base.value] * 2:
            stability_bad.append((mu, nu, lam, base.value, up_l, up_m, far))
    ok = not neg and not asym and not stability_bad
    with capsys.disabled():
        _report(7, ok, f"neg={len(neg)} asym={len(asym)} "
                f"stability={stability_bad[:2]}")
