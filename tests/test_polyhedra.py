import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivekron.kron import lambda_shifts, partitions_of, sigma_of
from hivekron.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp
from hivekron.polyhedra import (Cone, _hnf_solve, build_cone, cone_from_json,
                                cone_to_json, count_lattice_points)
from hivekron.quiver import VertexId, hive_vertex


def test_cone_333_facets(small_builds):
    c = build_cone(3, 3)
    assert len(c.facets) == 43
    assert c.ambient_dim == 21


def test_cone_facet_breakdown(small_builds):
    from hivekron.pathmods import boundary_path, diagonal_module, submodule_dims
    from hivekron.diamonds import build_bar
    Q, _ = build_bar(3, 3)
    path_facets = set()
    for v in Q.frozen:
        if v.kind == "hive":
            for d in submodule_dims(boundary_path(3, 3, v, Q), True):
                path_facets.add(d)
    diag_facets = set()
    for n in (1, 2, 3):
        for d in submodule_dims(diagonal_module(3, 3, n, Q), False):
            diag_facets.add(d)
    assert len(path_facets) == 36
    assert len(diag_facets) == 7
    assert not (path_facets & diag_facets)


def test_facets_normalized_and_distinct(small_builds):
    for lm, built in small_builds.items():
        c = built["cone"]
        seen = set(c.facets)
        assert len(seen) == len(c.facets)
        import math
        for f in c.facets:
            assert math.gcd(*[abs(x) for x in f if x] or [1]) == 1


def test_cone_json_roundtrip(small_builds):
    c = build_cone(2, 3)
    again = cone_from_json(cone_to_json(c))
    assert again == c
    assert cone_to_json(again) == cone_to_json(c)


# ---------------------------------------------------------------------------
# exact LP extent of one coordinate over a fibre (oracle for brute force)


@dataclass(frozen=True)
class LpExtent:
    status: str            # "interval", "infeasible", "unbounded"
    lo: Fraction = None
    hi: Fraction = None


def lp_extent(c: Cone, theta: tuple, coord: VertexId,
              fixed: dict = None) -> LpExtent:
    """Exact min/max of one coordinate over the fibre polyhedron."""
    fixed = fixed or {}
    n = c.ambient_dim
    k = c.vertices.index(coord)
    A_ub = [[-x for x in f] for f in c.facets]          # facets: f.g >= 0
    b_ub = [0] * len(c.facets)
    A_eq = [[c.grading[v][t] for v in range(n)] for t in range(len(theta))]
    b_eq = list(theta)
    for v, val in fixed.items():
        row = [0] * n
        row[c.vertices.index(v)] = 1
        A_eq.append(row)
        b_eq.append(int(val))
    obj = [0] * n
    obj[k] = 1
    st_lo, lo, _ = solve_lp(obj, A_ub, b_ub, A_eq, b_eq)
    if st_lo == INFEASIBLE:
        return LpExtent("infeasible")
    obj[k] = -1
    st_hi, hi, _ = solve_lp(obj, A_ub, b_ub, A_eq, b_eq)
    if st_lo == UNBOUNDED or st_hi == UNBOUNDED:
        return LpExtent("unbounded",
                        lo if st_lo == OPTIMAL else None,
                        -hi if st_hi == OPTIMAL else None)
    return LpExtent("interval", lo, -hi)


def test_lp_extent_statuses(small_builds):
    c = build_cone(2, 2)
    zero = (0,) * 6
    for v in c.vertices:
        e = lp_extent(c, zero, v)
        assert e.status == "interval" and e.lo == 0 and e.hi == 0
    bad = (1, 0, 0, 0, 0, 0)
    assert lp_extent(c, bad, c.vertices[0]).status == "infeasible"


def test_lp_extent_fixed_prefix(small_builds):
    c = build_cone(2, 2)
    theta = sigma_of((1,), (1,), 2) + (1, 0)
    v0 = c.vertices[0]
    base = lp_extent(c, theta, v0)
    clamped = lp_extent(c, theta, v0, fixed={v0: base.lo})
    assert clamped.status == "interval"
    assert clamped.lo == clamped.hi == base.lo


def test_count_zero_fibre(small_builds):
    for lm, built in small_builds.items():
        c = built["cone"]
        assert count_lattice_points(c, (0,) * (2 * c.l + c.m)) == 1


def test_count_negative_lambda_is_empty(small_builds):
    c = build_cone(2, 2)
    theta = (0, 0, 0, 0, -1, 1)
    assert count_lattice_points(c, theta) == 0


def brute_force_count(c: Cone, theta: tuple) -> int:
    """Naive enumeration over the lp_extent bounding box (test oracle)."""
    box = []
    for v in c.vertices:
        e = lp_extent(c, theta, v)
        if e.status == "infeasible":
            return 0
        assert e.status == "interval"
        import math
        box.append(range(math.ceil(e.lo), math.floor(e.hi) + 1))
    n = 0
    dim = len(theta)
    for g in itertools.product(*box):
        if any(sum(f[k] * g[k] for k in range(len(g))) < 0 for f in c.facets):
            continue
        if all(sum(c.grading[k][t] * g[k] for k in range(len(g))) ==
               theta[t] for t in range(dim)):
            n += 1
    return n


def test_dfs_equals_brute_force_22(small_builds):
    c = build_cone(2, 2)
    rng = random.Random(22)
    for _ in range(20):
        theta = tuple(rng.randint(-2, 2) for _ in range(6))
        assert count_lattice_points(c, theta) == brute_force_count(c, theta)


def test_worker_count_invariance(small_builds):
    c = build_cone(2, 2)
    rng = random.Random(7)
    thetas = [tuple(rng.randint(-2, 2) for _ in range(6))
              for _ in range(8)]
    thetas.append(sigma_of((2, 1), (2, 1), 2) + (2, 1))
    for theta in thetas:
        assert count_lattice_points(c, theta, workers=1) == \
            count_lattice_points(c, theta, workers=4)


def test_worker_count_invariance_33(small_builds):
    # root boxes 3 and 4 wide after propagation: the split forks a pool
    c = build_cone(3, 3)
    thetas = [sigma_of(lam, lam, 3) + shifted
              for lam in ((3, 2, 1), (4, 2, 2))
              for _, shifted, _ in lambda_shifts(lam, 3)]
    for theta in thetas:
        assert count_lattice_points(c, theta, workers=2) == \
            count_lattice_points(c, theta, workers=1)


def test_zero_workers_rejected(small_builds):
    from hivekron.errors import OutOfRange
    from hivekron.kron import kronecker
    with pytest.raises(OutOfRange):
        kronecker((2, 1), (2, 1), (2, 1), workers=0)


def test_facet_essentiality_22(small_builds):
    """Removing any facet enlarges the cone (checked by exact LP)."""
    from hivekron.lp import OPTIMAL, solve_lp
    c = build_cone(2, 2)
    n = c.ambient_dim
    for drop in range(len(c.facets)):
        kept = [f for k, f in enumerate(c.facets) if k != drop]
        dropped = c.facets[drop]
        # maximize violation of the dropped facet subject to the rest and
        # a normalization box |g_v| <= 1
        A_ub = [[-x for x in f] for f in kept]
        b_ub = [0] * len(kept)
        for k in range(n):
            row = [0] * n
            row[k] = 1
            A_ub.append(row[:])
            b_ub.append(1)
            row2 = [0] * n
            row2[k] = -1
            A_ub.append(row2)
            b_ub.append(1)
        st_, val, _ = solve_lp([x for x in dropped], A_ub, b_ub)
        assert st_ == OPTIMAL
        assert val < 0, f"facet {drop} is not essential"


def real_fibres(l, m, k, seed):
    """k distinct (l,m) fibres sigma + lambda shift of real triples, n <= 6."""
    shapes = [p for n in range(1, 7) for p in partitions_of(n)]
    thetas = sorted({sigma_of(mu, nu, l) + shifted
                     for mu in shapes if len(mu) <= l
                     for nu in shapes if sum(nu) == sum(mu) and len(nu) <= l
                     for lam in shapes if sum(lam) == sum(mu) and len(lam) <= m
                     for _, shifted, _ in lambda_shifts(lam, m)})
    return random.Random(seed).sample(thetas, min(k, len(thetas)))


def test_python_fallback_matches_numpy(small_builds, monkeypatch):
    # the DFS on Python integers (dtype=object) must agree with int64
    import hivekron.polyhedra as P
    c23, c33 = build_cone(2, 3), build_cone(3, 3)
    rng = random.Random(99)
    fibres = [(c23, tuple(rng.randint(-2, 2) for _ in range(7)))
              for _ in range(10)]
    fibres.append((c23, sigma_of((2, 1), (2, 1), 2) + (2, 1, 0)))
    fibres += [(c33, th) for th in real_fibres(3, 3, 30, 33)]
    dtypes = set()
    real = P._np_rec

    def spy(R, *args):
        dtypes.add(R.dtype.name)
        return real(R, *args)
    monkeypatch.setattr(P, "_np_rec", spy)
    fast = [count_lattice_points(c, th) for c, th in fibres]
    assert dtypes == {"int64"}
    dtypes.clear()
    monkeypatch.setattr(P, "_INT64_SAFE", 0)
    slow = [count_lattice_points(c, th) for c, th in fibres]
    assert dtypes == {"object"}
    assert fast == slow
    assert sum(1 for n in fast[11:] if n > 1) >= 10


def test_unbounded_fibre_detected():
    from hivekron.errors import UnboundedFibre
    from hivekron.quiver import hive_vertex
    # a cone with no facets and a rank-deficient grading has unbounded fibres
    verts = (hive_vertex(1, 0, 1), hive_vertex(1, 0, 2))
    fake = Cone(1, 1, verts, ((1, 1),), ((1, 0, 0), (1, 0, 0)))
    with pytest.raises(UnboundedFibre):
        count_lattice_points(fake, (2, 0, 0))


def test_fibre_without_free_coordinate_on_two_workers():
    from hivekron.quiver import hive_vertex
    # the grading has full rank, so the fibre is one point and d = 0
    verts = (hive_vertex(1, 0, 1), hive_vertex(1, 0, 2))
    point = Cone(2, 2, verts, ((1, 0), (0, 1)),
                 ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)))
    for workers in (1, 2):
        assert count_lattice_points(point, (2, 3, 0, 0, 0, 0),
                                    workers=workers) == 1


def test_non_integer_theta_rejected(small_builds):
    from hivekron.errors import HivekronError
    with pytest.raises(HivekronError):
        count_lattice_points(build_cone(2, 2), (0.7,) * 6)


def test_hnf_solve_simple():
    g0, ker = _hnf_solve([[2, 0, 0], [0, 3, 0]], [4, 6])
    assert g0[0] == 2 and g0[1] == 2
    assert len(ker) == 1 and ker[0][2] != 0
    assert _hnf_solve([[2, 0]], [3]) is None


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
       st.integers(-4, 4), st.integers(-9, 9), st.integers(-9, 9))
@settings(max_examples=80, deadline=None)
def test_hnf_solve_random(a, b, c, d, t1, t2):
    rows = [[a, b, 1, 0], [c, d, 0, 2]]
    sol = _hnf_solve(rows, [t1, t2])
    if sol is None:
        return
    g0, ker = sol
    for r, t in zip(rows, (t1, t2)):
        assert sum(x * y for x, y in zip(r, g0)) == t
        for kv in ker:
            assert sum(x * y for x, y in zip(r, kv)) == 0
    assert len(ker) == 4 - 2  # these rows are always independent


def test_count_matches_known_kronecker(small_builds):
    # single surviving shift: the count itself is the coefficient
    c = build_cone(2, 2)
    theta = sigma_of((1,), (1,), 2) + tuple(
        lambda_shifts((1,), 2)[0][1])
    assert count_lattice_points(c, theta) == 1


# ---------------------------------------------------------------------------
# per-cone geometry: certificates and size reduction


GEOMETRY_CONES = ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4))


def assert_certificates_valid(geo):
    """Every certificate is an integer row Y >= 0 with a denominator D > 0
    and (-R)^T Y = +-D e_j, that is y = Y / D certifies, checked exactly."""
    F = len(geo.R)
    for j in range(geo.d):
        for sign, (Y, D) in ((1, geo.up_cert[j]), (-1, geo.dn_cert[j])):
            assert len(Y) == F
            assert isinstance(D, int) and D > 0
            assert all(isinstance(v, int) and v >= 0 for v in Y)
            for k in range(geo.d):
                assert sum(-geo.R[f][k] * Y[f] for f in range(F)) == \
                    (sign * D if k == j else 0)


@pytest.fixture
def fresh_geometry():
    """The polyhedra module with an empty geometry cache, emptied after."""
    import hivekron.polyhedra as P
    P._geometry.cache_clear()
    yield P
    P._geometry.cache_clear()


def counting_solve_lp(monkeypatch):
    import hivekron.polyhedra as P
    calls = []
    real = P.solve_lp

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(P, "solve_lp", counted)
    return calls


def test_certificates_certified_from_float_guess(monkeypatch):
    import hivekron.polyhedra as P
    calls = counting_solve_lp(monkeypatch)
    for lm in GEOMETRY_CONES:
        geo = P._FibreGeometry(build_cone(*lm))
        assert_certificates_valid(geo)
    assert not calls


@pytest.mark.parametrize("guess", ["none", "wrong"])
def test_certificates_fall_back_to_exact_lp(monkeypatch, fresh_geometry,
                                            guess):
    P = fresh_geometry
    c = build_cone(2, 3)
    rng = random.Random(23)
    thetas = [tuple(rng.randint(-2, 2) for _ in range(7))
              for _ in range(10)]
    thetas.append(sigma_of((2, 1), (2, 1), 2) + (2, 1, 0))
    thetas.append(sigma_of((3, 1), (2, 2), 2) + (2, 2, 0))
    expected = [count_lattice_points(c, th) for th in thetas]
    calls = counting_solve_lp(monkeypatch)
    if guess == "none":
        monkeypatch.setattr(P, "float_basis", lambda *a, **k: None)
    else:
        # one basic column cannot carry every +-e_j: the check must refuse
        monkeypatch.setattr(P, "float_basis", lambda *a, **k: {0: 1.0})
    P._geometry.cache_clear()
    assert [count_lattice_points(c, th) for th in thetas] == expected
    geo = P._geometry(c)
    assert_certificates_valid(geo)
    if guess == "none":
        assert len(calls) == 2 * geo.d
    assert calls


def fraction_fibre(geo, c, theta):
    """Reference (r0, lo, hi) by rational formulas: r0 = facets . g0 with g0
    from a full _hnf_solve, and the boxes floor(sum y r0), ceil(-sum y' r0)
    over y = Fraction(Y_k, D).  None when theta has no integer solution."""
    import math
    rows = [[g[t] for g in c.grading] for t in range(len(theta))]
    sol = _hnf_solve(rows, list(theta))
    if sol is None:
        return None
    assert [sum(x * y for x, y in zip(row, sol[0])) for row in rows] == \
        list(theta)
    r0 = [sum(x * y for x, y in zip(f, sol[0])) for f in c.facets]
    lo, hi = [], []
    for (Y, D), (Yn, Dn) in zip(geo.up_cert, geo.dn_cert):
        hi.append(math.floor(sum(Fraction(y, D) * r for y, r in zip(Y, r0))))
        lo.append(math.ceil(-sum(Fraction(y, Dn) * r for y, r in zip(Yn, r0))))
    return r0, lo, hi


def test_integer_fibre_map_matches_fraction_reference():
    import hivekron.polyhedra as P
    rng = random.Random(40)
    for lm in GEOMETRY_CONES:
        c = build_cone(*lm)
        geo, n, k = P._geometry(c), c.ambient_dim, 2 * c.l + c.m
        image, uniform = [], []
        for _ in range(20):
            g = [rng.randint(-2, 2) for _ in range(n)]
            image.append(tuple(sum(c.grading[v][t] * g[v] for v in range(n))
                               for t in range(k)))
            uniform.append(tuple(rng.randint(-2, 2) for _ in range(k)))
        # the image of an integer point and a real triple are solvable
        solvable = image + real_fibres(c.l, c.m, 40, sum(lm))
        for theta in solvable + uniform:
            ref = fraction_fibre(geo, c, theta)
            r0 = geo.solve_theta(theta)
            if ref is None:
                assert theta in uniform and r0 is None
                continue
            assert (r0, *geo.boxes(r0)) == ref


def fibres_23_33():
    rng = random.Random(12)
    fibres = [(build_cone(2, 3), tuple(rng.randint(-2, 2) for _ in range(7)))
              for _ in range(10)]
    c33 = build_cone(3, 3)
    return fibres + [(c33, th) for th in real_fibres(3, 3, 20, 12)]


def test_counting_a_fibre_creates_no_fraction(monkeypatch):
    import hivekron.polyhedra as P
    fibres = fibres_23_33()
    expected = [count_lattice_points(c, th) for c, th in fibres]
    assert sum(1 for n in expected if n > 1) >= 5

    def refuse(*args):
        raise AssertionError("a Fraction was created while counting")
    monkeypatch.setattr(P, "Fraction", refuse)
    assert [count_lattice_points(c, th) for c, th in fibres] == expected


def test_int64_count_reads_no_python_rows(monkeypatch):
    # the int64 DFS runs on the geometry's matrix, built once per cone
    import hivekron.polyhedra as P
    fibres = fibres_23_33()
    expected = [count_lattice_points(c, th) for c, th in fibres]
    for c in {c for c, _ in fibres}:
        monkeypatch.delattr(P._geometry(c), "R")
    assert [count_lattice_points(c, th) for c, th in fibres] == expected


def test_np_rec_equals_brute_force():
    # _np_rec takes a box that holds every integer point of R z + res >= 0,
    # as a certificate box does: the facets include the box's own, and every
    # other trial passes the tighter bounding box of the points instead
    import numpy as np
    import hivekron.polyhedra as P
    rng = random.Random(200)
    counts = []
    for trial in range(200):
        F, d = rng.randint(1, 6), trial % 4
        lo = [rng.randint(-4, 1) for _ in range(d)]
        hi = [rng.randint(a - 1, 4) for a in lo]
        R = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(F)]
        res = [rng.randint(-1, 4) for _ in range(F)]
        for j in range(d):
            unit = [int(k == j) for k in range(d)]
            R += [unit, [-x for x in unit]]
            res += [-lo[j], hi[j]]
        box = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
        points = [z for z in box
                  if all(r + sum(x * y for x, y in zip(row, z)) >= 0
                         for row, r in zip(R, res))]
        if points and trial // 4 % 2:
            lo = [min(c) for c in zip(*points)]
            hi = [max(c) for c in zip(*points)]
        for dtype in (np.int64, object):
            got = P._np_rec(np.array(R, dtype=dtype).reshape(len(R), d),
                            np.array(res, dtype=dtype),
                            np.array(lo, dtype=dtype),
                            np.array(hi, dtype=dtype), np.arange(d))
            assert got == len(points), (R, res, lo, hi, dtype)
        counts.append(len(points))
    assert counts.count(0) >= 20 and sum(1 for n in counts if n > 5) >= 20


def test_one_column_reduction_per_cone(monkeypatch, fresh_geometry):
    P = fresh_geometry
    calls = []
    real = P._hnf

    def spy(rows):
        calls.append(len(rows[0]))
        return real(rows)
    monkeypatch.setattr(P, "_hnf", spy)
    for c, th in fibres_23_33():
        count_lattice_points(c, th)
    assert calls == [build_cone(*lm).ambient_dim for lm in ((2, 3), (3, 3))]


def fraction_size_reduce(rows, passes=3):
    """Reference: size reduction against Fraction Gram-Schmidt vectors."""
    from fractions import Fraction
    n = len(rows)
    b = [list(r) for r in rows]
    if n <= 1:
        return b

    def norm2(v):
        return sum(x * x for x in v)

    for _ in range(passes):
        b.sort(key=norm2)
        star = []
        norms = []
        changed = False
        for i in range(n):
            for j in range(len(star) - 1, -1, -1):
                if norms[j] == 0:
                    continue
                mu = sum(Fraction(x) * y
                         for x, y in zip(b[i], star[j])) / norms[j]
                r = mu.numerator // mu.denominator
                if 2 * (mu - r) > 1:
                    r += 1
                if r:
                    b[i] = [x - r * y for x, y in zip(b[i], b[j])]
                    changed = True
            v = [Fraction(x) for x in b[i]]
            for j in range(len(star)):
                if norms[j]:
                    mu = sum(Fraction(x) * y
                             for x, y in zip(b[i], star[j])) / norms[j]
                    v = [a - mu * c for a, c in zip(v, star[j])]
            star.append(v)
            norms.append(norm2(v))
        if not changed:
            break
    return b


def test_size_reduce_matches_fraction_reference():
    from hivekron.polyhedra import _size_reduce
    for lm in GEOMETRY_CONES:
        c = build_cone(*lm)
        rows = [[c.grading[v][t] for v in range(c.ambient_dim)]
                for t in range(len(c.grading[0]))]
        kernel = _hnf_solve(rows, [0] * len(rows))[1]
        embedded = [list(kv) + [sum(f[v] * kv[v] for v in range(len(kv)))
                                for f in c.facets] for kv in kernel]
        assert _size_reduce(embedded) == fraction_size_reduce(embedded)
    # small random bases hit exact half-integer coefficients (ties)
    rng = random.Random(5)
    tried = 0
    while tried < 40:
        n = rng.randint(2, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n + 1)] for _ in range(n)]
        if rank(rows) < n:
            continue
        tried += 1
        embedded = [r + [2 * x for x in r] for r in rows]
        assert _size_reduce(embedded) == fraction_size_reduce(embedded)


def rank(rows):
    from fractions import Fraction
    m = [[Fraction(x) for x in r] for r in rows]
    rk = 0
    for col in range(len(m[0])):
        piv = next((r for r in range(rk, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        for r in range(rk + 1, len(m)):
            f = m[r][col] / m[rk][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[rk])]
        rk += 1
    return rk
