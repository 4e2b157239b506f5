import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from hivekron.kron import lambda_shifts, partitions_of, sigma_of
from hivekron.lp import INFEASIBLE, OPTIMAL, UNBOUNDED
from hivekron.polyhedra import (Cone, build_cone, count_fibres,
                                count_lattice_points)
from hivekron.quiver import VertexId, hive_vertex
from test_intlin import fraction_rank, hnf_solve
from test_lp import general_lp


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


def test_facets_normalized_and_distinct():
    # build_cone keeps each submodule dimension vector as it comes: none
    # repeats and each has gcd 1
    for l, m in itertools.product(range(2, 6), range(2, 7)):
        facets = build_cone(l, m).facets
        assert len(set(facets)) == len(facets), (l, m)
        for f in facets:
            assert math.gcd(*f) == 1, (l, m, f)


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
    st_lo, lo, _ = general_lp(obj, A_ub, b_ub, A_eq, b_eq)
    if st_lo == INFEASIBLE:
        return LpExtent("infeasible")
    obj[k] = -1
    st_hi, hi, _ = general_lp(obj, A_ub, b_ub, A_eq, b_eq)
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


def test_zero_workers_rejected(small_builds):
    from hivekron.errors import OutOfRange
    from hivekron.kron import kronecker
    with pytest.raises(OutOfRange):
        kronecker((2, 1), (2, 1), (2, 1), workers=0)


@pytest.mark.parametrize("workers", [2.5, "2", 1.0])
def test_non_integer_workers_rejected(small_builds, workers):
    from hivekron.errors import OutOfRange
    from hivekron.kron import kronecker
    with pytest.raises(OutOfRange):
        kronecker((4, 2, 2), (4, 2, 2), (4, 2, 2), workers=workers)


def test_counting_takes_no_workers(small_builds):
    c = build_cone(2, 2)
    with pytest.raises(TypeError):
        count_lattice_points(c, (0,) * 6, workers=2)


def _distinct_fibres(res):
    return len({shift for _, shift, _, _ in res.breakdown})


def _wrap_count(monkeypatch, name):
    """kron with its counting function name swapped for a closure, as a
    tracer does, and the list of second arguments it is called with."""
    import hivekron.kron as K
    real = getattr(K, name)
    calls = []

    def traced(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)
    monkeypatch.setattr(K, name, traced)
    return K, calls


@pytest.mark.parametrize("workers", [1, 2, 10 ** 6])
def test_any_worker_count_counts_in_one_batch(small_builds, monkeypatch,
                                              workers):
    # a valid worker count changes nothing: each call makes one batch, of
    # its distinct sorted alphas, through the name a tracer wraps
    K, batches = _wrap_count(monkeypatch, "count_fibres")
    lam = (4, 2, 2)
    one = K.kronecker(lam, lam, lam, l=3, m=3, workers=1)
    res = K.kronecker(lam, lam, lam, l=3, m=3, workers=workers)
    [first, thetas] = batches
    alphas = [theta[6:] for theta in thetas]    # theta = sigma (2l) + alpha
    assert thetas == first and alphas == sorted(set(alphas))
    assert all(list(alpha) == sorted(alpha) for alpha in alphas)
    assert len(alphas) == _distinct_fibres(res)
    assert (res.value, res.orientation, res.breakdown) == \
        (one.value, one.orientation, one.breakdown)
    assert res.value == 6


def test_each_distinct_fibre_counted_once(small_builds, monkeypatch):
    # the six shifts of (4,4,4) at m = 3 sort to five distinct alphas:
    # (5,3,4) and (4,5,3) are both (3,4,5)
    K, batches = _wrap_count(monkeypatch, "count_fibres")
    lam = (4, 4, 4)
    one = K.kronecker(lam, lam, lam, l=3, m=3, workers=1)
    assert len(one.breakdown) == 6
    [thetas] = batches
    assert len(thetas) == len(set(thetas)) == _distinct_fibres(one) == 5
    two = K.kronecker(lam, lam, lam, l=3, m=3, workers=2)
    assert two.breakdown == one.breakdown and two.value == one.value == 2


def test_facet_essentiality_22(small_builds):
    """Removing any facet enlarges the cone (checked by exact LP)."""
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
        st_, val, _ = general_lp([x for x in dropped], A_ub, b_ub)
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
    # the DFS on float32, which these fibres choose, must agree with the
    # DFS forced onto float64 and onto Python integers (dtype=object)
    import hivekron.polyhedra as P
    c23, c33 = build_cone(2, 3), build_cone(3, 3)
    rng = random.Random(99)
    fibres = [(c23, tuple(rng.randint(-2, 2) for _ in range(7)))
              for _ in range(10)]
    fibres.append((c23, sigma_of((2, 1), (2, 1), 2) + (2, 1, 0)))
    fibres += [(c33, th) for th in real_fibres(3, 3, 30, 33)]
    dtypes = set()
    real = P._tighten_block

    def spy(plan, rf, u, fid, whole):
        dtypes.add(u.dtype.name)
        return real(plan, rf, u, fid, whole)
    monkeypatch.setattr(P, "_tighten_block", spy)
    fast = [count_lattice_points(c, th) for c, th in fibres]
    assert dtypes == {"float32"}
    for types, dtype in (((("float64", 2 ** 53),), "float64"), ((), "object")):
        dtypes.clear()
        monkeypatch.setattr(P, "_EXACT_TYPES", types)
        assert [count_lattice_points(c, th) for c, th in fibres] == fast
        assert dtypes == {dtype}
    assert sum(1 for n in fast[11:] if n > 1) >= 10


def _spy_nodes(P, monkeypatch):
    # the nodes of the search tree are the nodes that the block tightener
    # settles: the nodes at their fixpoint and the nodes a block holding
    # the whole frontier branches before their fixpoint, however many
    # blocks a node passes through before; the branching rule (narrowest
    # open coordinate, lowest index) fixes them.  A node is counted by its
    # fibre id, whatever the layout of its box
    rows = []
    real = P._tighten_block

    def spy(plan, rf, u, fid, whole):
        assert len(fid) * u.itemsize * plan.nnz <= P._BLOCK_BYTES
        out = real(plan, rf, u, fid, whole)
        rows.append(len(out[1]))
        return out
    monkeypatch.setattr(P, "_tighten_block", spy)
    return rows


# (triple, value, nodes counting every shift as given, nodes of kronecker,
# blocks of kronecker), each a pair over _pin_caps
NODE_PINS = ((((4, 2, 2),) * 3, 6, (594, 323), (299, 169), (10, 70)),
             (((6, 3, 3), (5, 4, 3), (4, 4, 4)), 3, (5259, 3472), (630, 441),
              (12, 156)),
             (((8, 4, 4),) * 3, 43, (9068, 6890), (4249, 3859), (36, 1472)))


def _pin_caps(P, monkeypatch):
    # the row caps of the pins, by index: the default, where a kronecker
    # call's blocks hold its whole frontier, and 2^12 bytes (7 float32
    # rows at (3,3)), where they are crowded
    for i, cap in enumerate((P._BLOCK_BYTES, 2 ** 12)):
        monkeypatch.setattr(P, "_BLOCK_BYTES", cap)
        yield i


def test_node_counts_pinned(small_builds, monkeypatch):
    # the block DFS alone: every fibre sigma(mu, nu) + alpha of the triple
    # as given, alpha unsorted and repeats counted again
    import hivekron.polyhedra as P
    rows = _spy_nodes(P, monkeypatch)
    c = build_cone(3, 3)
    for i in _pin_caps(P, monkeypatch):
        for (mu, nu, lam), value, nodes, _, _ in NODE_PINS:
            rows.clear()
            sigma = sigma_of(mu, nu, 3)
            assert sum(sign * count_lattice_points(c, sigma + shifted)
                       for _, shifted, sign in lambda_shifts(lam, 3)) == value
            assert sum(rows) == nodes[i], i
        assert max(rows) > 1


def test_planned_node_counts_pinned(small_builds, monkeypatch):
    # kronecker counts each sorted alpha once, in the order _plan fixes
    import hivekron.polyhedra as P
    from hivekron.kron import kronecker
    rows = _spy_nodes(P, monkeypatch)
    for i in _pin_caps(P, monkeypatch):
        for triple, value, nodes, planned, _ in NODE_PINS:
            rows.clear()
            assert kronecker(*triple, l=3, m=3).value == value
            assert sum(rows) == planned[i] <= nodes[i], i


def test_planned_block_counts_pinned(small_builds, monkeypatch):
    # a kronecker call counts its distinct fibres in one block DFS, so its
    # blocks mix fibres; one DFS per fibre makes 48, 59 and 82 blocks at
    # the default cap
    import hivekron.polyhedra as P
    from hivekron.kron import kronecker
    rows = _spy_nodes(P, monkeypatch)
    for i in _pin_caps(P, monkeypatch):
        for triple, value, _, planned, blocks in NODE_PINS:
            rows.clear()
            assert kronecker(*triple, l=3, m=3).value == value
            assert sum(rows) == planned[i] and len(rows) == blocks[i], i


def test_unbounded_fibre_detected():
    from hivekron.errors import UnboundedFibre
    from hivekron.quiver import hive_vertex
    # a cone with no facets and a rank-deficient grading has unbounded fibres
    verts = (hive_vertex(1, 0, 1), hive_vertex(1, 0, 2))
    fake = Cone(1, 1, verts, ((1, 1),), ((1, 0, 0), (1, 0, 0)))
    with pytest.raises(UnboundedFibre):
        count_lattice_points(fake, (2, 0, 0))
    # a theta off the grading is empty before any bound is asked for
    assert count_lattice_points(fake, (2, 1, 0)) == 0


def two_vertex_cone(y_weight):
    """A hand-built cone at l = m = 2: x, y >= 0, with x of weight e_1."""
    verts = (hive_vertex(1, 0, 1), hive_vertex(1, 0, 2))
    return Cone(2, 2, verts, ((1, 0), (0, 1)),
                ((1, 0, 0, 0, 0, 0), y_weight))


def point_cone():
    # the grading has full rank, so the fibre is one point and d = 0
    return two_vertex_cone((0, 1, 0, 0, 0, 0))


def line_cone():
    # x + y = t: t + 1 points on one open coordinate
    return two_vertex_cone((1, 0, 0, 0, 0, 0))


def test_fibre_without_free_coordinate():
    point = point_cone()
    assert count_lattice_points(point, (2, 3, 0, 0, 0, 0)) == 1
    assert count_lattice_points(point, (-1, 3, 0, 0, 0, 0)) == 0


def test_huge_fibre_counts_on_python_integers():
    # the bounds of the line's open coordinate pass float64's exact range
    # long before t nears 2^62
    line = line_cone()
    for t in (5, 2 ** 61, 2 ** 62, 2 ** 70):
        assert count_lattice_points(line, (t, 0, 0, 0, 0, 0)) == t + 1


def test_float_path_ends_at_the_exact_bound(monkeypatch):
    # t = 2^53 + 1 is no float64, so a float pass would miscount its
    # 2^53 + 2 points; the guard sends it to Python integers.  On the line
    # (d = max_r = 1, max_b = max_res = t) it bounds every float value by
    # 2 (max_res + (d + 1) max_r max_b) = 6 t, so float32 runs up to
    # t = 2^24 // 6, float64 from there up to t = 2^53 // 6, and Python
    # integers past that
    import hivekron.polyhedra as P
    dtypes = []
    real = P._tighten_block

    def spy(plan, rf, u, fid, whole):
        dtypes.append(u.dtype.name)
        return real(plan, rf, u, fid, whole)
    monkeypatch.setattr(P, "_tighten_block", spy)
    line = line_cone()
    edge32, edge64 = 2 ** 24 // 6, 2 ** 53 // 6
    for t, dtype in ((5, "float32"), (edge32, "float32"),
                     (edge32 + 1, "float64"), (2 ** 40, "float64"),
                     (edge64, "float64"), (edge64 + 1, "object"),
                     (2 ** 53 + 1, "object")):
        dtypes.clear()
        count = count_lattice_points(line, (t, 0, 0, 0, 0, 0))
        assert count == t + 1 and type(count) is int
        assert dtypes == [dtype]


@pytest.mark.parametrize("block_entries", [None, 2 ** 9])
def test_batch_equals_its_fibres_one_at_a_time(small_builds, monkeypatch,
                                               block_entries):
    # with small blocks the top-up from below mixes the fibres' nodes; a
    # block of block_entries float64 entries of R's nonzeros
    import hivekron.polyhedra as P
    if block_entries:
        monkeypatch.setattr(P, "_BLOCK_BYTES", 8 * block_entries)
    rng = random.Random(19)
    batches = []
    for c in (build_cone(2, 3), build_cone(3, 3)):
        k = 2 * c.l + c.m
        # off the grading or empty, and real fibres; one repeated
        thetas = [tuple(rng.randint(-2, 2) for _ in range(k))
                  for _ in range(6)] + real_fibres(c.l, c.m, 12, k)
        thetas.insert(3, thetas[-1])
        batches += [(c, thetas), (c, [])]
    point, line = point_cone(), line_cone()
    batches.append((point, [(2, 3, 0, 0, 0, 0), (-1, 3, 0, 0, 0, 0),
                            (2, 3, 1, 0, 0, 0), (0,) * 6]))
    huge = [(t, 0, 0, 0, 0, 0) for t in (5, 2 ** 62, 2 ** 70)]
    batches.append((line, huge))
    # each block's dtype and its number of distinct fibres (columns of rf)
    blocks = []
    real = P._tighten_block

    def spy(plan, rf, u, fid, whole):
        blocks.append((u.dtype.name, len({tuple(r) for r in rf.T.tolist()})))
        return real(plan, rf, u, fid, whole)
    monkeypatch.setattr(P, "_tighten_block", spy)
    found = [count_fibres(c, thetas) for c, thetas in batches]
    last, mixed = blocks[-1], sum(1 for _, fibres in blocks if fibres > 1)
    one = [[count_lattice_points(c, t) for t in thetas]
           for c, thetas in batches]
    assert found == one
    assert found[1] == found[3] == [] and found[4] == [1, 0, 0, 1]
    assert found[5] == [6, 2 ** 62 + 1, 2 ** 70 + 1]
    assert sum(1 for n in found[0] + found[2] if n == 0) >= 4
    assert sum(1 for n in found[0] + found[2] if n > 1) >= 10
    # the line's batch is one block on Python integers
    assert last == ("object", 3) and mixed > (5 if block_entries else 1)


def test_batch_raises_as_one_fibre(small_builds):
    from hivekron.errors import OutOfRange, UnboundedFibre
    c = build_cone(2, 2)
    with pytest.raises(OutOfRange):
        count_fibres(c, [(0,) * 6, (0,) * 7])
    with pytest.raises(OutOfRange):
        count_fibres(c, [(0,) * 6, (0.5,) * 6])
    verts = (hive_vertex(1, 0, 1), hive_vertex(1, 0, 2))
    fake = Cone(1, 1, verts, ((1, 1),), ((1, 0, 0), (1, 0, 0)))
    assert count_fibres(fake, [(2, 1, 0), (0, 1, 0)]) == [0, 0]
    with pytest.raises(UnboundedFibre):
        count_fibres(fake, [(2, 1, 0), (2, 0, 0)])


def test_geometry_follows_the_cone_object():
    # four cones at l = m = 2, two of them equal field by field: each count
    # reads the geometry of the cone object it is given, in any order
    c22, point, line = build_cone(2, 2), point_cone(), line_cone()
    twin = point_cone()
    assert twin == point and twin is not point
    # on (2,2) the fibre at sigma(mu, nu) + alpha counts <s_mu * s_nu,
    # h_alpha>: 1 at alpha = (3, 0) and 2 at (2, 1) for mu = nu = (2, 1)
    on_c22 = sigma_of((2, 1), (2, 1), 2)
    cases = [(c22, on_c22 + (3, 0), 1), (point, (2, 3, 0, 0, 0, 0), 1),
             (line, (2, 3, 0, 0, 0, 0), 0), (twin, (5, 0, 0, 0, 0, 0), 1),
             (c22, on_c22 + (2, 1), 2), (line, (5, 0, 0, 0, 0, 0), 6),
             (point, (-1, 3, 0, 0, 0, 0), 0),
             (c22, sigma_of((2, 1), (3,), 2) + (3, 0), 0)]
    for _ in range(2):
        for cone, theta, count in cases:
            assert count_lattice_points(cone, theta) == count, (cone, theta)
    geometries = [cone.geometry for cone in (c22, point, line, twin)]
    assert len({id(geo) for geo in geometries}) == 4
    assert build_cone(2, 2).geometry is geometries[0]


def test_non_integer_theta_rejected(small_builds):
    from hivekron.errors import HivekronError
    with pytest.raises(HivekronError):
        count_lattice_points(build_cone(2, 2), (0.7,) * 6)


def test_count_matches_known_kronecker(small_builds):
    # single surviving shift: the count itself is the coefficient
    c = build_cone(2, 2)
    theta = sigma_of((1,), (1,), 2) + tuple(
        lambda_shifts((1,), 2)[0][1])
    assert count_lattice_points(c, theta) == 1


def test_zero_part_and_short_pairs_give_the_smaller_cones_fibre(small_builds):
    # <s_mu * s_nu, h_alpha> ignores zero parts of alpha and empty rows of
    # mu, nu: the fibre at sigma + (0, a, b) on (3,3) is the fibre at
    # sigma + (a, b) on (3,2), and on (2,2) when mu and nu have two rows
    c33, c32, c22 = build_cone(3, 3), build_cone(3, 2), build_cone(2, 2)
    checked = 0
    for n in range(1, 7):
        shapes = partitions_of(n, 3)
        for mu, nu in itertools.product(shapes, repeat=2):
            sigma = sigma_of(mu, nu, 3)
            for a in range(n + 1):
                ab = (a, n - a)
                count = count_lattice_points(c33, sigma + (0,) + ab)
                assert count_lattice_points(c32, sigma + ab) == count
                checked += 1
                if max(len(mu), len(nu)) <= 2:
                    assert count_lattice_points(
                        c22, sigma_of(mu, nu, 2) + ab) == count
                    checked += 1
    assert checked == 864


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
    """The polyhedra module with an empty cone cache, emptied after: a
    cone built afresh has no geometry yet."""
    import hivekron.polyhedra as P
    P.build_cone.cache_clear()
    yield P
    P.build_cone.cache_clear()


def counting_solve_lp(monkeypatch):
    """The objective of each call to solve_lp that polyhedra makes."""
    import hivekron.polyhedra as P
    calls = []
    real = P.solve_lp

    def counted(*args, **kwargs):
        calls.append(list(args[0]))
        return real(*args, **kwargs)
    monkeypatch.setattr(P, "solve_lp", counted)
    return calls


def test_certificates_certified_from_float_guess(monkeypatch):
    import hivekron.polyhedra as P
    calls = counting_solve_lp(monkeypatch)
    for lm in GEOMETRY_CONES + ((4, 4),):
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
        monkeypatch.setattr(P, "float_bases",
                            lambda c, A, bs, **k: [None] * len(bs))
    else:
        # one basic column cannot carry every +-e_j: the check must refuse
        monkeypatch.setattr(P, "float_bases",
                            lambda c, A, bs, **k: [{0: 1.0}] * len(bs))
    P.build_cone.cache_clear()
    c = build_cone(2, 3)
    assert [count_lattice_points(c, th) for th in thetas] == expected
    geo = c.geometry
    assert_certificates_valid(geo)
    if guess == "none":
        assert len(calls) == 2 * geo.d
    # the exact simplex only decides feasibility
    assert calls and all(set(obj) == {0} for obj in calls)


def test_certificates_survive_a_failed_cold_float_solve(monkeypatch):
    # the first cold float solve fails; the right-hand side after it is
    # solved cold, and the failed one is certified warm in the second sweep
    import hivekron.lp as L
    import hivekron.polyhedra as P
    real = L._two_phase
    cold = []

    def two_phase(c, A, b, exact, maxit):
        status, T, basis = real(c, A, b, exact, maxit)
        if not exact:
            cold.append(b)
            status = status if len(cold) > 1 else None
        return status, T, basis
    monkeypatch.setattr(L, "_two_phase", two_phase)
    calls = counting_solve_lp(monkeypatch)
    geo = P._FibreGeometry(build_cone(3, 3))
    assert_certificates_valid(geo)
    assert len(cold) == 2 and not calls


def fraction_fibre(geo, c, theta):
    """Reference (r0, lo, hi) by rational formulas: r0 = facets . g0 with g0
    from a full hnf_solve, and the boxes floor(sum y r0), ceil(-sum y' r0)
    over y = Fraction(Y_k, D).  None when theta has no integer solution."""
    import math
    rows = [[g[t] for g in c.grading] for t in range(len(theta))]
    sol = hnf_solve(rows, list(theta))
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
    # one batch of every theta (one product, on float32 at these sizes)
    # equals the rational reference fibre by fibre, one per column in the
    # engine's layout
    rng = random.Random(40)
    for lm in GEOMETRY_CONES:
        c = build_cone(*lm)
        geo, n, k = c.geometry, c.ambient_dim, 2 * c.l + c.m
        image, uniform = [], []
        for _ in range(20):
            g = [rng.randint(-2, 2) for _ in range(n)]
            image.append(tuple(sum(c.grading[v][t] * g[v] for v in range(n))
                               for t in range(k)))
            uniform.append(tuple(rng.randint(-2, 2) for _ in range(k)))
        # the image of an integer point and a real triple are solvable
        solvable = image + real_fibres(c.l, c.m, 40, sum(lm))
        thetas = solvable + uniform
        refs = [fraction_fibre(geo, c, theta) for theta in thetas]
        assert all(ref or theta in uniform
                   for theta, ref in zip(thetas, refs))
        on, rf, u = geo.fibres(thetas)
        assert on == [i for i, ref in enumerate(refs) if ref is not None]
        assert len(on) >= len(solvable)
        assert rf.dtype == u.dtype == "float32"
        for i, rf_row, u_row in zip(on, rf.T.tolist(), u.T.tolist()):
            r0, lo, hi = refs[i]
            assert rf_row == list(r0)
            assert u_row == [-x for x in lo] + hi


def test_fibre_map_product_leaves_float64_at_its_guard():
    # the fibre at sigma((N), (N)) + (0, N) on (2,2) is one point for
    # every N, and w is linear in N; the call runs on float32 while
    # 2 max|w| growth < 2^24, on float64 while it is below 2^53, and on
    # Python integers from there on
    import hivekron.polyhedra as P
    from hivekron.intlin import back_solve
    c = build_cone(2, 2)
    geo = c.geometry

    def theta(N):
        return sigma_of((N,), (N,), 2) + (0, N)
    w1 = max(map(abs, back_solve(geo.M, geo.pivots, theta(1))))
    (_, bound32), (_, bound64) = P._EXACT_TYPES
    edge32 = (bound32 // 2 - 1) // (w1 * geo.growth)
    edge64 = (bound64 // 2 - 1) // (w1 * geo.growth)
    assert edge32 > 2 ** 18 and edge64 > 2 ** 47
    for N, dtype in ((1, "float32"), (edge32, "float32"),
                     (edge32 + 1, "float64"), (edge64, "float64"),
                     (edge64 + 1, "object"), (10 ** 30, "object")):
        on, rf, u = geo.fibres([theta(N)])
        assert on == [0] and rf.dtype == u.dtype == dtype, N
        assert count_fibres(c, [theta(N)]) == [1]
        if dtype == "object":
            row = rf[:, 0].tolist() + u[:, 0].tolist()
            assert all(type(x) is int for x in row)


def fibres_23_33():
    rng = random.Random(12)
    fibres = [(build_cone(2, 3), tuple(rng.randint(-2, 2) for _ in range(7)))
              for _ in range(10)]
    c33 = build_cone(3, 3)
    return fibres + [(c33, th) for th in real_fibres(3, 3, 20, 12)]


def test_counting_a_fibre_creates_no_fraction(monkeypatch):
    # refused in the class itself, whatever name a module gives it
    from fractions import Fraction
    fibres = fibres_23_33()
    expected = [count_lattice_points(c, th) for c, th in fibres]
    assert sum(1 for n in expected if n > 1) >= 5

    def refuse(*args):
        raise AssertionError("a Fraction was created while counting")
    monkeypatch.setattr(Fraction, "__new__", refuse)
    assert [count_lattice_points(c, th) for c, th in fibres] == expected


def test_float_count_reads_no_python_rows(monkeypatch):
    # the float DFS runs on the plan's dense matrices, built once per cone
    fibres = fibres_23_33()
    expected = [count_lattice_points(c, th) for c, th in fibres]
    for c in {c for c, _ in fibres}:
        monkeypatch.delattr(c.geometry, "R")
    assert [count_lattice_points(c, th) for c, th in fibres] == expected


def block_count(R, res, boxes, d, dtype):
    """The block engine on the boxes [(lo, hi), ...], one fibre per box,
    each with the residuals res: the sum of their counts.  The engine's
    layout holds one fibre per column of rf and u, and one facet per row
    of rf, in R's order."""
    import numpy as np
    import hivekron.polyhedra as P
    k = len(boxes)
    rf = np.array([[x] * k for x in res], dtype=dtype).reshape(len(R), k)
    u = np.array([[-x for x in lo] + hi for lo, hi in boxes],
                 dtype=dtype).reshape(k, 2 * d).T.copy()
    return sum(P._block_count(P._Plan(R, d), rf, u))


def test_block_count_equals_brute_force(monkeypatch):
    # _block_count takes boxes that hold every integer point of
    # R z + res >= 0, as a certificate box does: the facets include the
    # box's own, and every other trial passes the tighter bounding box of
    # the points instead; the box also goes in once more, cut along its
    # first coordinate into one fibre per value with the same residuals;
    # every third trial leaves the box's own facets off its last
    # coordinate when the random rows already give it a term of each sign,
    # as every coordinate of a bounded cone has.  Each count
    # runs at the default row cap, where every block holds the whole
    # frontier and branches moving nodes early, and at 3 rows, where
    # blocks are crowded and settle only their fixpoint nodes
    import numpy as np
    import hivekron.polyhedra as P
    default = P._BLOCK_BYTES
    # whether a block held the whole frontier, at each cap
    seen = {"default": set(), "crowded": set()}
    real = P._tighten_block

    def spy(plan, rf, u, fid, whole):
        seen["crowded" if P._BLOCK_BYTES < default else "default"].add(whole)
        return real(plan, rf, u, fid, whole)
    monkeypatch.setattr(P, "_tighten_block", spy)
    rng = random.Random(200)
    counts = []
    for trial in range(300):
        F, d = rng.randint(1, 6), trial % 4
        lo = [rng.randint(-4, 1) for _ in range(d)]
        hi = [rng.randint(a - 1, 4) for a in lo]
        R = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(F)]
        res = [rng.randint(-1, 4) for _ in range(F)]
        signs = {(x > 0) - (x < 0) for row in R for x in row[-1:]}
        for j in range(d - (trial % 3 == 0 and {-1, 1} <= signs)):
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
        cut = [([v] + lo[1:], [v] + hi[1:]) for v in range(lo[0], hi[0] + 1)
               ] if d else []
        nnz = max(P._Plan(R, d).nnz, 1)
        for dtype in (np.float32, np.float64, object):
            size = nnz * np.dtype(dtype).itemsize
            for rows in (None, 3):
                cap = rows * size if rows else default
                monkeypatch.setattr(P, "_BLOCK_BYTES", cap)
                assert block_count(R, res, [(lo, hi)], d, dtype) == \
                    len(points), (R, res, lo, hi, dtype, rows)
                assert block_count(R, res, cut, d, dtype) == \
                    (len(points) if d else 0)
        counts.append(len(points))
    assert counts.count(0) >= 20 and sum(1 for n in counts if n > 5) >= 20
    assert seen == {"default": {True}, "crowded": {False, True}}


@pytest.mark.parametrize("dtype", ["float32", "float64", "object"])
def test_block_count_edge_cases(dtype):
    d2 = [[1, 0], [0, 1], [-1, -1]]          # z >= 0, z1 + z2 <= 3: 10 points
    box = ([0, 0], [3, 3])
    assert block_count(d2, [0, 0, 3], [box], 2, dtype) == 10
    # an all-zero facet row: its constant alone decides
    assert block_count(d2 + [[0, 0]], [0, 0, 3, -1], [box], 2, dtype) == 0
    assert block_count(d2 + [[0, 0]], [0, 0, 3, 0], [box], 2, dtype) == 10
    # no free coordinate: one point, unless a constant is negative
    assert block_count([[], []], [0, 2], [([], [])], 0, dtype) == 1
    assert block_count([[], []], [0, -2], [([], [])], 0, dtype) == 0
    assert block_count([], [], [([], [])], 0, dtype) == 1
    # a box with lo > hi is empty, with facets or without
    assert block_count(d2, [0, 0, 3], [([0, 2], [3, 1])], 2, dtype) == 0
    assert block_count([], [], [([2], [1])], 1, dtype) == 0
    assert block_count([], [], [([2], [1]), ([1], [4])], 1, dtype) == 4


def test_a_wide_node_keeps_the_rest_of_its_interval(monkeypatch):
    # a node makes one child per value of its narrowest open coordinate,
    # at most the row cap of them, and its last child keeps the rest of
    # that coordinate's interval.  On the line x = y, 0 <= x, y <= N no
    # bound moves, so one child per value would make N + 1 rows at once at
    # the root
    import tracemalloc
    import hivekron.polyhedra as P
    # 16 float64 rows (32 float32 rows) of 4 nonzeros
    monkeypatch.setattr(P, "_BLOCK_BYTES", 8 * 4 * 16)
    line = [[1, -1], [-1, 1]]
    for n in (1, 2, 15, 16, 17, 31, 32, 33, 100):
        for dtype in ("float32", "float64", "object"):
            assert block_count(line, [0, 0], [([0, 0], [n, n])], 2,
                               dtype) == n + 1
    n = 5000
    tracemalloc.start()
    try:
        assert block_count(line, [0, 0], [([0, 0], [n, n])], 2,
                           "float64") == n + 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (n + 1) * 4 * 8     # one float64 array of N + 1 children
    # the root's children are the second block: exactly rows of them,
    # child k at x = k and the last at rows - 1 <= x <= N, each with the
    # root's 0 <= y <= N
    blocks = []
    real = P._tighten_block

    def spy(plan, rf, u, fid, whole):
        blocks.append(u.copy())
        return real(plan, rf, u, fid, whole)
    monkeypatch.setattr(P, "_tighten_block", spy)
    n = 100
    for dtype, rows in (("float32", 32), ("float64", 16), ("object", 16)):
        blocks.clear()
        assert block_count(line, [0, 0], [([0, 0], [n, n])], 2,
                           dtype) == n + 1
        lo_x, lo_y, hi_x, hi_y = (row.tolist() for row in blocks[1])
        assert [-x for x in lo_x] == list(range(rows)), dtype
        assert hi_x == list(range(rows - 1)) + [n], dtype
        assert lo_y == [0] * rows and hi_y == [n] * rows, dtype
    # the one-point fibre sigma((N), (N)) + (N, 0, 0) on (3,3) keeps open
    # widths of about 2N/3, N/2 and N after root tightening
    c = build_cone(3, 3)
    monkeypatch.setattr(P, "_BLOCK_BYTES", 8 * 8 * c.geometry.plan.nnz)
    theta = sigma_of((50,), (50,), 3) + (50, 0, 0)
    assert count_lattice_points(c, theta) == 1
    monkeypatch.setattr(P, "_EXACT_TYPES", ())
    assert count_lattice_points(c, theta) == 1


@pytest.mark.parametrize("types", [None, ()], ids=["float32", "object"])
def test_a_one_byte_block_still_counts(monkeypatch, types):
    # the row cap is at least 2 rows whatever _BLOCK_BYTES says: a node
    # of one child would make itself again and the search would not end
    import hivekron.polyhedra as P
    from hivekron.kron import kronecker
    monkeypatch.setattr(P, "_BLOCK_BYTES", 1)
    if types is not None:
        monkeypatch.setattr(P, "_EXACT_TYPES", types)
    blocks = []
    real = P._tighten_block

    def spy(plan, rf, u, fid, whole):
        assert len(fid) <= 2 and len(blocks) < 10 ** 5
        blocks.append(u.dtype.name)
        return real(plan, rf, u, fid, whole)
    monkeypatch.setattr(P, "_tighten_block", spy)
    assert kronecker(*((4, 2, 2),) * 3).value == 6
    assert set(blocks) == {"float32" if types is None else "object"}


def test_block_children_stay_within_the_row_cap():
    # the row cap bounds a block's children, not each node's: on the (2,2)
    # line fibre g((N, N), (N, N), (N, N)) the last children that keep the
    # rest of their intervals leave blocks of many nodes of a few thousand
    # values each, which would make rows x rows children together (a peak
    # of about 8 MB at N = 10^5) if each node could make up to rows of them
    import tracemalloc
    from hivekron.kron import kronecker
    n = 10 ** 5
    kronecker((n, n), (n, n), (n, n))      # the cone is built untraced
    tracemalloc.start()
    try:
        assert kronecker((n, n), (n, n), (n, n)).value == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 10 ** 6


def test_a_node_past_the_block_budget_waits_whole(monkeypatch):
    # a node of more than two values whose children would take the block
    # past the row cap makes one child, itself, and branches in a later
    # block.  The (2,2) line fibre brings about N nodes to their fixpoint
    # (halving the nodes wider than the row cap brought 1.0056 N)
    import hivekron.polyhedra as P
    from hivekron.kron import kronecker
    n = 10 ** 5
    rows = _spy_nodes(P, monkeypatch)
    assert kronecker((n, n), (n, n), (n, n)).value == 1
    assert sum(rows) < 1.001 * n
    # four roots of the line x = y, 0 <= x, y <= 100, at 16 float64 rows:
    # the first makes 16 children and the other three wait, so they top
    # the second block, whole and in order; branched at once, the last
    # root's children would top it
    blocks = []
    real = P._tighten_block

    def spy(plan, rf, u, fid, whole):
        blocks.append((u.tolist(), fid.tolist()))
        return real(plan, rf, u, fid, whole)
    monkeypatch.setattr(P, "_tighten_block", spy)
    monkeypatch.setattr(P, "_BLOCK_BYTES", 8 * 4 * 16)
    line = [[1, -1], [-1, 1]]
    assert block_count(line, [0, 0], [([0, 0], [100, 100])] * 4, 2,
                       "float64") == 4 * 101
    u, fid = blocks[1]
    assert fid[:4] == [1, 2, 3, 0]
    assert [row[:3] for row in u] == [[0] * 3, [0] * 3, [100] * 3,
                                      [100] * 3]


def reference_tightening(R, res, lo, hi):
    """One box tightened to its fixpoint on Python integers, term by term
    of R: ((lo, hi), passes), or (None, passes) once a pass leaves lo > hi."""
    passes = 0
    while True:
        passes += 1
        new_lo, new_hi = list(lo), list(hi)
        for row, r in zip(R, res):
            terms = [max(c * a, c * b) for c, a, b in zip(row, lo, hi)]
            top = r + sum(terms)
            for j, c in enumerate(row):
                # the facet holds only where c z_j >= -(top - terms[j])
                if c > 0:
                    new_lo[j] = max(new_lo[j], -((top - terms[j]) // c))
                elif c < 0:
                    new_hi[j] = min(new_hi[j], (top - terms[j]) // -c)
        if (new_lo, new_hi) == (lo, hi):
            return (lo, hi), passes
        lo, hi = new_lo, new_hi
        if any(a > b for a, b in zip(lo, hi)):
            return None, passes


@pytest.mark.parametrize("dtype", ["float32", "float64", "object"])
@pytest.mark.parametrize("lm", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4)])
def test_tighten_block_matches_python_reference(small_builds, lm, dtype):
    # one block of real fibres' certificate boxes: random sub-boxes, each
    # fibre's fixpoint, which comes back unchanged, and children (one
    # coordinate fixed), some of which empty only on a later pass; every
    # box at its fixpoint comes back with its own id as its fibre id, so
    # boxes are compared one by one whatever order and call returns them;
    # the engine holds one box per column
    import numpy as np
    import hivekron.polyhedra as P
    geo = build_cone(*lm).geometry
    rng = random.Random(31 * lm[0] + lm[1])
    boxes, res = [], []
    # the root columns of fibres, read back as (r0, lo, hi) in facet order
    on, rf_roots, u_roots = geo.fibres(real_fibres(*lm, 10, 7))
    assert len(on) == u_roots.shape[1] > 0
    for rf_row, u_row in zip(rf_roots.T, u_roots.T):
        r0 = [int(x) for x in rf_row]
        lo = [-int(x) for x in u_row[:geo.d]]
        hi = [int(x) for x in u_row[geo.d:]]
        if any(a > b for a, b in zip(lo, hi)):
            continue
        fixpoint = reference_tightening(geo.R, r0, lo, hi)[0]
        mine = [(lo, hi)] + ([fixpoint] if fixpoint else [])
        for _ in range(7):
            a = [rng.randint(x, y) for x, y in zip(lo, hi)]
            mine.append((a, [rng.randint(x, y) for x, y in zip(a, hi)]))
        for _ in range(5):
            j = rng.randrange(len(lo))
            v = [rng.randint(lo[j], hi[j])]
            mine.append((lo[:j] + v + lo[j + 1:], hi[:j] + v + hi[j + 1:]))
        boxes += mine
        res += [r0] * len(mine)
    d = geo.d
    roots = np.array([[-x for x in a] + b for a, b in boxes],
                     dtype=dtype).T.copy()
    rf = np.array(res, dtype=dtype).T.copy()
    ref = [reference_tightening(geo.R, r, *box) for r, box in zip(res, boxes)]
    # the boxes still moving go in again, as a block DFS hands them on,
    # until every box is settled or empty
    for whole in (False, True):
        u, fid = roots, np.arange(len(boxes))
        handoffs, out, out_fid = 0, [], []
        while len(fid):
            given, block = u, u.copy()
            done, done_fid, widths, u, fid = P._tighten_block(
                geo.plan, rf[:, fid], given, fid, whole)
            assert (given == block).all()
            assert (widths == done[:d] + done[d:]).all()
            # a handed-off box is nonempty, and when the block holds the
            # whole frontier it has at most one open coordinate
            moving = u[:d] + u[d:]
            assert (moving >= 0).all()
            assert not whole or ((moving > 0).sum(axis=0) <= 1).all()
            handoffs += len(fid) > 0
            out += done.T.tolist()
            out_fid += done_fid.tolist()
        if not whole:
            assert sorted(out_fid) == [k for k, (box, _) in enumerate(ref)
                                       if box]
            for k, row in zip(out_fid, out):
                lo, hi = ref[k][0]
                assert row == [-x for x in lo] + hi
            assert handoffs >= 1
            continue
        # a box settled before its fixpoint has two or more open
        # coordinates and still holds its fixpoint box, if any
        assert len(set(out_fid)) == len(out_fid)
        assert set(out_fid) >= {k for k, (box, _) in enumerate(ref) if box}
        early = 0
        for k, row in zip(out_fid, out):
            lo, hi = [-x for x in row[:d]], row[d:]
            if ref[k][0] != (lo, hi):
                early += 1
                assert sum(a < b for a, b in zip(lo, hi)) >= 2
                assert ref[k][0] is None or all(
                    a <= x <= y <= b for a, b, x, y in zip(lo, hi, *ref[k][0]))
        assert early >= 1
    at_fixpoint = [k for k, (box, _) in enumerate(ref) if box == boxes[k]]
    emptied = [passes for box, passes in ref if box is None]
    assert len(boxes) >= 40 and len(at_fixpoint) >= 5
    assert max(emptied) >= (1 if lm == (2, 2) else 2)
    assert max(passes for box, passes in ref if box) >= 3
    assert (geo.max_r > 1) == (lm in {(2, 2), (2, 3), (3, 4)})


def test_one_column_reduction_per_cone(monkeypatch, fresh_geometry):
    P = fresh_geometry
    calls = []
    real = P.hnf

    def spy(rows):
        calls.append(len(rows[0]))
        return real(rows)
    monkeypatch.setattr(P, "hnf", spy)
    for c, th in fibres_23_33():
        count_lattice_points(c, th)
    assert calls == [build_cone(*lm).ambient_dim for lm in ((2, 3), (3, 3))]


def fraction_size_reduce(rows):
    """Reference: size reduction against Fraction Gram-Schmidt vectors."""
    from fractions import Fraction
    n = len(rows)
    b = [list(r) for r in rows]
    if n <= 1:
        return b

    def norm2(v):
        return sum(x * x for x in v)

    for _ in range(3):
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
        kernel = hnf_solve(rows, [0] * len(rows))[1]
        embedded = [list(kv) + [sum(f[v] * kv[v] for v in range(len(kv)))
                                for f in c.facets] for kv in kernel]
        assert _size_reduce(embedded) == fraction_size_reduce(embedded)
    # small random bases hit exact half-integer coefficients (ties)
    rng = random.Random(5)
    tried = 0
    while tried < 40:
        n = rng.randint(2, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n + 1)] for _ in range(n)]
        if fraction_rank(rows) < n:
            continue
        tried += 1
        embedded = [r + [2 * x for x in r] for r in rows]
        assert _size_reduce(embedded) == fraction_size_reduce(embedded)

