import pytest

from hivekron.diamonds import build_bar
from hivekron.errors import OutOfRange
from hivekron.pathmods import boundary_path, diagonal_module, submodule_dims
from hivekron.quiver import det_vertex, hive_vertex


def H(i, j, n, dual=False):
    return hive_vertex(n, i, j, dual)


def partner_vertex(l, m, v):
    """The starting vertex v* of the boundary walk."""
    if m % 2 == 1:
        return hive_vertex(m, v.i, v.j, not v.dual)
    return hive_vertex(m, v.j, v.i, v.dual)


def test_fixture_path_one(small_builds):
    T = boundary_path(3, 3, H(0, 1, 3), build_bar(3, 3)[0])
    assert list(T.path) == [
        H(0, 1, 3, True), H(1, 1, 3, True), H(2, 0, 3), H(1, 2, 2),
        H(1, 1, 2), H(1, 0, 2), H(0, 1, 1), H(1, 1, 2), H(2, 1, 2),
        H(0, 1, 3)]
    assert T.dim_at(H(1, 1, 2)) == 2
    assert all(T.dim_at(v) == 1 for v in T.path if v != H(1, 1, 2))


def test_fixture_path_two(small_builds):
    T = boundary_path(3, 3, H(0, 2, 3), build_bar(3, 3)[0])
    assert list(T.path) == [
        H(0, 2, 3, True), H(1, 0, 3), H(1, 1, 3), H(2, 1, 2), H(2, 0, 2),
        H(1, 1, 2, True), H(0, 2, 1), H(1, 2, 2), H(1, 1, 3), H(0, 2, 3)]
    assert T.dim_at(H(1, 1, 3)) == 2


def test_endpoint_law():
    # odd m: the walk starts at the dual copy; even m: at the transpose
    assert partner_vertex(3, 3, H(0, 1, 3)) == H(0, 1, 3, True)
    assert partner_vertex(3, 4, H(1, 2, 4)) == H(2, 1, 4)
    Qb, _ = build_bar(3, 3)
    T = boundary_path(3, 3, H(0, 1, 3), Qb)
    assert T.path[0] == partner_vertex(3, 3, H(0, 1, 3))
    Qb4, _ = build_bar(3, 4)
    T4 = boundary_path(3, 4, H(1, 2, 4), Qb4)
    assert T4.path[0] == partner_vertex(3, 4, H(1, 2, 4))
    assert T4.path[-1] == H(1, 2, 4)


def test_self_partner_path():
    # m even with i = j: the walk closes up at its own starting vertex
    Q, _ = build_bar(4, 4)
    v = hive_vertex(4, 2, 2, False)
    T = boundary_path(4, 4, v, Q)
    assert T.path[0] == v and T.path[-1] == v
    assert T.dim_at(v) == 2


def test_rejects_non_frozen():
    Q, _ = build_bar(3, 3)
    with pytest.raises(OutOfRange, match="is not a boundary frozen vertex"):
        boundary_path(3, 3, H(1, 1, 3), Q)
    with pytest.raises(OutOfRange, match="is not a boundary frozen vertex"):
        boundary_path(3, 3, det_vertex(2), Q)


def test_submodule_dims_strict_counts(small_builds):
    T = boundary_path(3, 3, H(0, 1, 3), build_bar(3, 3)[0])
    dims = submodule_dims(T, strict=True)
    assert len(dims) == 9
    smallest = dims[-1]
    assert smallest == ((H(0, 1, 3), 1),)
    assert len(submodule_dims(T, strict=False)) == 10


def test_diagonal_modules(small_builds):
    Q, _ = build_bar(3, 3)
    T1 = diagonal_module(3, 3, 1, Q)
    assert T1.path == (det_vertex(1),)
    assert submodule_dims(T1, strict=False) == [((det_vertex(1), 1),)]
    for n in (2, 3):
        T = diagonal_module(3, 3, n, Q)
        assert T.total_dim == 3
        assert len(submodule_dims(T, strict=False)) == 3
        assert T.path[-1] == det_vertex(n)
    with pytest.raises(OutOfRange, match=r"det index 4 not in \[1,3\]"):
        diagonal_module(3, 3, 4, Q)


def test_diagonal_total_dim_general():
    for (l, m, n) in [(4, 3, 2), (4, 3, 3), (2, 4, 4), (4, 4, 2)]:
        assert diagonal_module(l, m, n, build_bar(l, m)[0]).total_dim == l


def test_suffixes_decrease_by_one(small_builds):
    T = boundary_path(3, 3, H(0, 2, 3), build_bar(3, 3)[0])
    dims = submodule_dims(T, strict=False)
    totals = [sum(c for _, c in d) for d in dims]
    assert totals == list(range(len(T.path), 0, -1))


def test_strict_dims_supported_on_unique_frozen(small_builds):
    Q, _ = build_bar(3, 3)
    for v in Q.frozen:
        if v.kind != "hive":
            continue
        T = boundary_path(3, 3, v, Q)
        for d in submodule_dims(T, strict=True):
            assert sum(1 for u, c in d if u in Q.frozen) == 1


@pytest.mark.parametrize("l,m", [(2, 2), (2, 5), (3, 4), (4, 3), (5, 3), (4, 4)])
def test_paths_arrow_realizable(l, m):
    Q, _ = build_bar(l, m)
    for v in Q.frozen:
        if v.kind == "hive":
            boundary_path(l, m, v, Q)  # raises Inconsistent on defect
