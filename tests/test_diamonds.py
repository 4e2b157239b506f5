from functools import reduce

import pytest

from hivekron.diamonds import (_glue, bar_label, build_bar, build_tilde,
                               canonical_vertex, expected_vertex_count,
                               twist_route_difference, twist_sequence)
from hivekron.errors import Inconsistent, OutOfRange
from hivekron.quiver import (b_matrix_rank, det_vertex, hive_vertex,
                             mutate_quiver, weight_defect)

SIZES = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (3, 4), (4, 4), (2, 4), (4, 2)]


def test_canonical_vertex_examples():
    # diagonal duals collapse
    assert canonical_vertex(2, 1, 0, True, 3, 3) == hive_vertex(2, 1, 0, False)
    # the self-glued edge of the leftmost diamond
    assert canonical_vertex(2, 0, 1, False, 3, 3) == hive_vertex(1, 0, 1, False)
    assert canonical_vertex(2, 0, 1, True, 3, 3) == hive_vertex(1, 0, 1, False)
    # odd hypotenuse falls into the previous diamond
    assert canonical_vertex(3, 2, 1, False, 3, 3) == hive_vertex(2, 2, 1, False)


def test_canonical_vertex_idempotent():
    l = m = 4
    for n in range(2, m + 1):
        for i in range(l + 1):
            for j in range(l + 1):
                if not (1 <= i + j <= l) or (i, j) in ((l, 0), (0, l)):
                    continue
                for d in (False, True):
                    v = canonical_vertex(n, i, j, d, l, m)
                    again = canonical_vertex(v.n, v.i, v.j, v.dual, l, m)
                    assert again == v


@pytest.mark.parametrize("l,m", SIZES + [(5, 5), (6, 2), (2, 6), (6, 6)])
def test_vertex_count_formula(l, m):
    Q, _ = build_tilde(l, m)
    assert len(Q.vertices) == expected_vertex_count(l, m)


def test_tilde_333_counts():
    Q, _ = build_tilde(3, 3)
    assert len(Q.vertices) == 21
    assert len(Q.mutable) == 14
    assert len(Q.frozen) == 7


def test_tilde_22_counts():
    Q, _ = build_tilde(2, 2)
    assert len(Q.vertices) == 6
    assert len(Q.mutable) == 2


@pytest.mark.parametrize("l,m", SIZES)
def test_weight_configs_balance(l, m):
    Qt, st = build_tilde(l, m)
    assert not weight_defect(Qt, st)
    Qb, sb = build_bar(l, m)
    assert not weight_defect(Qb, sb)


@pytest.mark.parametrize("l,m", SIZES + [(5, 5), (6, 6)])
def test_full_rank(l, m):
    Qt, _ = build_tilde(l, m)
    assert b_matrix_rank(Qt) == len(Qt.mutable)
    Qb, _ = build_bar(l, m)
    assert b_matrix_rank(Qb) == len(Qb.mutable)


def test_tilde_diagonal_neighborhood():
    # the displayed exchange neighborhood of a diagonal vertex: at (2,0)
    # of the even diamond the in-set is {(2,1), (2,1)-dual, (1,0)} and the
    # out-set {(1,1), (1,1)-dual, det2}
    Q, _ = build_tilde(3, 3)
    v = hive_vertex(2, 2, 0, False)
    ins = {s for s, _ in Q.arrows_in(v)}
    outs = {t for t, _ in Q.arrows_out(v)}
    side1 = {hive_vertex(2, 2, 1, False), hive_vertex(2, 2, 1, True),
             hive_vertex(2, 1, 0, False)}
    side2 = {hive_vertex(2, 1, 1, False), hive_vertex(2, 1, 1, True),
             det_vertex(2)}
    assert (ins, outs) in [(side1, side2), (side2, side1)]


@pytest.mark.parametrize("l,m", [(2, 3), (3, 3), (4, 3), (3, 4), (3, 5), (4, 5)])
def test_twist_routes_agree(l, m):
    assert twist_route_difference(l, m) is None


def test_twist_sequence_support():
    seq = twist_sequence(3, 3, 3)
    assert all(v.n == 3 and v.i >= 1 and v.j >= 1 and v.i + v.j < 3
               for v in seq)
    with pytest.raises(OutOfRange, match="twist applies to odd diamonds"):
        twist_sequence(3, 3, 2)
    with pytest.raises(OutOfRange, match="twist applies to odd diamonds"):
        twist_sequence(3, 4, 5)


def test_twist_then_reverse_restores_tilde():
    from hivekron.diamonds import all_twists
    for (l, m) in [(3, 3), (4, 3), (3, 5)]:
        Qt, _ = build_tilde(l, m)
        seq = all_twists(l, m)
        there = reduce(mutate_quiver, seq, Qt)
        back = reduce(mutate_quiver, reversed(seq), there)
        assert back == Qt


def test_glue_rejects_an_unpaired_shared_edge_step():
    # with the one family (0, -1), a step down a glued edge has no partner
    # step back on the other side
    with pytest.raises(Inconsistent, match="unpaired shared-edge arrow"):
        _glue(3, 3, bar_label(3, 3), lambda n, dual: ((0, -1),))


def test_bar_m2_equals_tilde():
    Qt, st = build_tilde(3, 2)
    Qb, sb = build_bar(3, 2)
    assert Qt == Qb and st == sb


def test_bar_interior_weight_fixture():
    # the mutated interior variable of the l=m=3 odd diamond
    _, s = build_bar(3, 3)
    assert s[hive_vertex(3, 1, 1, False)] == (0, -2, 0, 1, 0, 1, 2, 1, 1)
    assert s[hive_vertex(3, 1, 1, True)] == (-1, 0, -1, 0, 2, 0, 2, 1, 1)


def bar_arrow_types(l, m):
    """Type map of the twisted quiver's arrows: 'a', 'b', 'c', or 'bc'.

    Read off the hive walk by family index: east arrows are 'a'; in even
    diamonds the template's southwest family is 'b', in odd diamonds the
    roles of 'b' and 'c' swap.  Arrows along the self-glued edge serve as
    both 'b' and 'c'.
    """
    from hivekron.diamonds import (_bar_families, _det_arrows, _hive_steps,
                                   bar_label)
    Q, _ = build_bar(l, m)
    label_of = bar_label(l, m)
    typed = [(("acb" if n % 2 else "abc")[k], src, tgt)
             for n, k, src, tgt in _hive_steps(l, m, label_of, _bar_families)]
    types = {}
    for ty, s, t in typed + _det_arrows(l, m, label_of):
        if (s, t) in Q.arrows:
            types[(s, t)] = ty if types.get((s, t), ty) == ty else "bc"
    return types


@pytest.mark.parametrize("l,m", SIZES)
def test_bar_abc_typing(l, m):
    """Every 3-cycle of the twisted quiver carries one arrow of each type.

    The constructive typing marks east arrows 'a' and swaps the b/c roles
    between even and odd diamonds; arrows on the self-glued edge count as
    either 'b' or 'c' per cycle.
    """
    Q, _ = build_bar(l, m)
    types = bar_arrow_types(l, m)
    assert set(types) == set(Q.arrows)
    outs = {}
    for (s, t) in Q.arrows:
        outs.setdefault(s, []).append(t)
    cycles = 0
    for (s, t) in Q.arrows:
        for u in outs.get(t, []):
            if (u, s) in Q.arrows:
                cycles += 1
                tys = [types[(s, t)], types[(t, u)], types[(u, s)]]
                firm = [x for x in tys if x != "bc"]
                nwild = tys.count("bc")
                need = {"a", "b", "c"} - set(firm)
                assert len(set(firm)) == len(firm), (s, t, u, tys)
                assert len(need) == nwild, (s, t, u, tys)
                assert "a" not in need, (s, t, u, tys)
    assert cycles > 0
