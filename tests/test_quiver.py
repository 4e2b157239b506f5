import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivekron.errors import HivekronError, OutOfRange
from hivekron.quiver import (b_matrix, b_matrix_rank, hive_vertex, make_quiver,
                             mutate_quiver, mutate_weights_seq,
                             weight_defect)


def V(k):
    return hive_vertex(1, k, 0)


def entry(Q, u, v):
    """Entry (u, v) of B(Q): rows follow Q.mutable, columns Q.vertices."""
    return b_matrix(Q)[Q.mutable.index(u)][Q.vertices.index(v)]


def mutable_block(Q):
    """The square block of B(Q) on the mutable columns."""
    idx = [Q.vertices.index(u) for u in Q.mutable]
    return tuple(tuple(row[k] for k in idx) for row in b_matrix(Q))


def quiver_from_arrows(n, arrows, frozen=()):
    verts = [V(k) for k in range(1, n + 1)]
    return make_quiver(verts, {V(k) for k in frozen},
                       {(V(a), V(b)): m for (a, b, m) in arrows})


def test_path_mutation_gives_three_cycle():
    Q = quiver_from_arrows(3, [(1, 2, 1), (2, 3, 1)])
    Q2 = mutate_quiver(Q, V(2))
    assert Q2.arrows == {(V(2), V(1)): 1, (V(3), V(2)): 1, (V(1), V(3)): 1}


def test_single_arrow_mutation_reverses():
    Q = quiver_from_arrows(2, [(1, 2, 1)])
    Q2 = mutate_quiver(Q, V(1))
    assert Q2.arrows == {(V(2), V(1)): 1}


def test_mutation_errors():
    Q = quiver_from_arrows(2, [(1, 2, 1)], frozen=(2,))
    with pytest.raises(OutOfRange, match="cannot mutate at frozen vertex"):
        mutate_quiver(Q, V(2))
    with pytest.raises(OutOfRange, match="is not a vertex"):
        mutate_quiver(Q, V(9))


@pytest.mark.parametrize("arrow", [(1, 1, 1), (1, 2, -1)])
def test_loop_and_negative_multiplicity_rejected(arrow):
    with pytest.raises(HivekronError):
        quiver_from_arrows(2, [arrow])


@pytest.mark.parametrize("fwd, back, net", [
    (3, 1, {(1, 2): 2}), (2, 2, {}), (1, 4, {(2, 1): 3})])
def test_opposite_arrows_net_on_the_larger_side(fwd, back, net):
    Q = quiver_from_arrows(2, [(1, 2, fwd), (2, 1, back)])
    assert Q.arrows == {(V(a), V(b)): k for (a, b), k in net.items()}


def test_frozen_pair_dropped_and_loop_rejected():
    Q = quiver_from_arrows(3, [(1, 2, 1), (2, 3, 1)], frozen=(2, 3))
    assert Q.arrows == {(V(1), V(2)): 1}
    with pytest.raises(OutOfRange, match="loop"):
        quiver_from_arrows(2, [(1, 1, 1), (1, 2, 1)])


def test_b_matrix_three_cycle():
    Q = quiver_from_arrows(3, [(1, 2, 1), (2, 3, 1), (3, 1, 1)])
    assert mutable_block(Q) == ((0, 1, -1), (-1, 0, 1), (1, -1, 0))


def test_b_matrix_double_arrow():
    Q = quiver_from_arrows(2, [(1, 2, 2)])
    assert entry(Q, V(1), V(2)) == 2


def test_b_matrix_rank():
    Q = quiver_from_arrows(3, [(1, 2, 1), (2, 3, 1), (3, 1, 1)])
    assert b_matrix_rank(Q) == 2  # odd skew-symmetric block


def _random_quiver(draw, n_mut, n_fr):
    n = n_mut + n_fr
    arrows = {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if a > n_mut and b > n_mut:
                continue
            m = draw(st.integers(min_value=-2, max_value=2))
            if m > 0:
                arrows[(V(a), V(b))] = m
            elif m < 0:
                arrows[(V(b), V(a))] = -m
    return make_quiver([V(k) for k in range(1, n + 1)],
                       {V(k) for k in range(n_mut + 1, n + 1)}, arrows)


@st.composite
def ice_quivers(draw):
    return _random_quiver(draw, draw(st.integers(2, 4)), draw(st.integers(0, 2)))


@given(ice_quivers(), st.data())
@settings(max_examples=60, deadline=None)
def test_mutation_involution(Q, data):
    u = data.draw(st.sampled_from(list(Q.mutable)))
    assert mutate_quiver(mutate_quiver(Q, u), u) == Q


@given(ice_quivers(), st.data())
@settings(max_examples=60, deadline=None)
def test_b_matrix_commutes_with_mutation(Q, data):
    u = data.draw(st.sampled_from(list(Q.mutable)))
    B = b_matrix(Q)
    Qm = mutate_quiver(Q, u)
    # Fomin-Zelevinsky matrix mutation applied to B(Q)
    rows, cols = Q.mutable, Q.vertices
    k = cols.index(u)
    kr = rows.index(u)
    for r, urow in enumerate(rows):
        for c, vcol in enumerate(cols):
            b = B[r][c]
            buv = B[kr][c]
            bvu = B[r][k]
            if urow == u or vcol == u:
                expect = -b
            else:
                expect = b + (abs(bvu) * buv + bvu * abs(buv)) // 2
            assert entry(Qm, urow, vcol) == expect


def test_mutate_weights_zero_at_symmetric_cycle():
    Q = quiver_from_arrows(3, [(1, 2, 1), (2, 3, 1), (3, 1, 1)])
    w = {V(k): (1, 2) for k in range(1, 4)}
    w2 = mutate_weights_seq(Q, w, [V(2)])[1]
    assert w2[V(2)] == (0, 0)
    assert w2[V(1)] == (1, 2)


def test_mutate_weights_in_sum_rule():
    # u with in-arrows from {a, b}, out to {c, d}
    Q = quiver_from_arrows(5, [(2, 1, 1), (3, 1, 1), (1, 4, 1), (1, 5, 1)],
                           frozen=(2, 3, 4, 5))
    w = {V(1): (1,), V(2): (2,), V(3): (3,), V(4): (1,), V(5): (4,)}
    assert not weight_defect(Q, w)
    w2 = mutate_weights_seq(Q, w, [V(1)])[1]
    assert w2[V(1)] == (2 + 3 - 1,)


def test_mutate_weights_rejects_bad_config():
    Q = quiver_from_arrows(2, [(1, 2, 1)], frozen=(2,))
    with pytest.raises(OutOfRange, match="in/out weight sums differ"):
        mutate_weights_seq(Q, {V(1): (1,), V(2): (5,)}, [V(1)])


def test_mutate_weights_rejects_non_vertex():
    from hivekron.diamonds import build_tilde
    Q, sigma = build_tilde(3, 3)
    u = hive_vertex(9, 1, 1)
    with pytest.raises(OutOfRange, match="is not a vertex"):
        mutate_weights_seq(Q, sigma, [u])


def test_mutate_weights_rejects_frozen_vertex():
    Q = quiver_from_arrows(2, [(1, 2, 1)], frozen=(2,))
    with pytest.raises(OutOfRange, match="cannot mutate at frozen vertex"):
        mutate_weights_seq(Q, {V(1): (1,), V(2): (0,)}, [V(2)])


def test_frozen_weights_never_altered():
    Q = quiver_from_arrows(3, [(2, 1, 1), (1, 3, 1)], frozen=(2, 3))
    w = {V(1): (7,), V(2): (5,), V(3): (5,)}
    w2 = mutate_weights_seq(Q, w, [V(1)])[1]
    assert w2[V(2)] == (5,) and w2[V(3)] == (5,)
    assert not weight_defect(mutate_quiver(Q, V(1)), w2)
