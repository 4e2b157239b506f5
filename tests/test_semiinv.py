import random
from fractions import Fraction

import pytest

from hivekron.diamonds import build_tilde
from hivekron.errors import DegenerateSample, OutOfRange
from hivekron.semiinv import (Representation,
                              check_exchange_relations, det_weight,
                              eval_semi_invariant, lifted_presentation,
                              sigma_lambda_weight, vertex_value)


def E(t, l, m, coef=1):
    w = [0] * (2 * l + m)
    if t < 0:
        w[-t - 1] = coef
    else:
        w[l + t - 1] = coef
    return w


def add(*ws):
    return tuple(sum(col) for col in zip(*ws))


def presentation_weight(p, l):
    """The sigma part of the weight of a presentation: +1 per source,
    -1 per target."""
    return add(*[E(s, l, 0) for s in p.sources],
               *[E(t, l, 0, -1) for t in p.targets])


def standard_representation(l, m):
    """Every map the identity, padded with zeros."""
    def eye(rows, cols):
        return [[1 if r == c else 0 for c in range(cols)] for r in range(rows)]
    return Representation(l, m, {k: eye(k + 1, k) for k in range(1, l)},
                          {k: eye(k, k + 1) for k in range(1, l)},
                          {t: eye(l, l) for t in range(1, m + 1)})


def test_sigma_weight_diag():
    l, m = 3, 3
    assert sigma_lambda_weight(2, 0, 3, False, l, m) == \
        add(E(2, l, m), E(-2, l, m, -1), [0]*6 + [0, 0, 2])


def test_sigma_weight_112():
    # (1,1,2) at l=3: sigma = e2 - 2e(-1), lambda = e2 + e1
    w = sigma_lambda_weight(1, 1, 2, False, 3, 3)
    assert w == (-2, 0, 0, 0, 1, 0, 1, 1, 0)


def test_sigma_weight_123_odd_hyp():
    # i+j=l with odd n falls back to the even diamond: no e_l correction
    w = sigma_lambda_weight(1, 2, 3, False, 3, 3)
    assert w[:6] == (-1, -1, 0, 0, 0, 1)
    assert w == sigma_lambda_weight(1, 2, 2, False, 3, 3)


def test_sigma_weight_dual_mirror():
    l, m = 3, 3
    w = sigma_lambda_weight(1, 1, 3, True, l, m)
    # dual sigma: e_i + e_j - e_{-(i+j)} + r(e_l - e_{-l})
    assert w[:6] == (0, -1, -1, 2, 0, 1)
    # lambda part equals the plain one
    assert w[6:] == sigma_lambda_weight(1, 1, 3, False, l, m)[6:]


def test_weight_out_of_range():
    with pytest.raises(OutOfRange, match=r"\(3,1\) outside the hive of size 3"):
        sigma_lambda_weight(3, 1, 2, False, 3, 3)


def test_label_range_checked_after_normalization():
    # every entry point that takes a raw label checks its diamond index in
    # normalize_label: 1 <= n, and n <= m once the label is normalized
    from hivekron.diamonds import canonical_vertex
    l, m = 3, 3
    entries = (lambda i, j, n: canonical_vertex(n, i, j, False, l, m),
               lambda i, j, n: sigma_lambda_weight(i, j, n, False, l, m),
               lambda i, j, n: lifted_presentation(i, j, n, False, l, m))
    for entry in entries:
        with pytest.raises(OutOfRange, match="bad diamond index 0"):
            entry(1, 1, 0)
        # (1,1) is neither on the i = 0 edge nor on i + j = l, so n = 4 stays
        with pytest.raises(OutOfRange, match="diamond index 4 out of range"):
            entry(1, 1, m + 1)
        # on the i = 0 edge an even n = m + 1 normalizes down to m
        assert entry(0, 1, m + 1) == entry(0, 1, m)


def test_lifted_presentation_diag():
    p = lifted_presentation(2, 0, 3, False, 3, 3)
    assert p.sources == (2,) and p.targets == (-2,) and p.grid == ((3,),)


def test_lifted_presentation_hyp_falls_back():
    assert lifted_presentation(1, 2, 3, False, 3, 3) == \
        lifted_presentation(1, 2, 2, False, 3, 3)


def test_lifted_presentation_sigma_consistency():
    l, m = 3, 3
    for (i, j, n) in [(1, 1, 2), (1, 1, 3), (0, 2, 3), (2, 1, 2), (1, 0, 3)]:
        for dual in (False, True):
            p = lifted_presentation(i, j, n, dual, l, m)
            w = sigma_lambda_weight(i, j, n, dual, l, m)
            assert presentation_weight(p, l) == w[:2 * l]


def test_eval_standard_is_one():
    M = standard_representation(3, 3)
    for i in (1, 2):
        for n in (1, 2, 3):
            p = lifted_presentation(i, 0, n, False, 3, 3)
            assert eval_semi_invariant(p, M) == 1


def test_eval_l2_one_by_one():
    rng = random.Random(0)
    M = Representation.random(2, 2, rng)
    p = lifted_presentation(1, 0, 1, False, 2, 2)
    # 1x1 determinant: the flag-conjugated (1,1) entry of the first map
    val = eval_semi_invariant(p, M)
    a = M.central[1]
    asc, desc = M.asc[1], M.desc[1]
    direct = sum(desc[0][r] * a[r][c] * asc[c][0]
                 for r in range(2) for c in range(2))
    assert val == direct


def scaled_central(M, t, factor):
    """M with its t-th central map multiplied by factor."""
    central = dict(M.central)
    central[t] = [[factor * x for x in row] for row in M.central[t]]
    return Representation(M.l, M.m, M.asc, M.desc, central)


def lambda_degree_probe(i, j, n, dual, l, m, k, rng, attempts=20):
    """Degree in the k-th central map, read off numerically by t-scaling."""
    pres = lifted_presentation(i, j, n, dual, l, m)
    for _ in range(attempts):
        M = Representation.random(l, m, rng)
        base = eval_semi_invariant(pres, M)
        if base == 0:
            continue
        scaled = eval_semi_invariant(pres, scaled_central(M, k, 2))
        ratio = Fraction(scaled, base)
        d = 0
        while ratio % 2 == 0:
            ratio /= 2
            d += 1
        if ratio == 1:
            return d
    raise DegenerateSample("could not find a nondegenerate sample for the probe")


def test_scaling_degree_matches_lambda():
    rng = random.Random(5)
    l, m = 3, 3
    for (i, j, n, dual) in [(1, 1, 3, False), (1, 1, 3, True), (2, 1, 2, True)]:
        w = sigma_lambda_weight(i, j, n, dual, l, m)
        for k in (1, 2, 3):
            assert lambda_degree_probe(i, j, n, dual, l, m, k, rng) == \
                w[2 * l + k - 1]


def test_flag_scaling_degrees():
    # the value is homogeneous in each flag map; the degree in asc_k is
    # the total size of targets P_{-x} with x <= k (and dually for desc)
    rng = random.Random(9)
    l, m = 3, 3
    for (i, j, n, dual) in [(1, 1, 3, False), (2, 1, 2, False),
                            (1, 1, 3, True), (0, 2, 3, False)]:
        p = lifted_presentation(i, j, n, dual, l, m)
        for k in range(1, l):
            exp_asc = sum(-t for t in p.targets if -t <= k)
            exp_desc = sum(t for t in p.sources if t <= k)
            for _ in range(20):
                M = Representation.random(l, m, rng)
                base = eval_semi_invariant(p, M)
                if base == 0:
                    continue
                Ma = Representation(l, m, dict(M.asc), M.desc, M.central)
                Ma.asc[k] = [[2 * x for x in row] for row in M.asc[k]]
                assert eval_semi_invariant(p, Ma) == base * 2 ** exp_asc
                Md = Representation(l, m, M.asc, dict(M.desc), M.central)
                Md.desc[k] = [[2 * x for x in row] for row in M.desc[k]]
                assert eval_semi_invariant(p, Md) == base * 2 ** exp_desc
                break


def test_dual_presentation_roundtrip():
    p = lifted_presentation(1, 1, 3, False, 3, 3)
    assert p.dual().dual() == p


def test_vertex_values_nonzero_generically():
    rng = random.Random(1)
    Q, _ = build_tilde(2, 3)
    M = Representation.random(2, 3, rng)
    vals = [vertex_value(v, M, 2, 3) for v in Q.vertices]
    assert all(isinstance(v, int) for v in vals)


@pytest.mark.parametrize("l,m", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_exchange_relations_sample(l, m):
    rng = random.Random(100 * l + m)
    Q, _ = build_tilde(l, m)
    done = 0
    while done < 10:
        M = Representation.random(l, m, rng)
        try:
            rep = check_exchange_relations(l, m, M, Q)
        except Exception:
            continue
        done += 1
        assert rep.ok, rep.failures
        assert rep.checked == len(Q.mutable)


def test_det_weight():
    assert det_weight(2, 3, 3) == (0, 0, -1, 0, 0, 1, 0, 3, 0)
