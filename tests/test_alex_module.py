import random
from fractions import Fraction
from math import comb

import pytest

from infalex.alex_module import (GradedMap, coker_dims, delta3,
                                 koszul_map, monomial_index, monomials, nabla,
                                 nabla_bar, nilpotence_order, sym_dim,
                                 coker_multiplication_action, dims_to_json)
from infalex.quad_lie import LiePresentation, bb_direct, wedge2_pairs


def full_relations(n):
    return [{(i, j): 1} for i in range(n) for j in range(i + 1, n)]


def test_monomials_graded_lex():
    assert monomials(2, 2) == ((0, 2), (1, 1), (2, 0))
    assert monomials(3, 1) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    for n, q in [(2, 3), (3, 4), (4, 2)]:
        ms = monomials(n, q)
        assert len(ms) == sym_dim(n, q)
        assert list(ms) == sorted(ms)
        assert all(sum(m) == q for m in ms)


def test_delta3_n2_zero_map():
    gm = delta3(2)
    assert gm.blocks[0].num_generators == 0
    for q in range(3):
        assert coker_dims(gm, q)[q] == gm.target_dim_in_degree(q)


def test_delta3_symbol_formula():
    # e0 ^ e1 ^ e2 |-> e0 (x) (e1 ^ e2) + e1 (x) (e2 ^ e0) + e2 (x) (e0 ^ e1)
    gm = delta3(3)
    (symbol,) = gm.blocks[0].symbol
    pairs = {p: k for k, p in enumerate(wedge2_pairs(3))}
    expected = {(0, pairs[(1, 2)]): Fraction(1),
                (1, pairs[(0, 2)]): Fraction(-1),   # e2 ^ e0 = -(e0 ^ e2)
                (2, pairs[(0, 1)]): Fraction(1)}
    assert {(i, k): c for (i, k, c) in symbol} == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chen_dimension_formula(n):
    dims = coker_dims(delta3(n), 5)
    for q in range(6):
        assert dims[q] == comb(q + n, q + 2) * (q + 1)


@pytest.mark.parametrize("n", [3, 4])
def test_koszul_composition_zero(n):
    d3, d2 = koszul_map(n, 3), koszul_map(n, 2)
    for q in range(4):
        assert d2.instantiate(q + 1).matmul(d3.instantiate(q)).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_koszul_kernel_oracle(n):
    # coker(delta3) in degree q has the dimension of ker(delta1) one step up
    d3, d1 = delta3(n), koszul_map(n, 1)
    for q in range(4):
        coker = coker_dims(d3, q)[q]
        kernel_dim = len(d1.instantiate(q + 2).kernel_basis())
        assert coker == kernel_dim


def test_nabla_full_relations_degree0():
    p = LiePresentation.make(3, full_relations(3))
    assert coker_dims(nabla(p), 0)[0] == 0


def test_nabla_free_equals_delta3():
    p = LiePresentation.make(3, [])
    gm, d3 = nabla(p), delta3(3)
    for q in range(4):
        assert gm.instantiate(q).rank() == d3.instantiate(q).rank()
        assert coker_dims(gm, q)[q] == coker_dims(d3, q)[q]


def test_nabla_free_n2_degree1():
    p = LiePresentation.make(2, [])
    assert coker_dims(nabla(p), 1)[1] == 2


def test_nabla_bar_free_equals_delta3():
    p = LiePresentation.make(3, [])
    nb = nabla_bar(p)
    d3 = delta3(3)
    for q in range(4):
        assert nb.instantiate(q).entries == d3.instantiate(q).entries


def test_nabla_bar_full_relations_zero_target():
    p = LiePresentation.make(3, full_relations(3))
    nb = nabla_bar(p)
    assert nb.target_dim == 0
    for q in range(3):
        assert coker_dims(nb, q)[q] == 0


def test_zero_map_coker_is_target():
    gm = GradedMap(1, 3, ())
    dims = coker_dims(gm, 2)
    assert list(dims.dims) == [3, 3, 3]   # Sym_q(C^1) is one-dimensional


@pytest.mark.parametrize("seed", range(6))
def test_three_routes_agree_random(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3])
    rels = []
    for _ in range(rng.randint(0, 3)):
        rel = {(i, j): rng.randint(-2, 2) for i in range(n) for j in range(i + 1, n)}
        rel = {k: v for k, v in rel.items() if v}
        if rel:
            rels.append(rel)
    p = LiePresentation.make(n, rels)
    a = list(coker_dims(nabla(p), 4).dims)
    b = list(coker_dims(nabla_bar(p), 4).dims)
    c = [bb_direct(p, q)[0] for q in range(5)]
    assert a == b == c


def test_sym_linearity_of_instantiation():
    # multiplying a source generator by a variable and then applying the map
    # agrees with applying the map and then multiplying
    rng = random.Random(13)
    p = LiePresentation.make(3, [{(0, 1): 1, (1, 2): -2}])
    gm = nabla(p)
    n = gm.base_dim
    for q in (1, 2):
        cols_q = gm.instantiate(q).column_vectors()
        cols_next = gm.instantiate(q + 1).column_vectors()
        tgt_now = monomials(n, q)
        tgt_idx = monomial_index(n, q + 1)
        samples = []
        off_q, off_next = {}, {}
        acc_q = acc_next = 0
        for bi, block in enumerate(gm.blocks):
            off_q[bi], off_next[bi] = acc_q, acc_next
            if q - block.shift >= 0:
                acc_q += len(monomials(n, q - block.shift)) * block.num_generators
            acc_next += len(monomials(n, q + 1 - block.shift)) * block.num_generators
            if q - block.shift < 0 or block.num_generators == 0:
                continue
            for _ in range(4):
                samples.append((bi, rng.randrange(len(monomials(n, q - block.shift))),
                                rng.randrange(block.num_generators), rng.randrange(n)))
        for bi, mi, j, var in samples:
            block = gm.blocks[bi]
            src = monomials(n, q - block.shift)
            src_next = monomial_index(n, q + 1 - block.shift)
            col = off_q[bi] + mi * block.num_generators + j
            up = list(src[mi])
            up[var] += 1
            col2 = off_next[bi] + src_next[tuple(up)] * block.num_generators + j
            expected = {}
            for row, c in cols_q[col].items():
                tm = list(tgt_now[row // gm.target_dim])
                tm[var] += 1
                expected[tgt_idx[tuple(tm)] * gm.target_dim + row % gm.target_dim] = c
            assert cols_next[col2] == expected


def test_monotone_vanishing_and_nilpotence_order():
    p = LiePresentation.make(3, full_relations(3))
    assert nilpotence_order(nabla(p), 4) == 0
    pf = LiePresentation.make(2, [])
    assert nilpotence_order(nabla(pf), 5) is None
    # Heisenberg-style: dims (1, 0, ...) gives order 1
    rels = [{(0, 1): 1}, {(0, 3): 1}, {(1, 2): 1}, {(2, 3): 1},
            {(0, 2): 1, (1, 3): -1}]
    ph = LiePresentation.make(4, rels)
    assert nilpotence_order(nabla(ph), 3) == 1


def _plain_coker(gm, max_degree):
    # the independent oracle: the full instantiated matrix, no weights
    return tuple(gm.target_dim_in_degree(q) - gm.instantiate(q).rank()
                 for q in range(max_degree + 1))


def test_weighted_rank_agrees_with_plain():
    # the coordinate-torus weights make the cyclic-sum map weight
    # homogeneous; block-diagonal ranks must reproduce the plain ranks
    from itertools import combinations
    for n in (3, 4):
        gm = delta3(n)
        unit = lambda i: tuple(1 if t == i else 0 for t in range(n))
        base_w = [unit(i) for i in range(n)]
        target_w = [tuple(a + b for a, b in zip(unit(i), unit(j)))
                    for i, j in combinations(range(n), 2)]
        block_w = [[tuple(a + b + c for a, b, c in zip(unit(i), unit(j), unit(k)))
                    for i, j, k in combinations(range(n), 3)]]
        weighted = coker_dims(gm, 4, weights=(base_w, block_w, target_w))
        assert weighted.dims == _plain_coker(gm, 4)


def test_weight_homogeneity_violation_detected():
    gm = delta3(3)
    base_w = [(1,)] * 3
    block_w = [[(0,)] * gm.blocks[0].num_generators]
    target_w = [(0,)] * gm.target_dim
    with pytest.raises(ValueError):
        coker_dims(gm, 2, weights=(base_w, block_w, target_w))


def test_weights_are_always_checked():
    # block weights that do not match the symbol would put columns of one
    # weight block into different buckets and give wrong ranks
    gm = koszul_map(3, 2)
    base_w = [(1,), (2,), (4,)]
    with pytest.raises(ValueError):
        coker_dims(gm, 3, weights=(base_w, [[(0,)] * 3], [(0,)] * 3))
    pair_w = [[(3,), (5,), (6,)]]          # (0,1), (0,2), (1,2)
    weighted = coker_dims(gm, 3, weights=(base_w, pair_w, base_w))
    assert weighted.dims == _plain_coker(gm, 3) == (3, 6, 10, 15)


def test_dims_json_shape():
    p = LiePresentation.make(2, [])
    text = dims_to_json(coker_dims(nabla(p), 2))
    assert text == '{"coker_dims": [1, 2, 3], "degrees": [0, 1, 2]}'


def test_multiplication_action_nilpotent():
    p = LiePresentation.make(3, full_relations(3))
    total, mats = coker_multiplication_action(nabla(p), 3)
    assert total == 0
    pf = LiePresentation.make(2, [])
    total, mats = coker_multiplication_action(nabla(pf), 2)
    assert total == 1 + 2 + 3
    for m in mats:
        # degree-raising and truncated, hence nilpotent
        power = m
        for _ in range(4):
            power = power.matmul(m)
        assert power.is_zero()
