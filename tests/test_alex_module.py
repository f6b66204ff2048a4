import inspect
import random
import sys
from fractions import Fraction
from math import comb
from operator import add

import pytest

from infalex.alex_module import (CyclicSumSymbol, GradedMap, coker_dims, delta3, monomial_index,
                                 monomials, nabla, nabla_bar, sym_dim,
                                 coker_multiplication_action)
from infalex.errors import InternalInconsistencyError
from infalex.exact_linalg import EMPTY, EchelonBasis, RationalMatrix, echelon_basis
from infalex.quad_lie import LiePresentation, bb_direct, wedge2_pairs
from infalex.rep_semisimple import LieAlgebraSpec

from module_builders import (beta_matrix, column_keys, composed_nabla_bar, fraction_columns,
                             full_nabla_matrix, koszul_map, num_columns, quotient_pairs,
                             recursive_monomials, rref_relations)


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


def test_monomials_match_the_recursive_enumeration():
    for n in range(1, 9):
        for q in range(-1, 6):
            assert monomials(n, q) == recursive_monomials(n, q), (n, q)


def test_monomials_past_the_recursion_limit():
    # 600 variables: a recursion per variable through an lru_cache exhausts
    # CPython's default recursion limit from about 490 variables
    for q in (0, 1):
        assert len(monomials(600, q)) == sym_dim(600, q)
    assert monomials(600, 1)[0] == (0,) * 599 + (1,)
    # degree 2 under a recursion limit 40 frames above this one, which the
    # recursion per variable exceeds at 120 variables: Sym_2 of 600 variables
    # holds 180,300 vectors of 600 entries, about 850 MB
    depth = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        with pytest.raises(RecursionError):
            recursive_monomials(120, 2)
        assert len(monomials(120, 2)) == sym_dim(120, 2)
    finally:
        sys.setrecursionlimit(limit)


def test_delta3_n2_zero_map():
    gm = delta3(2)
    assert gm.symbol == ()
    for q in range(3):
        assert coker_dims(gm, q)[q] == gm.target_dim_in_degree(q)


def test_delta3_symbol_formula():
    # e0 ^ e1 ^ e2 |-> e0 (x) (e1 ^ e2) + e1 (x) (e2 ^ e0) + e2 (x) (e0 ^ e1)
    gm = delta3(3)
    (symbol,) = gm.symbol
    pairs = {p: k for k, p in enumerate(wedge2_pairs(3))}
    expected = {(0, pairs[(1, 2)]): Fraction(1),
                (1, pairs[(0, 2)]): Fraction(-1),   # e2 ^ e0 = -(e0 ^ e2)
                (2, pairs[(0, 1)]): Fraction(1)}
    assert {(i, k): c for (i, k, c) in symbol} == expected


@pytest.mark.parametrize("n", range(1, 8))
def test_delta3_is_the_koszul_differential(n):
    # the cyclic sum on unit columns against the general Koszul formula: the
    # same symbol tuples, term order and coefficients
    assert delta3(n) == koszul_map(n, 3)


@pytest.mark.parametrize("n", range(7))
def test_quotient_by_the_empty_span_is_the_identity(n):
    # delta3 is the cyclic sum into wedge^2 V modulo nothing
    q = EchelonBasis().quotient(n)
    assert q == RationalMatrix.identity(n) and q.den == 1
    assert list(q.num.items()) == [((k, k), 1) for k in range(n)]


@pytest.mark.parametrize("n", range(1, 6))
def test_delta3_is_the_cyclic_sum_on_unit_columns(n):
    # the unit column of each pair over den 1, written out; n = 1 and 2
    # have no triple
    unit = CyclicSumSymbol(n, [((k, 1),) for k in range(comb(n, 2))])
    gm = delta3(n)
    assert gm.symbol.columns == unit.columns and gm.den == 1 and gm.relations == ()
    assert len(unit) == comb(n, 3) and tuple(gm.symbol) == tuple(unit)
    assert gm == GradedMap(n, comb(n, 2), unit)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_cyclic_sum_symbol_builds_each_triple_once_on_read(n):
    # random reads build exactly the triples read, each once, and agree with
    # a full iteration of another copy and with the tuple symbol of the
    # Koszul differential
    symbol = delta3(n).symbol
    reference = koszul_map(n, 3).symbol
    assert len(symbol) == len(reference) == comb(n, 3)
    rng = random.Random(n)
    read = [rng.randrange(len(symbol)) for _ in range(10)]
    for j in read:
        assert symbol[j] == reference[j]
        assert symbol[j] is symbol[j]
    assert sorted(symbol._built) == sorted(set(read))
    assert symbol[-1] == reference[-1] and symbol[2:5] == reference[2:5]
    with pytest.raises(IndexError):
        symbol[len(symbol)]
    assert tuple(delta3(n).symbol) == reference
    # equal to the tuple both ways round, and hashed as it, equal or not
    assert symbol == reference and reference == symbol and hash(symbol) == hash(reference)
    assert symbol != reference[:-1] and symbol != list(reference)
    # what is kept is bounded by the number of triples
    assert sorted(symbol._built) == list(range(comb(n, 3)))


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


def test_nabla_maps_share_the_cyclic_block():
    # the cyclic sum depends on n alone: every nabla on n generators reads
    # one symbol, so the terms of a triple are built once per n
    a = nabla(LiePresentation.make(4, [{(0, 1): 1}]))
    b = nabla(LiePresentation.make(4, []))
    assert a.symbol is b.symbol and a.symbol == delta3(4).symbol
    assert nabla(LiePresentation.make(3, [])).symbol == delta3(3).symbol


def test_equal_presentations_give_equal_nabla_maps():
    # two presentations made apart, one with its relations scaled and
    # reordered: their relations are one tuple of values, so the maps are
    # equal and hash alike, and other relations give another map
    rels = [{(0, 1): Fraction(1, 2), (2, 3): -1}, {(0, 2): 2, (1, 3): Fraction(2, 3)}]
    p = LiePresentation.make(4, rels)
    p2 = LiePresentation.make(4, [{k: 3 * c for k, c in r.items()} for r in rels[::-1]])
    assert nabla(p) is not nabla(p2)
    assert nabla(p) == nabla(p2) and hash(nabla(p)) == hash(nabla(p2))
    other = LiePresentation.make(4, rels[:1])
    assert nabla(p) != nabla(other) and nabla(p).symbol is nabla(other).symbol


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


def test_property_nabla_bar_matches_composition():
    # the one-pass cyclic sum through beta's integer columns against
    # koszul_map(n, 3) composed with beta's Fraction columns term by term, and
    # each degree's matrix against 1 (x) beta times the matrix of delta3, on
    # presentations with n <= 6 and coefficients p/r, |p| <= 3, 1 <= r <= 3
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coefficient = st.one_of(st.just(0), st.builds(Fraction, st.integers(-3, 3),
                                                  st.integers(1, 3)))

    def presentations(n):
        pairs = wedge2_pairs(n)
        relation = st.lists(coefficient, min_size=len(pairs), max_size=len(pairs))
        return st.lists(relation, max_size=4).map(lambda rels: LiePresentation.make(
            n, [{pair: c for pair, c in zip(pairs, r) if c} for r in rels]))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.integers(1, 6).flatmap(presentations))
    def check(p):
        nb, n = nabla_bar(p), p.dim_v
        assert nb == composed_nabla_bar(p)
        beta, d3 = beta_matrix(p), delta3(n)
        for q in range(3):
            s = sym_dim(n, q)
            beta_q = RationalMatrix(s * beta.rows, s * beta.cols, {
                (m * beta.rows + r, m * beta.cols + k): x
                for m in range(s) for (r, k), x in beta.entries.items()})
            assert nb.instantiate(q) == beta_q.matmul(d3.instantiate(q))

    check()


def test_nabla_bar_full_relations_zero_target():
    p = LiePresentation.make(3, full_relations(3))
    nb = nabla_bar(p)
    assert nb.target_dim == 0
    for q in range(3):
        assert coker_dims(nb, q)[q] == 0


def _span_rows(eb):
    # the stored rows with their values and key order
    return [(lead, list(row.items())) for lead, row in eb.rows.items()]


def test_property_seeded_span_matches_plain_elimination():
    # matrix(q) of nabla holds the cyclic-sum columns alone, and starts its
    # span from its relations, shifted for each monomial of Sym_q; nabla-bar
    # has no relations.  Either way the rows, values and key order alike,
    # are those that adding every column of the whole matrix in order
    # stores: for nabla the oracle full_nabla_matrix, every relation column
    # of every monomial and then the cyclic sum, for nabla-bar
    # instantiate(q).  On presentations with n <= 6 and up to 4 relations
    # (none included), int or p/r coefficients, at q <= 3
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coefficient = st.one_of(st.just(0), st.integers(-2, 2),
                            st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))

    def presentations(n):
        pairs = wedge2_pairs(n)
        relation = st.lists(coefficient, min_size=len(pairs), max_size=len(pairs))
        return st.lists(relation, max_size=4).map(lambda rels: LiePresentation.make(
            n, [{pair: c for pair, c in zip(pairs, r) if c} for r in rels]))

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.integers(1, 6).flatmap(presentations), st.integers(0, 3))
    def check(p, q):
        nb = nabla_bar(p)
        for gm, whole in ((nabla(p), full_nabla_matrix(p, q)), (nb, nb.instantiate(q))):
            m = gm.matrix(q)
            plain = echelon_basis(whole.numerator_columns())
            assert _span_rows(m.column_span()) == _span_rows(plain)
            assert m.rank() == plain.rank

    check()


# relations whose rows are stored against lead order ((1, 2) before (0, 1))
# and whose reduced echelon form has a fraction (1/2): the lead-2 row is
# scaled by 2 to be primitive
RELATIONS_OUT_OF_LEAD_ORDER = [{(1, 2): 1}, {(0, 1): 2, (0, 2): 1}]


def test_property_relation_block_is_the_rref_numerators_over_their_lcm():
    # nabla's relations, read off the stored rows of relation_span(),
    # against the reduced echelon relations, each brought over the lcm of
    # its denominators through the entry constructor, rows, values and key
    # order alike, on presentations with n <= 6 and up to 4 relations (none
    # included), int or p/r coefficients
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coefficient = st.one_of(st.just(0), st.integers(-2, 2),
                            st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))

    def presentations(n):
        pairs = wedge2_pairs(n)
        relation = st.lists(coefficient, min_size=len(pairs), max_size=len(pairs))
        return st.lists(relation, max_size=4).map(lambda rels: LiePresentation.make(
            n, [{pair: c for pair, c in zip(pairs, r) if c} for r in rels]))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.integers(1, 6).flatmap(presentations))
    @hypothesis.example(LiePresentation.make(3, RELATIONS_OUT_OF_LEAD_ORDER))
    @hypothesis.example(LiePresentation.make(4, []))
    def check(p):
        relations = nabla(p).relations
        assert relations == rref_relations(p)
        assert all(type(c) is int for row in relations for _k, c in row)

    check()


@pytest.mark.parametrize("gm", [
    nabla(LiePresentation.make(3, [{(0, 1): Fraction(1, 2), (1, 2): Fraction(-2, 3)}])),
    nabla(LiePresentation.make(4, [])),
    delta3(2),                                         # no triple: the zero map
    nabla_bar(LiePresentation.make(3, [{(i, j): 1} for i in range(3)
                                       for j in range(i + 1, 3)])),   # no target row
    # an empty symbol and one whose terms cancel give empty columns
    GradedMap(2, 2, (((0, 0, 1), (0, 0, -1)), (), ((1, 1, 2), (0, 0, 1)))),
    # even numerators over den 2: from_integers divides, and transposes
    GradedMap(2, 2, (((0, 0, 2), (1, 1, -4)),), 2),
])
def test_instantiated_columns_are_the_transpose_of_num(gm):
    for q in range(3):
        m = gm.instantiate(q)
        cols = m.numerator_columns()
        assert [list(c.items()) for c in cols] == num_columns(m)
        assert all(c is EMPTY for c in cols if not c)
        assert m.numerator_columns() is cols


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
    gm = nabla_bar(p)
    n, size = gm.base_dim, len(gm.symbol)
    for q in (1, 2):
        cols_q = fraction_columns(gm.instantiate(q))
        cols_next = fraction_columns(gm.instantiate(q + 1))
        tgt_now = monomials(n, q)
        tgt_idx = monomial_index(n, q + 1)
        src, src_next = monomials(n, q - 1), monomial_index(n, q)
        for _ in range(8):
            mi, j, var = rng.randrange(len(src)), rng.randrange(size), rng.randrange(n)
            up = list(src[mi])
            up[var] += 1
            expected = {}
            for row, c in cols_q[mi * size + j].items():
                tm = list(tgt_now[row // gm.target_dim])
                tm[var] += 1
                expected[tgt_idx[tuple(tm)] * gm.target_dim + row % gm.target_dim] = c
            assert cols_next[src_next[tuple(up)] * size + j] == expected


def test_monotone_vanishing_and_nilpotence_order():
    # the cokernel is generated in degree 0, so once a degree vanishes every
    # later one does: the first zero is the nilpotence order
    p = LiePresentation.make(3, full_relations(3))
    assert coker_dims(nabla(p), 4).dims == (0, 0, 0, 0, 0)
    pf = LiePresentation.make(2, [])
    assert coker_dims(nabla(pf), 5).dims == (1, 2, 3, 4, 5, 6)
    # Heisenberg-style: order 1
    rels = [{(0, 1): 1}, {(0, 3): 1}, {(1, 2): 1}, {(2, 3): 1},
            {(0, 2): 1, (1, 3): -1}]
    ph = LiePresentation.make(4, rels)
    assert coker_dims(nabla(ph), 3).dims == (1, 0, 0, 0)


def _plain_coker(gm, max_degree):
    # the independent oracle: the full instantiated matrix, no weights
    return tuple(gm.target_dim_in_degree(q) - gm.instantiate(q).rank()
                 for q in range(max_degree + 1))


def _unit(n, i):
    return tuple(1 if t == i else 0 for t in range(n))


def _pair_weights(n):
    return [tuple(a + b for a, b in zip(_unit(n, i), _unit(n, j)))
            for i, j in wedge2_pairs(n)]


def test_weighted_rank_agrees_with_plain():
    # the coordinate-torus weights make the cyclic-sum map weight
    # homogeneous; block-diagonal ranks must reproduce the plain ranks
    for n in (3, 4):
        gm = delta3(n)
        base_w = [_unit(n, i) for i in range(n)]
        weighted = coker_dims(gm, 4, weights=(base_w, _pair_weights(n)))
        assert weighted.dims == _plain_coker(gm, 4)


@pytest.mark.parametrize("n,rels,expected", [
    # nabla_bar sends e0^e1^e2 to zero: all three of its brackets lie in R
    (4, [{(0, 1): 1}, {(0, 2): 1}, {(1, 2): 1}], (3, 9, 19, 34)),
    # R = wedge^2 V: nabla_bar has target 0 and every symbol is empty
    (3, full_relations(3), (0, 0, 0, 0)),
])
def test_weighted_rank_skips_empty_symbols(n, rels, expected):
    p = LiePresentation.make(n, rels)
    base_w = [_unit(n, i) for i in range(n)]
    pair_w = _pair_weights(n)
    bar_w = [pair_w[k] for k in quotient_pairs(p)]
    nb = nabla_bar(p)
    assert any(terms == () for terms in nb.symbol)
    # weights need a map with no relations, so nabla is ranked plainly only,
    # against the whole matrix of the oracle
    plain = tuple(nabla(p).target_dim_in_degree(q) - full_nabla_matrix(p, q).rank()
                  for q in range(4))
    assert coker_dims(nabla(p), 3).dims == plain == expected
    weighted = coker_dims(nb, 3, weights=(base_w, bar_w))
    assert weighted.dims == _plain_coker(nb, 3) == expected


def test_weighted_rank_builds_only_the_symbols_it_ranks():
    # with each coordinate-torus weight its own orbit every bucket is ranked,
    # so every nonempty symbol is built, and none of the empty ones
    p = LiePresentation.make(4, [{(0, 1): 1}, {(0, 2): 1}, {(1, 2): 1}])
    gm = nabla_bar(p)
    base_w = [_unit(4, i) for i in range(4)]
    bar_w = [_pair_weights(4)[k] for k in quotient_pairs(p)]
    coker_dims(gm, 1, weights=(base_w, bar_w))
    symbol = gm.symbol
    nonempty = [j for j, terms in enumerate(composed_nabla_bar(p).symbol) if terms]
    assert sorted(symbol._built) == nonempty == [1, 2, 3]


def test_weight_homogeneity_violation_detected():
    # e0^e1^e2 |-> x0 e12 + x1 e20 + x2 e01 lands on weights 1, 2 and 4
    gm = delta3(3)
    with pytest.raises(InternalInconsistencyError, match="symbol of generator 0 "):
        coker_dims(gm, 2, weights=([(1,), (2,), (4,)], [(0,)] * gm.target_dim))


def test_weights_are_always_checked():
    # a generator's weight is its triple's, certified on the cyclic sum's f
    # (test_weight_homogeneity_violation_detected); any other map is refused
    # weights, even under a grading it preserves: a symbol given as tuples,
    # and nabla, whose cyclic sum and relation e0^e1 (weight 3) are both
    # homogeneous here but whose relations the buckets would leave out
    base_w = [(1,), (2,), (4,)]
    for gm, target_w in ((koszul_map(3, 2), base_w),
                         (nabla(LiePresentation.make(3, [{(0, 1): 1}])),
                          [(3,), (5,), (6,)])):
        with pytest.raises(ValueError, match="a cyclic sum with no relations"):
            coker_dims(gm, 3, weights=(base_w, target_w))


def test_weyl_orbit_rank_agrees_with_plain():
    # the Koszul map is GL(H)-equivariant, so sp-equivariant for the weights
    # of H = C^{2g}; one bucket per Weyl orbit must give the plain ranks
    for g, max_degree in ((2, 3), (3, 2)):
        spec = LieAlgebraSpec(g)
        h_w = spec.defining_weights()
        gm = delta3(2 * g)
        pair_w = [tuple(map(add, h_w[i], h_w[j])) for i, j in wedge2_pairs(2 * g)]
        orbit = coker_dims(gm, max_degree, weights=(h_w, pair_w), weyl=spec)
        assert orbit.dims == _plain_coker(gm, max_degree)


def test_weyl_orbit_rank_refuses_weights_off_a_module():
    # coordinate-torus weights are not closed under sign changes: the orbit
    # of (1, 0, 0) has six weights but only three buckets hold columns
    gm = delta3(3)
    base_w = [_unit(3, i) for i in range(3)]
    with pytest.raises(InternalInconsistencyError, match="Weyl orbit"):
        coker_dims(gm, 1, weights=(base_w, _pair_weights(3)), weyl=LieAlgebraSpec(3))
    with pytest.raises(ValueError, match="weyl needs weights"):
        coker_dims(gm, 1, weyl=LieAlgebraSpec(3))


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


def test_coker_dims_and_action_share_each_degree(monkeypatch):
    p = LiePresentation.make(4, [{(0, 1): Fraction(1, 2), (2, 3): -1}])
    gm = nabla(p)
    built = []
    instantiate = GradedMap.instantiate
    monkeypatch.setattr(GradedMap, "instantiate",
                        lambda self, q: built.append(q) or instantiate(self, q))
    dims = coker_dims(gm, 2)
    total, mats = coker_multiplication_action(gm, 2)
    # one instantiate per degree: the relations are seeded, not instantiated
    once = [0, 1, 2]
    assert built == once and sorted(gm._matrices) == [0, 1, 2]
    assert total == sum(dims.dims)
    # the cache is no part of the map's value, and changes no answer
    fresh = nabla(p)
    assert not fresh._matrices and fresh == gm and hash(fresh) == hash(gm)
    assert coker_multiplication_action(fresh, 2) == (total, mats)
    assert built == once + once
    # the shared matrix holds the cyclic-sum columns alone, and its span
    # is that of every column of the whole matrix (full_nabla_matrix): the
    # action's quotient has inter-reduced it, so the reduced echelon forms
    # are compared
    for q in range(3):
        m = gm.matrix(q)
        assert m == instantiate(gm, q)
        plain = echelon_basis(full_nabla_matrix(p, q).numerator_columns())
        assert m.column_span().vectors() == plain.vectors() and m.rank() == plain.rank


def test_instantiate_brings_blocks_over_one_denominator():
    # the relation is stored with lead 1 as (1, -4/3), so the class of e0^e1
    # in wedge^2 V / R is 4/3 that of e1^e2: nabla-bar's symbol is over 3,
    # and the degree-q matrix, one block of columns per monomial of
    # Sym_{q-1}, holds every block over that one denominator
    p = LiePresentation.make(3, [{(0, 1): Fraction(1, 2), (1, 2): Fraction(-2, 3)}])
    gm = nabla_bar(p)
    assert gm.den == 3
    for q in range(3):
        m = gm.instantiate(q)
        expected = {}
        tgt_idx = monomial_index(3, q)
        for col, (mono, j) in enumerate(column_keys(gm, q)):
            for row, c in gm.column(tgt_idx, mono, j).items():
                if c:
                    expected[(row, col)] = Fraction(c, gm.den)
        assert list(m.entries.items()) == list(expected.items())
