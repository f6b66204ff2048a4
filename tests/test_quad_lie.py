import json
import random
from math import comb

import pytest

from infalex.exact_linalg import RationalMatrix
from infalex.free_lie import lyndon_words, witt_dims
from infalex.quad_lie import LiePresentation, _ideal_echelon, bb_direct, wedge2_pairs

from module_builders import all_pairs_bb_direct, beta_matrix, graded_dims, plain_ideal_echelon


def full_relations(n):
    return [{(i, j): 1} for i in range(n) for j in range(i + 1, n)]


def test_ideal_free_case_zero():
    p = LiePresentation.make(3, [])
    for q in range(2, 5):
        assert _ideal_echelon(p, q).rank == 0


def test_ideal_full_relations_abelian():
    p = LiePresentation.make(3, full_relations(3))
    dims = graded_dims(p, 5)
    assert dims.dims == (3, 0, 0, 0, 0)
    for q in range(2, 5):
        # full in every degree
        assert _ideal_echelon(p, q).rank == len(lyndon_words(3, q))


def test_ideal_one_relation_degree2():
    p = LiePresentation.make(3, [{(0, 1): 1}])
    assert graded_dims(p, 2)[2] == 2


def test_graded_dims_free_matches_witt():
    for n in (2, 3):
        p = LiePresentation.make(n, [])
        assert graded_dims(p, 6).dims == witt_dims(n, 6).dims


def test_ideal_monotone_under_larger_R():
    rng = random.Random(4)
    n = 3
    for _ in range(5):
        rels = []
        for _ in range(3):
            rel = {(i, j): rng.randint(-2, 2) for i in range(n) for j in range(i + 1, n)}
            rel = {k: v for k, v in rel.items() if v}
            if rel:
                rels.append(rel)
        for cut in range(len(rels)):
            small = LiePresentation.make(n, rels[:cut])
            big = LiePresentation.make(n, rels[:cut + 1])
            for q in (2, 3, 4):
                assert _ideal_echelon(small, q).rank <= _ideal_echelon(big, q).rank


def test_beta_free_is_identity():
    p = LiePresentation.make(3, [])
    assert beta_matrix(p) == RationalMatrix.identity(3)


def test_beta_full_relations_zero_target():
    p = LiePresentation.make(3, full_relations(3))
    b = beta_matrix(p)
    assert b.rows == 0 and b.cols == 3


def test_beta_kernel_is_R():
    p = LiePresentation.make(3, [{(0, 1): 1}])
    b = beta_matrix(p)
    assert (b.rows, b.cols) == (2, 3)
    ks = b.kernel_basis()
    assert len(ks) == 1
    # kernel spans exactly the relation e0 ^ e1 (pair index 0)
    assert set(ks[0]) == {0}


def test_bb_direct_free_chen_values():
    p2 = LiePresentation.make(2, [])
    assert bb_direct(p2, 0)[0] == 1
    assert bb_direct(p2, 1)[0] == 2
    for n, top in ((3, 2), (4, 4)):
        p = LiePresentation.make(n, [])
        for q in range(top + 1):
            assert bb_direct(p, q)[0] == comb(q + n, q + 2) * (q + 1), (n, q)


def test_bb_direct_quotient_words_match_all_pairs_n4_q4():
    # one fixed draw at the largest size, where the cut drops the most pairs
    rng = random.Random(22)
    p = LiePresentation.make(4, [{(i, j): c for i in range(4) for j in range(i + 1, 4)
                                  if (c := rng.randint(-2, 2))} for _ in range(2)])
    assert p.num_relations() == 2
    for q in range(5):
        assert bb_direct(p, q) == all_pairs_bb_direct(p, q), q


def _presentations(st, n, max_relations):
    """Presentations on n generators with up to max_relations relations,
    coefficients in [-2, 2]."""
    pairs = wedge2_pairs(n)
    relation = st.lists(st.integers(-2, 2), min_size=len(pairs), max_size=len(pairs))
    return st.lists(relation, max_size=max_relations).map(lambda rels: LiePresentation.make(
        n, [{pair: c for pair, c in zip(pairs, r) if c} for r in rels]))


def test_property_bb_direct_quotient_words_match_all_pairs():
    # bracketing only the free words of ideal(R)_a and ideal(R)_b spans the
    # same quotient as bracketing every pair: same dimension, same basis words
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.sampled_from((2, 3, 4)).flatmap(lambda n: _presentations(st, n, 4)))
    def check(p):
        for q in range(5 if p.dim_v <= 3 else 4):
            assert bb_direct(p, q) == all_pairs_bb_direct(p, q), q

    check()


def test_property_ideal_echelon_matches_plain_elimination():
    # a degree that fills L_{q-1} gives all of L_q without elimination; the
    # ideal is the one that eliminating every ad image gives, in every degree
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.sampled_from((2, 3, 4)).flatmap(lambda n: _presentations(st, n, 6)))
    def check(p):
        for q in range(2, (6 if p.dim_v <= 3 else 4) + 1):
            eb, ref = _ideal_echelon(p, q), plain_ideal_echelon(p, q)
            size = len(lyndon_words(p.dim_v, q))
            assert eb.rank == ref.rank, q
            assert eb.free(size) == ref.free(size), q
            assert eb.vectors() == ref.vectors(), q

    check()


def test_bb_direct_abelian_zero(monkeypatch):
    # R = wedge^2 V fills L_2, so every higher degree of the ideal is all of
    # L_q and no ad_{e_k} image is taken
    calls = []
    matvec = RationalMatrix.matvec
    monkeypatch.setattr(RationalMatrix, "matvec",
                        lambda self, v: calls.append(1) or matvec(self, v))
    for rels in (full_relations(3), [{(0, 1): 1, (1, 2): 2}, {(0, 2): -1}, {(1, 2): 3}]):
        p = LiePresentation.make(3, rels)
        for q in range(5):
            assert bb_direct(p, q) == (0, []), q
    assert not calls


def test_bb_vanishing_persists():
    # Heisenberg on 4 generators: one-dimensional center, so the invariant
    # is (1, 0, 0, ...) and vanishing persists
    rels = [{(0, 1): 1}, {(0, 3): 1}, {(1, 2): 1}, {(2, 3): 1},
            {(0, 2): 1, (1, 3): -1}]
    p = LiePresentation.make(4, rels)
    dims = [bb_direct(p, q)[0] for q in range(4)]
    assert dims[0] == 1
    assert dims[1:] == [0, 0, 0]


def test_quotient_basis_words_complement():
    # in degree 0 bb_direct reads its basis words off the quotient L_2 / R
    p = LiePresentation.make(3, [{(0, 1): 1}])
    dim, words = bb_direct(p, 0)
    assert dim == len(words) == 2
    assert words == [(0, 2), (1, 2)]


def test_graded_piece_dimensions():
    # the free positions of the ideal echelon index a basis of the quotient
    p = LiePresentation.make(3, [{(0, 1): 1}])
    for q in (2, 3):
        words = lyndon_words(3, q)
        assert len(_ideal_echelon(p, q).free(len(words))) == graded_dims(p, q)[q]
    # degree 3: the 8 free dims less [e_k, [e_0, e_1]] for k = 0, 1, 2
    assert graded_dims(p, 3).dims == (3, 2, 5)


def test_json_ingestion():
    doc = {"dim_v": 3,
           "relations": [[{"i": 0, "j": 1, "c": "1/2"}, {"i": 1, "j": 2, "c": "-1"}]]}
    p = LiePresentation.from_json(json.dumps(doc))
    assert p.dim_v == 3
    assert p.num_relations() == 1
    # ingestion normalizes to echelon form with leading coefficient 1
    (rel,) = p.relations
    lead = min(rel)
    assert rel[lead] == 1


def test_relation_normalization_antisymmetric_keys():
    p = LiePresentation.make(3, [{(1, 0): 1}])   # means e1 ^ e0 = -(e0 ^ e1)
    q = LiePresentation.make(3, [{(0, 1): 1}])
    assert p.relations == q.relations


def test_dependent_relations_reduced():
    p = LiePresentation.make(3, [{(0, 1): 1}, {(0, 1): 2}])
    assert p.num_relations() == 1


def test_wedge2_pairs_order():
    assert wedge2_pairs(3) == [(0, 1), (0, 2), (1, 2)]
