import itertools
import random
from fractions import Fraction

import pytest

from infalex.alex_module import coker_dims, nabla_bar
from infalex.errors import BudgetExceededError
from infalex.quad_lie import bb_direct
from infalex.johnson import (SymplecticSpace, build_q,
                             central_z_check, decompose_wedge2_V,
                             equivariance_defect, johnson_context,
                             johnson_module_dims)
from infalex.rep_semisimple import HighestWeight, act_vec, weyl_dim


def test_symplectic_space():
    s = SymplecticSpace.make(3)
    assert len(s.basis) == 6
    t = s.theta
    assert t.transpose() == t.scale(-1)
    assert t.rank() == 6
    assert t.entry(0, 3) == 1


def test_genus_floor():
    with pytest.raises(ValueError):
        SymplecticSpace.make(2)
    with pytest.raises(ValueError):
        johnson_context(2)


def test_decompose_g3():
    parts = decompose_wedge2_V(3)
    assert parts[0] == ("R-complement", 0)
    assert parts[1] == (HighestWeight((0, 2, 0)), 90)
    assert parts[2] == (HighestWeight((0, 0, 0)), 1)
    assert sum(d for _l, d in parts) == 91


def test_dim_v_formula():
    from math import comb
    for g in (3, 4):
        ctx = johnson_context(g)
        assert ctx.V.dimension == comb(2 * g, 3) - 2 * g


def test_build_q_shape_g3():
    gm = build_q(3)
    block = gm.blocks[0]
    assert block.num_generators == 364    # C(14, 3)
    assert gm.target_dim == 90
    assert block.shift == 1


def test_symbol_has_three_terms_before_projection():
    # on a decomposable triple the cyclic sum has exactly 3 terms; after
    # composing with pi each term contributes one variable, so the set of
    # variables appearing in any symbol entry is exactly the triple
    ctx = johnson_context(3)
    gm = ctx.q_map()
    tri = list(itertools.combinations(range(ctx.V.dimension), 3))
    rng = random.Random(0)
    for _ in range(10):
        j = rng.randrange(len(tri))
        variables = {i for (i, _k, _c) in gm.blocks[0].symbol[j]}
        assert variables <= set(tri[j])


def test_pi_column_antisymmetry():
    ctx = johnson_context(3)
    col = ctx.pi_column(2, 5)
    colr = ctx.pi_column(5, 2)
    assert colr == {k: -c for k, c in col.items()}
    assert ctx.pi_column(3, 3) == {}


def test_q_coordinates_reconstruct():
    ctx = johnson_context(3)
    rng = random.Random(1)
    from infalex.exact_linalg import axpy
    for _ in range(5):
        coeffs = {rng.randrange(ctx.q_dim): Fraction(rng.randint(-3, 3)) for _ in range(4)}
        ambient = {}
        for k, c in coeffs.items():
            if c:
                axpy(ambient, c, ctx.q_basis[k])
        got = ctx.q_coordinates(ambient)
        assert got == {k: c for k, c in coeffs.items() if c}


def test_johnson_dims_g3():
    rep = johnson_module_dims(3, 1)
    assert rep.v_dim == 14
    assert rep.q_dim == 90
    assert rep.coker_q[0] == 90
    assert rep.m_dims[0] == 91
    assert rep.wedge2_parts == (0, 90, 1)
    doc = rep.to_json_dict()
    assert doc["dims"]["wedge2V"] == [0, 90, 1]
    assert doc["M"][0] == doc["coker_q"][0] + 1


def test_weighted_rank_matches_plain_instantiation_g3():
    ctx = johnson_context(3)
    gm = ctx.q_map()
    base_w, block_w, target_w = ctx.weight_data()
    weighted = coker_dims(gm, 1, base_weights=base_w, block_weights=block_w,
                          target_weights=target_w)
    plain = coker_dims(gm, 1)
    assert weighted.dims == plain.dims


def test_coker_q_matches_presentation_route_g3():
    # the quadratic presentation with relations R + C z has the same
    # graded invariant as coker(q)
    ctx = johnson_context(3)
    pres = ctx.presentation_with_z()
    assert pres.dim_v == 14
    assert pres.num_relations() == 1     # R = 0 at genus 3, only z
    nb = nabla_bar(pres)
    assert nb.target_dim == 90
    dims_pres = coker_dims(nb, 1)
    rep = johnson_module_dims(3, 1)
    assert tuple(dims_pres.dims) == rep.coker_q


def test_pi_restricted_to_Q_is_identity():
    ctx = johnson_context(3)
    from infalex.exact_linalg import axpy
    for r in range(0, ctx.q_dim, 7):
        coords = {}
        for amb, c in ctx.q_basis[r].items():
            axpy(coords, c, ctx.pi_cols[amb])
        assert coords == {r: Fraction(1)}


def test_coker_q_degree1_matches_bb_direct_g3():
    # at genus 3 the auxiliary presentation is the free Lie algebra on 14
    # generators modulo the single relation z, so the degree-1 value is
    # dim L_3(C^14) - rank [z, V] = 910 - 14
    ctx = johnson_context(3)
    pres = ctx.presentation_with_z()
    dim, _basis = bb_direct(pres, 1)
    rep = johnson_module_dims(3, 1)
    assert rep.coker_q[1] == dim == 896


@pytest.mark.slow
def test_coker_q_degree2_matches_bb_direct_g3():
    ctx = johnson_context(3)
    pres = ctx.presentation_with_z()
    dim, _basis = bb_direct(pres, 2)
    rep = johnson_module_dims(3, 2)
    assert rep.coker_q == (90, 896, 5355)
    assert dim == 5355


def test_degree0_equals_weyl_dim():
    for g in (3, 4):
        rep = johnson_module_dims(g, 0)
        spec_hw = HighestWeight((0, 2) + (0,) * (g - 2))
        from infalex.rep_semisimple import LieAlgebraSpec
        assert rep.coker_q[0] == weyl_dim(LieAlgebraSpec("sp", g), spec_hw)
        assert rep.m_dims[0] == rep.coker_q[0] + 1


def test_equivariance_g3_random_pairs():
    ctx = johnson_context(3)
    labels = [lbl for lbl, _ in ctx.spec.algebra_basis()]
    triples = list(itertools.combinations(range(ctx.V.dimension), 3))
    rng = random.Random(7)
    n = ctx.V.dimension
    for _ in range(20):
        label = rng.choice(labels)
        svec = {}
        for _ in range(rng.randint(1, 3)):
            mono = [0] * n
            for _ in range(rng.randint(0, 2)):
                mono[rng.randrange(n)] += 1
            svec[(tuple(mono), rng.choice(triples))] = Fraction(rng.randint(-3, 3))
        svec = {k: v for k, v in svec.items() if v}
        assert equivariance_defect(ctx, label, svec) == {}


def test_z_vector_is_invariant():
    ctx = johnson_context(3)
    for label, _ in ctx.spec.algebra_basis():
        assert act_vec(ctx.W2.actions[label], ctx.z_vec) == {}


def test_central_z_g3_literal_false():
    # at genus 3 the relation space is zero, the quotient is a free Lie
    # algebra, and z is not central: the membership check reports that fact
    assert central_z_check(3) is False


def test_budget_refusals():
    with pytest.raises(BudgetExceededError):
        johnson_module_dims(5, 0)
    with pytest.raises(BudgetExceededError):
        johnson_module_dims(3, 3)
    with pytest.raises(BudgetExceededError):
        central_z_check(4)


@pytest.mark.slow
def test_decompose_g4():
    parts = decompose_wedge2_V(4)
    dims = [d for _l, d in parts]
    assert sum(dims) == 1128
    assert parts[1] == (HighestWeight((0, 2, 0, 0)), 308)
    assert parts[2][1] == 1
    assert parts[0] == ("R-complement", 819)


@pytest.mark.slow
def test_central_z_g4_membership_holds():
    # with the large relation space at genus 4 the brackets [z, e_i] all land
    # in the degree-3 piece of the ideal
    assert central_z_check(4, allow_large=True) is True


@pytest.mark.slow
def test_coker_q_matches_presentation_route_g4():
    # independent route: plain elimination over the auxiliary presentation
    # with its row-echelon quotient basis, against the weighted block ranks
    # of the eigenspace realization
    ctx = johnson_context(4)
    pres = ctx.presentation_with_z()
    assert pres.num_relations() == 820
    dims_pres = coker_dims(nabla_bar(pres), 1)
    rep = johnson_module_dims(4, 1)
    assert tuple(dims_pres.dims) == rep.coker_q == (308, 1232)
