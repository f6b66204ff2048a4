import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from infalex.alex_module import coker_dims, nabla, nabla_bar
from infalex.errors import BudgetExceededError
from infalex.quad_lie import bb_direct
from infalex.johnson import (SymplecticSpace, build_q,
                             central_z_check, decompose_wedge2_V,
                             equivariance_defect, johnson_context,
                             johnson_module_dims)
from infalex.rep_semisimple import HighestWeight, act_vec, isotypic_projection, weyl_dim

# sha256 of the repr of each context field, so values, dict key order and
# container types all count; recorded before the single-pass context build.
# Re-record after a deliberate change with
#   {g: _context_digest(johnson_context(g)) for g in (3, 4)}
CONTEXT_GOLDEN = Path(__file__).parent / "golden" / "johnson_context.json"
CONTEXT_FIELDS = ("r_basis", "z_vec")


def _context_digest(ctx) -> dict[str, str]:
    return {f: hashlib.sha256(repr(getattr(ctx, f)).encode()).hexdigest()
            for f in CONTEXT_FIELDS}


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
    # projecting onto Q each term contributes one variable, so the set of
    # variables appearing in any symbol entry is exactly the triple
    ctx = johnson_context(3)
    gm = ctx.q_map()
    tri = list(itertools.combinations(range(ctx.V.dimension), 3))
    rng = random.Random(0)
    for _ in range(10):
        j = rng.randrange(len(tri))
        variables = {i for (i, _k, _c) in gm.blocks[0].symbol[j]}
        assert variables <= set(tri[j])


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
    weighted = coker_dims(gm, 1, weights=ctx.weight_data())
    plain = coker_dims(gm, 1)
    assert weighted.dims == plain.dims


def test_coker_q_matches_presentation_route_g3():
    # q is nabla-bar of the presentation with relations R + C z; nabla
    # presents the same invariant on Sym (x) wedge^2 V without beta
    ctx = johnson_context(3)
    pres = ctx.presentation_with_z()
    assert pres.dim_v == 14
    assert pres.num_relations() == 1     # R = 0 at genus 3, only z
    nb = nabla(pres)
    assert nb.target_dim == 91
    dims_pres = coker_dims(nb, 1)
    rep = johnson_module_dims(3, 1)
    assert tuple(dims_pres.dims) == rep.coker_q


@pytest.mark.parametrize("g", [3, 4])
def test_context_matches_recorded_digest(g):
    recorded = json.loads(CONTEXT_GOLDEN.read_text())[str(g)]
    assert _context_digest(johnson_context(g)) == recorded


def test_r_basis_is_kernel_of_oracle_projections_g4():
    # R is zero at genus 3, so genus 4 is the first case with an R path
    ctx = johnson_context(4)
    kw = {"blocks": ctx.blocks, "constituents": ctx.constituents}
    p_q = isotypic_projection(ctx.W2, ctx.hw_two_l2, **kw)
    p_z = isotypic_projection(ctx.W2, ctx.hw_zero, **kw)
    kernel = (p_q + p_z).kernel_basis()
    assert ({frozenset(v.items()) for v in ctx.r_basis}
            == {frozenset(v.items()) for v in kernel})
    assert len(kernel) == ctx.r_dim == 819
    # the projection onto Q kills every relation of L(V)/(R + C z), and z
    # is fixed by its own projection
    q_cols, z_cols = p_q.column_vectors(), p_z.column_vectors()
    for v in ctx.presentation_with_z().relations:
        assert act_vec(q_cols, v) == {}
    assert act_vec(z_cols, ctx.z_vec) == ctx.z_vec


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
    # the unweighted oracle: plain elimination of the full degree-1 matrix
    # of q = nabla-bar(L(V)/(R + C z)), against its weighted block ranks
    ctx = johnson_context(4)
    pres = ctx.presentation_with_z()
    assert pres.num_relations() == 820
    dims_pres = coker_dims(nabla_bar(pres), 1)
    rep = johnson_module_dims(4, 1)
    assert tuple(dims_pres.dims) == rep.coker_q == (308, 1232)


@pytest.mark.slow
def test_coker_q_matches_nabla_route_g4():
    # independent matrix: nabla keeps the relations as a source block and
    # targets Sym (x) wedge^2 V, so it never uses beta; it is equivariant
    # too, since its relations are weight vectors
    ctx = johnson_context(4)
    pres = ctx.presentation_with_z()
    base_w, (tri_w,), _target_w = ctx.weight_data()
    rel_w = [ctx.W2.weights[min(v)] for v in pres.relations]
    weights = (base_w, [rel_w, tri_w], ctx.W2.weights)
    dims_nabla = coker_dims(nabla(pres), 1, weights=weights)
    assert tuple(dims_nabla.dims) == johnson_module_dims(4, 1).coker_q
