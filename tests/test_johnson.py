import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from infalex.alex_module import (_generator_weights, _weight_buckets, coker_dims,
                                 monomial_index, nabla, nabla_bar)
from infalex.errors import BudgetExceededError, InternalInconsistencyError
from infalex.exact_linalg import EchelonBasis
from infalex.quad_lie import bb_direct
from infalex.johnson import (JohnsonContext, central_z_check, decompose_wedge2_V,
                             equivariance_defect, johnson_context,
                             johnson_module_dims)
from infalex.rep_semisimple import (HighestWeight, act_vec, casimir_blocks,
                                    highest_weight_vectors, isotypic_projection, weyl_dim)

from module_builders import composed_nabla_bar, weyl_orbit

# sha256 of the repr of each context field, so values, dict key order and
# container types all count; recorded before the single-pass context build.
# Re-record after a deliberate change with
#   {g: _context_digest(johnson_context(g)) for g in (3, 4)}
CONTEXT_GOLDEN = Path(__file__).parent / "golden" / "johnson_context.json"
CONTEXT_FIELDS = ("r_basis", "z_vec")


def _context_digest(ctx) -> dict[str, str]:
    return {f: hashlib.sha256(repr(getattr(ctx, f)).encode()).hexdigest()
            for f in CONTEXT_FIELDS}


def test_genus_floor():
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
    gm = johnson_context(3).q_map()
    block = gm.blocks[0]
    assert len(block.symbol) == 364    # C(14, 3)
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


@pytest.mark.parametrize("g", [3, 4])
def test_q_map_matches_composed_nabla_bar(g):
    ctx = johnson_context(g)
    assert ctx.q_map() == composed_nabla_bar(ctx.presentation_with_z)


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
    pres = ctx.presentation_with_z
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
    kw = {"blocks": casimir_blocks(ctx.W2), "constituents": highest_weight_vectors(ctx.W2)}
    p_q = isotypic_projection(ctx.W2, ctx.hw_two_l2, **kw)
    p_z = isotypic_projection(ctx.W2, ctx.hw_zero, **kw)
    kernel = (p_q + p_z).kernel_basis()
    assert ({frozenset(v.items()) for v in ctx.r_basis}
            == {frozenset(v.items()) for v in kernel})
    assert len(kernel) == ctx.r_dim == 819
    # the projection onto Q kills every relation of L(V)/(R + C z), and z
    # is fixed by its own projection
    q_cols, z_cols = p_q.column_vectors(), p_z.column_vectors()
    for v in ctx.presentation_with_z.relations:
        assert act_vec(q_cols, v) == {}
    assert act_vec(z_cols, ctx.z_vec) == ctx.z_vec


def test_coker_q_degree1_matches_bb_direct_g3():
    # at genus 3 the auxiliary presentation is the free Lie algebra on 14
    # generators modulo the single relation z, so the degree-1 value is
    # dim L_3(C^14) - rank [z, V] = 910 - 14
    ctx = johnson_context(3)
    pres = ctx.presentation_with_z
    dim, _basis = bb_direct(pres, 1)
    rep = johnson_module_dims(3, 1)
    assert rep.coker_q[1] == dim == 896


@pytest.mark.slow
def test_coker_q_degree2_matches_bb_direct_g3():
    ctx = johnson_context(3)
    pres = ctx.presentation_with_z
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
    labels = list(ctx.V.actions)
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
    for label in ctx.V.actions:
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


@pytest.mark.parametrize("call", [
    pytest.param(lambda: decompose_wedge2_V(5), id="decompose-g5"),
    # the genus ceiling is checked before the centrality one
    pytest.param(lambda: central_z_check(5), id="central-z-g5"),
])
def test_budget_refusal_reasons(call):
    with pytest.raises(BudgetExceededError) as exc:
        call()
    assert exc.value.reason == {"error": "budget", "what": "genus", "genus": 5, "limit": 4,
                                "hint": "pass allow_large / --allow-large"}


@pytest.mark.parametrize("g", [2, -1])
def test_genus_floor_comes_first(g):
    # a genus below the floor is a usage error, never a budget refusal
    with pytest.raises(ValueError, match="genus >= 3 required"):
        johnson_module_dims(g, 1)


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
    pres = ctx.presentation_with_z
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
    pres = ctx.presentation_with_z
    dims_nabla = coker_dims(nabla(pres), 1, weights=(ctx.V.weights, ctx.W2.weights))
    assert tuple(dims_nabla.dims) == johnson_module_dims(4, 1).coker_q


# ---------------------------------------------------------------------------
# the orbit route: one dominant bucket per Weyl orbit
# ---------------------------------------------------------------------------

def _bucket_rank(gm, tgt_idx, keys):
    eb = EchelonBasis()
    for key in keys:
        eb.add(gm.column(tgt_idx, *key))
    return eb.rank


def _check_orbit_route(g, max_degree):
    # rank every weight bucket of q (the full weighted route), then check
    # that the rank is constant on each Weyl orbit, an absent bucket counting
    # as rank 0, and that the orbit route returns the full route's dims
    ctx = johnson_context(g)
    gm = ctx.q_map()
    base_w, target_w = ctx.weight_data()
    gen_w = _generator_weights(gm, base_w, target_w)
    full = []
    for q in range(max_degree + 1):
        tgt_idx = monomial_index(gm.base_dim, q)
        ranks = {w: _bucket_rank(gm, tgt_idx, keys)
                 for w, keys in _weight_buckets(gm, q, base_w, gen_w).items()}
        for mu in {ctx.spec.dominant(w) for w in ranks}:
            assert len({ranks.get(w, 0) for w in weyl_orbit(mu)}) == 1, (q, mu)
        full.append(gm.target_dim_in_degree(q) - sum(ranks.values()))
    assert johnson_module_dims(g, max_degree).coker_q == tuple(full)
    return tuple(full)


def test_orbit_route_matches_bucket_ranks_g3():
    assert _check_orbit_route(3, 2) == (90, 896, 5355)


@pytest.mark.slow
def test_orbit_route_matches_bucket_ranks_g4():
    assert _check_orbit_route(4, 1) == (308, 1232)


@pytest.mark.slow
def test_orbit_route_at_g5_with_uneven_zero_columns(capsys, monkeypatch, fresh_contexts):
    # genus 5 is the first genus at which generators with an empty symbol
    # fall unevenly within Weyl orbits, so column counts differ across an
    # orbit while target rows do not.  One context, built in an emptied cache
    # and dropped after the test, and its map q (2 s to build) serve the pins
    # and the CLI run
    from infalex.cli import main
    ctx = johnson_context(5)
    assert (ctx.V.dimension, ctx.r_dim, ctx.q_dim) == (110, 5214, 780)
    assert ctx.q_dim == weyl_dim(ctx.spec, ctx.hw_two_l2)
    assert ctx.V.dimension == weyl_dim(ctx.spec, HighestWeight((0, 0, 1, 0, 0)))
    gm = ctx.q_map()
    monkeypatch.setattr(ctx, "q_map", lambda: gm)
    base_w, target_w = ctx.weight_data()
    buckets = _weight_buckets(gm, 1, base_w, _generator_weights(gm, base_w, target_w))
    # the orbit of (2, 1, 0, 0, 0): its buckets differ in column count, yet
    # each has the same rank
    orbit = [w for w in weyl_orbit((2, 1, 0, 0, 0)) if w in buckets]
    assert len(orbit) == 80 and len({len(buckets[w]) for w in orbit}) > 1
    tgt_idx = monomial_index(gm.base_dim, 1)
    assert len({_bucket_rank(gm, tgt_idx, buckets[w]) for w in orbit}) == 1
    assert main(["johnson", "--genus", "5", "--max-degree", "1", "--allow-large"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["coker_q"] == [780, 4212]
    assert report["dims"] == {"V": 110, "Q": 780, "wedge2V": [5214, 780, 1]}


def test_invariance_certificate_refuses_a_non_invariant_r(monkeypatch):
    # R is 0 at genus 3; one pair vector of nonzero weight spans no
    # sp-submodule, so the orbit route must refuse before any rank
    from infalex import johnson
    ctx = JohnsonContext(3)
    k = next(k for k, w in enumerate(ctx.W2.weights) if any(w))
    ctx.r_basis.append({k: Fraction(1)})

    def no_rank(*args, **kwargs):
        raise AssertionError("ranked before the invariance certificate")

    monkeypatch.setattr(johnson, "johnson_context", lambda g: ctx)
    monkeypatch.setattr(johnson, "coker_dims", no_rank)
    with pytest.raises(InternalInconsistencyError, match="not invariant"):
        johnson_module_dims(3, 1)


def test_weyl_certificate_refuses_a_casimir_collision(monkeypatch):
    # genus 4 is the first genus with a constituent besides Q and z; if V(l2)
    # shared the Casimir eigenvalue of Q, ker f(C) would lose it and dim Q,
    # read off as the rest, would exceed weyl_dim(2 l2) by its 27 dimensions
    from infalex import johnson
    casimir_eigenvalue = johnson.casimir_eigenvalue
    l2, two_l2 = HighestWeight((0, 1, 0, 0)), HighestWeight((0, 2, 0, 0))

    def colliding(spec, hw):
        return casimir_eigenvalue(spec, two_l2 if hw == l2 else hw)

    monkeypatch.setattr(johnson, "casimir_eigenvalue", colliding)
    with pytest.raises(InternalInconsistencyError, match=r"dim Q = 335 against .* = 308"):
        JohnsonContext(4)
