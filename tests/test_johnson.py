import dataclasses
import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from infalex import johnson
from infalex.alex_module import coker_dims, monomial_index, monomials, nabla, nabla_bar
from infalex.cli import main
from infalex.errors import BudgetExceededError, InternalInconsistencyError
from infalex.exact_linalg import axpy, echelon_basis
from infalex.free_lie import ad_generator_matrix
from infalex.quad_lie import LiePresentation, _ideal_echelon, bb_direct
from infalex.johnson import (JohnsonContext, central_z_check, decompose_wedge2_V,
                             johnson_context, johnson_module_dims)
from infalex.rep_semisimple import (HighestWeight, LieAlgebraSpec, act_vec, casimir_blocks,
                                    highest_weight_vectors, weyl_dim)

from module_builders import (central_z_every_block, composed_nabla_bar, equivariance_defect,
                             fraction_columns, generator_weights, isotypic_projection,
                             lowest_weight_vectors, matrix_sum, presentation_with_z,
                             quotient_pairs, simple_root_invariance, span_closure,
                             weight_buckets, weyl_orbit)

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
    assert len(gm.symbol) == 364    # C(14, 3)
    assert gm.target_dim == 90
    assert gm.relations == ()


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
        variables = {i for (i, _k, _c) in gm.symbol[j]}
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
    assert ctx.q_map() == composed_nabla_bar(presentation_with_z(ctx))


@pytest.mark.parametrize("g", [3, 4])
def test_q_map_and_weights_match_the_presentation_route(g):
    # q and its target weights are read off the span of R + C z alone; the
    # presentation L(V)/(R + C z) made from pair-keyed relations, its
    # nabla-bar and its free pairs give the same symbol and weights
    ctx = johnson_context(g)
    pres = presentation_with_z(ctx)
    assert ctx.q_map() == nabla_bar(pres)
    base_w, target_w = ctx.weight_data()
    assert base_w == ctx.V.weights
    assert target_w == tuple(ctx.W2.weights[k] for k in quotient_pairs(pres))
    assert len(target_w) == ctx.q_dim == ctx.q_map().target_dim


@pytest.mark.parametrize("g,degree", [(3, 2), (4, 1)])
def test_johnson_and_decompose_runs_build_no_lie_presentation(capsys, monkeypatch,
                                                              fresh_contexts, g, degree):
    # the Johnson path reads R + C z as a span: no L(V)/(R + C z) is made
    def refused(dim_v, relations):
        raise AssertionError("LiePresentation.make called on the Johnson path")

    monkeypatch.setattr(LiePresentation, "make", staticmethod(refused))
    decompose = ["decompose", "--genus", str(g)] + (["--central-z"] if g == 3 else [])
    assert main(decompose) == 0
    assert main(["johnson", "--genus", str(g), "--max-degree", str(degree)]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["coker_q"] == {3: [90, 896, 5355], 4: [308, 1232]}[g]


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
    pres = presentation_with_z(ctx)
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
    kernel = matrix_sum(p_q, p_z).kernel_basis()
    assert ({frozenset(v.items()) for v in ctx.r_basis}
            == {frozenset(v.items()) for v in kernel})
    assert len(kernel) == ctx.r_dim == 819
    # the projection onto Q kills every relation of L(V)/(R + C z), and z
    # is fixed by its own projection
    q_cols, z_cols = fraction_columns(p_q), fraction_columns(p_z)
    for v in presentation_with_z(ctx).relations:
        assert act_vec(q_cols, v) == {}
    assert act_vec(z_cols, ctx.z_vec) == ctx.z_vec


@pytest.mark.parametrize("g", [3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_r_is_the_lowering_closure_of_the_other_constituents(g):
    # a route to R with no Casimir: a highest-weight vector generates its
    # irreducible under the simple lowering operators, so R is the closure
    # of the highest-weight vectors of wedge^2 V other than those of
    # 2 lambda_2 and 0.  The context is built outside the shared cache, so
    # the genus-5 one is dropped after the test
    ctx = JohnsonContext(g)
    others = [v for hw, v in highest_weight_vectors(ctx.W2)
              if hw not in (ctx.hw_two_l2, ctx.hw_zero)]
    closure = span_closure(ctx.W2, others)
    assert closure.rank == ctx.r_dim == {3: 0, 4: 819, 5: 5214}[g]
    assert all(closure.contains(r) for r in ctx.r_basis)


def test_coker_q_degree1_matches_bb_direct_g3():
    # at genus 3 the auxiliary presentation is the free Lie algebra on 14
    # generators modulo the single relation z, so the degree-1 value is
    # dim L_3(C^14) - rank [z, V] = 910 - 14
    ctx = johnson_context(3)
    pres = presentation_with_z(ctx)
    dim, _basis = bb_direct(pres, 1)
    rep = johnson_module_dims(3, 1)
    assert rep.coker_q[1] == dim == 896


@pytest.mark.slow
def test_coker_q_degree2_matches_bb_direct_g3():
    ctx = johnson_context(3)
    pres = presentation_with_z(ctx)
    dim, _basis = bb_direct(pres, 2)
    rep = johnson_module_dims(3, 2)
    assert rep.coker_q == (90, 896, 5355)
    assert dim == 5355


def test_degree0_equals_weyl_dim():
    for g in (3, 4):
        rep = johnson_module_dims(g, 0)
        spec_hw = HighestWeight((0, 2) + (0,) * (g - 2))
        from infalex.rep_semisimple import LieAlgebraSpec
        assert rep.coker_q[0] == weyl_dim(LieAlgebraSpec(g), spec_hw)
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


def _central_z_full_route(g):
    """[z, e_i] in ideal(R)_3 for every i, with ideal(R)_3 echelonized whole
    in Lyndon coordinates of L_3 from the ad_{e_i} matrices, without weights.

    Test oracle: it uses no weights and no invariance, so it checks the
    weight block and the one-vector argument of central_z_check."""
    ctx = johnson_context(g)
    n = ctx.V.dimension
    pres = LiePresentation.make(
        n, [{ctx.pairs[k]: c for k, c in v.items()} for v in ctx.r_basis])
    ideal3 = _ideal_echelon(pres, 3)
    # L_2 and wedge^2 V share the pair basis, so z_vec is z in L_2; the
    # matrices give [e_i, z] = -[z, e_i], and membership ignores the sign
    return all(ideal3.contains(ad_generator_matrix(n, i, 2).matvec(ctx.z_vec))
               for i in range(n))


def test_central_z_g3_literal_false():
    # at genus 3 the relation space is zero, the quotient is a free Lie
    # algebra, and z is not central: the membership check reports that fact
    assert central_z_check(3) is False
    assert _central_z_full_route(3) is False


@pytest.mark.parametrize("g, central", [(3, False), (4, True)])
def test_central_z_check_agrees_with_the_every_block_oracle(g, central):
    # one vector of weight lambda_3 against one elimination per weight of V
    assert central_z_check(g) is central
    assert central_z_every_block(johnson_context(g)) is central


def _r_with_z_added_to_a_weight_0_vector(ctx):
    """r_basis with its first r of weight 0 traded for r + z: R + C z, and so
    every fact certify_invariance reads, is unchanged, but R is not
    invariant, since R + C z has no other invariant line than C z."""
    zero = (0,) * ctx.g
    k = next(t for t, r in enumerate(ctx.r_basis) if ctx.W2.weights[next(iter(r))] == zero)
    r = dict(ctx.r_basis[k])
    axpy(r, 1, ctx.z_vec)
    return ctx.r_basis[:k] + [r] + ctx.r_basis[k + 1:]


def test_central_z_refuses_an_r_traded_within_r_plus_cz(capsys, monkeypatch, fresh_contexts):
    # R + C z is unchanged, but an image of weight 0 leaves R_0: the
    # certificate refuses the traded R, and the CLI reports it as one
    # inconsistency line, exit 4, with no traceback
    ctx = johnson_context(4)
    monkeypatch.setattr(ctx, "r_basis", _r_with_z_added_to_a_weight_0_vector(ctx))
    with pytest.raises(InternalInconsistencyError, match="^R is not invariant under X_1_0$"):
        ctx.certify_invariance()
    code = main(["decompose", "--genus", "4", "--central-z"])
    captured = capsys.readouterr()
    assert code == 4
    (line,) = captured.out.splitlines()
    assert json.loads(line) == {"error": "inconsistency",
                                "detail": "R is not invariant under X_1_0"}
    assert captured.err == ""


@pytest.mark.parametrize("moved, detail", [("weight 0", "z is not invariant under X_1_0"),
                                           ("lowest", "z is not of weight 0")])
@pytest.mark.parametrize("command", [
    ["johnson", "--genus", "4", "--max-degree", "1"],
    ["decompose", "--genus", "4", "--central-z"],
])
def test_a_z_moved_within_r_plus_cz_exits_4(capsys, monkeypatch, fresh_contexts, command,
                                            moved, detail):
    # z + r for an r in R leaves R + C z, and so facts (a) to (c), as they
    # are; fact (d) refuses it: with r of weight 0 a lowering operator moves
    # z + r, and with r a lowest-weight vector z + r is not of weight 0
    ctx = johnson_context(4)
    lowering = [ctx.W2.actions[label] for label in ctx.spec.lowering_labels()]
    r = next(r for r in ctx.r_basis
             if (not any(ctx.W2.weights[next(iter(r))]) if moved == "weight 0"
                 else not any(act_vec(cols, r) for cols in lowering)))
    z = dict(ctx.z_vec)
    axpy(z, 1, r)
    monkeypatch.setattr(ctx, "z_vec", z)
    code = main(command)
    captured = capsys.readouterr()
    assert code == 4
    (line,) = captured.out.splitlines()
    assert json.loads(line) == {"error": "inconsistency", "detail": detail}
    assert captured.err == ""


def test_central_z_refuses_a_v_without_a_single_line_of_weight_lambda3(capsys, monkeypatch,
                                                                       fresh_contexts):
    # V's weights are the context's, not the user's: a second vector of
    # weight lambda_3 is an inconsistency (exit 4), never a usage error
    ctx = johnson_context(3)
    weights = list(ctx.V.weights)
    weights[weights.index((1, 1, -1))] = (1, 1, 1)
    monkeypatch.setattr(ctx, "V", dataclasses.replace(ctx.V, weights=tuple(weights)))
    code = main(["decompose", "--genus", "3", "--central-z"])
    captured = capsys.readouterr()
    assert code == 4
    assert json.loads(captured.out) == {
        "error": "inconsistency", "detail": "V has no single line of weight lambda_3"}


def test_central_z_refuses_a_relation_that_is_not_a_weight_vector(monkeypatch,
                                                                  fresh_contexts):
    # the weight blocks are exact only for a basis of weight vectors
    ctx = johnson_context(3)
    weights = ctx.W2.weights
    k = next(k for k, w in enumerate(weights) if w != weights[0])
    monkeypatch.setattr(ctx, "r_basis", [{0: Fraction(1), k: Fraction(1)}])
    with pytest.raises(InternalInconsistencyError, match="weight vectors"):
        central_z_check(3)


def test_budget_refusals():
    with pytest.raises(BudgetExceededError):
        johnson_module_dims(5, 0)
    with pytest.raises(BudgetExceededError):
        johnson_module_dims(3, 3)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: decompose_wedge2_V(5), id="decompose-g5"),
    # the centrality check has no ceiling of its own: the genus one refuses it
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
def test_decompose_g6(fresh_contexts):
    # the first genus of the paper's explicit presentation; degree 1 on the
    # same context, by the orbit route under the invariance certificate
    two_l2, zero = HighestWeight((0, 2, 0, 0, 0, 0)), HighestWeight((0,) * 6)
    parts = decompose_wedge2_V(6, allow_large=True)
    assert parts == [("R-complement", 19877), (two_l2, 1650), (zero, 1)]
    assert weyl_dim(LieAlgebraSpec(6), two_l2) == 1650
    assert sum(d for _l, d in parts) == comb(208, 2) == 21528
    report = johnson_module_dims(6, 1, allow_large=True)
    assert report.to_json_dict() == {
        "genus": 6, "dims": {"V": 208, "Q": 1650, "wedge2V": [19877, 1650, 1]},
        "coker_q": [1650, 11088], "M": [1651, 11088]}


@pytest.mark.slow
def test_central_z_g4_membership_holds():
    # with the large relation space at genus 4 the brackets [z, e_i] all land
    # in the degree-3 piece of the ideal, by one certified vector and whole
    assert central_z_check(4) is True
    assert _central_z_full_route(4) is True


@pytest.mark.slow
def test_central_z_g5_holds(fresh_contexts):
    # the first genus above the default ceiling; the every-block oracle
    # takes about 16 s here and is not run
    assert central_z_check(5, allow_large=True) is True


def test_central_z_eliminates_one_block_of_weight_lambda3_g4(monkeypatch, fresh_contexts):
    # three echelon bases: R's weight-0 vectors and R + C z for
    # certify_invariance, and one block of L_3, the [e_i, r] of weight
    # lambda_3 = (1, 1, 1, 0) that [e_j, z] is tested against
    ctx = johnson_context(4)
    built = []
    echelon_basis = johnson.echelon_basis

    def recording(vectors):
        built.append(list(vectors))
        return echelon_basis(built[-1])

    monkeypatch.setattr(johnson, "echelon_basis", recording)
    assert central_z_check(4) is True
    r_zero, rz, block = built
    assert len(rz) == ctx.r_dim + 1 == 820
    assert len(r_zero) == 19
    assert {ctx.W2.weights[k] for v in r_zero for k in v} == {(0, 0, 0, 0)}
    words = {word for v in block for word in v}
    assert all(len(word) == 3 for word in words)
    assert {tuple(map(sum, zip(*(ctx.V.weights[i] for i in word)))) for word in words} == {
        (1, 1, 1, 0)}
    assert len(block) == 250 and echelon_basis(block).rank == 231


@pytest.mark.slow
def test_coker_q_matches_presentation_route_g4():
    # the unweighted oracle: plain elimination of the full degree-1 matrix
    # of q = nabla-bar(L(V)/(R + C z)), against its weighted block ranks
    ctx = johnson_context(4)
    pres = presentation_with_z(ctx)
    assert pres.num_relations() == 820
    dims_pres = coker_dims(nabla_bar(pres), 1)
    rep = johnson_module_dims(4, 1)
    assert tuple(dims_pres.dims) == rep.coker_q == (308, 1232)


@pytest.mark.slow
def test_coker_q_matches_nabla_route_g4():
    # independent matrix: nabla keeps the relations beside the cyclic sum
    # and targets Sym (x) wedge^2 V, so it never uses beta; it is
    # equivariant too, since its relations are weight vectors, so it is
    # ranked bucket by bucket through the test oracles, every symbol walked
    # and the rows of Sym_q (x) R in the buckets of their weight
    ctx = johnson_context(4)
    gm = nabla(presentation_with_z(ctx))
    base_w, target_w = ctx.V.weights, ctx.W2.weights
    gen_w = generator_weights(gm, base_w, target_w)
    dims_nabla = tuple(gm.target_dim_in_degree(q)
                       - sum(_bucket_ranks(gm, q, base_w, target_w, gen_w).values())
                       for q in range(2))
    assert dims_nabla == johnson_module_dims(4, 1).coker_q


# ---------------------------------------------------------------------------
# the orbit route: one dominant bucket per Weyl orbit
# ---------------------------------------------------------------------------

def _bucket_ranks(gm, q, base_w, target_w, gen_w):
    # weight -> the rank of its degree-q bucket, every bucket listed by the
    # oracle weight_buckets
    return {w: echelon_basis(columns).rank
            for w, columns in weight_buckets(gm, q, base_w, target_w, gen_w).items()}


def _check_orbit_route(g, max_degree):
    # rank every weight bucket of q (the full weighted route), then check
    # that the rank is constant on each Weyl orbit, an absent bucket counting
    # as rank 0, and that the orbit route returns the full route's dims
    ctx = johnson_context(g)
    gm = ctx.q_map()
    base_w, target_w = ctx.weight_data()
    gen_w = generator_weights(gm, base_w, target_w)
    full = []
    for q in range(max_degree + 1):
        ranks = _bucket_ranks(gm, q, base_w, target_w, gen_w)
        for mu in {ctx.spec.dominant(w) for w in ranks}:
            assert len({ranks.get(w, 0) for w in weyl_orbit(mu)}) == 1, (q, mu)
        full.append(gm.target_dim_in_degree(q) - sum(ranks.values()))
    assert johnson_module_dims(g, max_degree).coker_q == tuple(full)
    return tuple(full)


def test_orbit_route_matches_bucket_ranks_g3():
    assert _check_orbit_route(3, 2) == (90, 896, 5355)


@pytest.mark.parametrize("g,empty", [(3, 0), (4, 64)])
def test_every_symbol_of_q_has_its_triples_weight(g, empty):
    # the running route takes a generator's weight from its triple and
    # certifies it once on beta; here every symbol is built and walked:
    # each nonempty one is weight homogeneous of its triple's weight
    ctx = johnson_context(g)
    gm = ctx.q_map()
    base_w, target_w = ctx.weight_data()
    triples = itertools.combinations(range(ctx.V.dimension), 3)
    sums = [tuple(map(sum, zip(*(base_w[i] for i in t)))) for t in triples]
    walked = generator_weights(gm, base_w, target_w)
    assert len(gm.symbol._built) == len(walked) == len(sums)
    assert sum(w is None for w in walked) == empty
    assert all(w is None or w == s for w, s in zip(walked, sums))


def test_weight_certificate_refuses_a_beta_row_of_the_wrong_weight():
    # one row of beta (a Q coordinate) given the weight of another: the
    # certificate on beta refuses it before any symbol is built
    ctx = JohnsonContext(3)
    gm = ctx.q_map()
    base_w, target_w = ctx.weight_data()
    r = next(r for r, w in enumerate(target_w) if w != target_w[0])
    wrong = list(target_w)
    wrong[r] = target_w[0]
    with pytest.raises(InternalInconsistencyError,
                       match="not weight homogeneous of its triple's weight"):
        coker_dims(gm, 1, weights=(base_w, wrong), weyl=ctx.spec)
    assert not gm.symbol._built
    assert coker_dims(gm, 1, weights=(base_w, target_w), weyl=ctx.spec).dims == (90, 896)


@pytest.mark.parametrize("key", [-1, -17, 0, slice(0, 3), slice(None, None, -1), slice(-9, None),
                                 slice(4, -4, 7), slice(-3, 2, -5), slice(8, 2), slice(-999, 999)])
def test_symbol_of_q_reads_as_the_tuple_of_its_triples(key):
    # each read on a symbol with nothing built yet
    symbol = JohnsonContext(3).q_map().symbol
    assert symbol[key] == tuple(JohnsonContext(3).q_map().symbol)[key]
    assert all(0 <= j < len(symbol) for j in symbol._built)
    with pytest.raises(IndexError):
        symbol[-len(symbol) - 1]


def test_johnson_run_builds_only_the_symbols_of_dominant_buckets_g4(fresh_contexts):
    # at degree 1 a column is one generator, and only the dominant bucket of
    # each Weyl orbit is ranked: 503 of the 17,296 triples are built, each
    # of dominant weight
    assert johnson_module_dims(4, 1).coker_q == (308, 1232)
    ctx = johnson_context(4)
    symbol = ctx.q_map().symbol
    base_w = ctx.V.weights
    triples = list(itertools.combinations(range(ctx.V.dimension), 3))
    built = [tuple(map(sum, zip(*(base_w[i] for i in triples[j])))) for j in symbol._built]
    assert len(symbol) == 17296 and 0 < len(built) <= 503
    assert all(ctx.spec.dominant(w) == w for w in built)
    assert all(symbol._built.values())


def test_johnson_run_builds_only_the_simple_root_actions_of_wedge2_v(fresh_contexts):
    # the Casimir of wedge^2 V comes from V; highest_weight_vectors reads the
    # g raising operators and certify_invariance the g lowering ones, so a
    # run builds 2g of the g(2g + 1) actions on wedge^2 V
    report = johnson_module_dims(4, 1)
    assert report.coker_q == (308, 1232)
    ctx = johnson_context(4)
    simple = ctx.spec.raising_labels() + ctx.spec.lowering_labels()
    built = sorted(label for label, cols in ctx.W2.actions.items() if cols._built)
    assert built == sorted(simple)
    assert len(simple) == 8 and len(ctx.W2.actions) == 36


@pytest.mark.slow
def test_orbit_route_matches_bucket_ranks_g4():
    assert _check_orbit_route(4, 1) == (308, 1232)


@pytest.mark.slow
def test_orbit_route_at_g5_with_uneven_zero_columns(capsys, fresh_contexts):
    # genus 5 is the first genus at which generators with an empty symbol
    # fall unevenly within Weyl orbits, so column counts differ across an
    # orbit while target rows do not.  One context, built in an emptied cache
    # and dropped after the test, and the map q it keeps serve the pins and
    # the CLI run
    ctx = johnson_context(5)
    assert (ctx.V.dimension, ctx.r_dim, ctx.q_dim) == (110, 5214, 780)
    assert ctx.q_dim == weyl_dim(ctx.spec, ctx.hw_two_l2)
    assert ctx.V.dimension == weyl_dim(ctx.spec, HighestWeight((0, 0, 1, 0, 0)))
    gm = ctx.q_map()
    # the degree-1 columns of weight w: one per generator of weight w, whose
    # weight the running route takes from its triple (the symbol walk checks
    # that at genus 3 and 4), so no other symbol is built here
    of_weight = gm.symbol.generators_by_weight(*ctx.weight_data())
    (one,) = monomials(gm.base_dim, 0)
    buckets = {w: of_weight(w) for w in weyl_orbit((2, 1, 0, 0, 0))}
    # the orbit of (2, 1, 0, 0, 0): its buckets differ in column count, yet
    # each has the same rank
    orbit = [w for w, js in buckets.items() if js]
    assert len(orbit) == 80 and len({len(buckets[w]) for w in orbit}) > 1
    tgt_idx = monomial_index(gm.base_dim, 1)
    assert len({echelon_basis(gm.column(tgt_idx, one, j) for j in buckets[w]).rank
                for w in orbit}) == 1
    assert main(["johnson", "--genus", "5", "--max-degree", "1", "--allow-large"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["coker_q"] == [780, 4212]
    assert report["dims"] == {"V": 110, "Q": 780, "wedge2V": [5214, 780, 1]}
    assert johnson_context(5).q_map() is gm


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


def test_certificate_reads_the_inter_reduced_span(monkeypatch, fresh_contexts):
    # johnson_module_dims builds q before the certificate, so the
    # memberships meet the rows that q's quotient inter-reduced
    seen = []
    certify = JohnsonContext.certify_invariance
    monkeypatch.setattr(JohnsonContext, "certify_invariance",
                        lambda self: seen.append(self.rz_span._reduced) or certify(self))
    assert johnson_module_dims(3, 1).coker_q == (90, 896)
    assert seen == [True]


@pytest.mark.parametrize("g", [3, 4])
def test_certificate_applies_integer_lowering_columns_to_every_stored_row(monkeypatch, g):
    # each lowering label is applied to z (fact (d)) and then to the rows
    # rz_span stores, every one of them in key order (fact (c)); those rows
    # and the lowering columns applied to them are all int: no image is
    # rescaled
    from infalex import johnson
    ctx = JohnsonContext(g)
    ctx.q_map()
    applied = []

    def recording(cols, v):
        applied.append((cols, v))
        return act_vec(cols, v)

    monkeypatch.setattr(johnson, "act_vec", recording)
    ctx.certify_invariance()
    rows = list(ctx.rz_span.rows.values())
    lowering = [ctx.W2.actions[label] for label in ctx.spec.lowering_labels()]
    assert len(applied) == g * (len(rows) + 1) == g * (ctx.r_dim + 2)
    assert all(cols is want_cols and v is want_v for (cols, v), (want_cols, want_v)
               in zip(applied, [(c, v) for c in lowering for v in [ctx.z_vec] + rows]))
    assert all(type(x) is int for v in rows for x in v.values())
    assert all(type(x) is int for cols, v in applied for j in v for x in cols[j].values())


@pytest.mark.parametrize("g", [3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_invariance_certificate_and_the_simple_root_oracle_pass(g):
    ctx = JohnsonContext(g)
    ctx.certify_invariance()
    assert simple_root_invariance(ctx)


def test_simple_root_oracle_refuses_a_non_invariant_r():
    # the context of test_invariance_certificate_refuses_a_non_invariant_r
    ctx = JohnsonContext(3)
    k = next(k for k, w in enumerate(ctx.W2.weights) if any(w))
    ctx.r_basis.append({k: Fraction(1)})
    assert not simple_root_invariance(ctx)


def _q_lowest_weight_vector(ctx):
    # the one vector of wedge^2 V of weight -2 lambda_2 that every simple
    # lowering operator kills: the lowest-weight vector of Q
    low = tuple(-x for x in ctx.spec.partition_from_fundamental(ctx.hw_two_l2))
    (v,) = lowest_weight_vectors(ctx.W2, low)
    return v


def test_invariance_certificate_refuses_the_lowest_weight_vector_of_q_in_r():
    # R + C z grown by a vector that the lowering operators kill stays stable
    # under them and keeps z, so only the rank, 2 against weyl_dim(0) = 1,
    # refuses it
    ctx = JohnsonContext(3)
    low = _q_lowest_weight_vector(ctx)
    ctx.r_basis.append(low)
    assert not any(act_vec(ctx.W2.actions[label], low) for label in ctx.spec.lowering_labels())
    with pytest.raises(InternalInconsistencyError, match="not invariant: rank 2 against the 1"):
        ctx.certify_invariance()
    assert not simple_root_invariance(ctx)


def test_invariance_certificate_refuses_a_z_that_is_no_highest_weight_vector():
    # z replaced by the lowest-weight vector of Q before the presentation is
    # read: the span has rank 1 = weyl_dim(0) and the lowering operators kill
    # it, so the missing invariant vector refuses it, before the weight of z
    # would
    ctx = JohnsonContext(3)
    ctx.z_vec = _q_lowest_weight_vector(ctx)
    with pytest.raises(InternalInconsistencyError,
                       match=r"not invariant: it misses the highest-weight vector of \(0, 0, 0\)"):
        ctx.certify_invariance()
    assert not simple_root_invariance(ctx)


def test_invariance_certificate_refuses_an_r_without_the_highest_weight_vector_of_v_l2():
    # at genus 4, R = V(l2 + l4) (+) V(l2).  At the weight l2 = (1, 1, 0, 0),
    # the top of V(l2), R keeps only the lowering images from above, which
    # span V(l2 + l4)'s part, and gains the lowest-weight vector of Q in
    # exchange: the rank, z and R_0 are as they were and the lowering
    # operators keep the new R, so only the missing highest-weight vector of
    # V(l2) refuses it
    ctx = JohnsonContext(4)
    l2 = (1, 1, 0, 0)
    lowering = [ctx.W2.actions[label] for label in ctx.spec.lowering_labels()]
    above = echelon_basis(act_vec(cols, r) for cols in lowering for r in ctx.r_basis
                          if ctx.W2.weights[next(iter(r))] != l2)
    from_above = [v for v in above.rows.values() if ctx.W2.weights[next(iter(v))] == l2]
    kept = [r for r in ctx.r_basis if ctx.W2.weights[next(iter(r))] != l2]
    assert len(kept) + len(from_above) == ctx.r_dim - 1
    ctx.r_basis = kept + from_above + [_q_lowest_weight_vector(ctx)]
    with pytest.raises(InternalInconsistencyError,
                       match=r"not invariant: it misses the highest-weight vector of \(0, 1, 0, 0\)"):
        ctx.certify_invariance()
    assert not simple_root_invariance(ctx)


@pytest.mark.parametrize("i", range(4))
def test_invariance_certificate_refuses_an_r_stable_under_all_but_one_lowering_operator(i):
    # at genus 4, R = V(l2 + l4) (+) V(l2).  An extremal weight mu of
    # V(l2 + l4) = V(2, 2, 1, 1) whose only negative simple coroot pairing
    # is <mu, alpha_i^vee> is reached from above by f_i alone, and by no
    # weight of V(l2), so R with its vector of weight mu traded for the
    # lowest-weight vector of Q keeps its rank and highest-weight vectors and
    # is stable under every f_j but f_i, which alone refuses it
    ctx = JohnsonContext(4)
    spec = ctx.spec
    mu = min(w for w in weyl_orbit((2, 2, 1, 1))
             if [j for j in range(4) if spec.simple_coroot_pairing(w, j) < 0] == [i])
    kept = [v for v in ctx.r_basis if ctx.W2.weights[next(iter(v))] != mu]
    assert len(kept) == len(ctx.r_basis) - 1
    ctx.r_basis = kept + [_q_lowest_weight_vector(ctx)]
    span = ctx.rz_span
    assert span.rank == ctx.r_dim + 1
    label = spec.lowering_labels()[i]
    for other in spec.lowering_labels():
        if other != label:
            cols = ctx.W2.actions[other]
            assert all(span.contains(act_vec(cols, v)) for v in ctx.r_basis)
    with pytest.raises(InternalInconsistencyError, match=f"not invariant under {label}$"):
        ctx.certify_invariance()
    assert not simple_root_invariance(ctx)


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
