"""Wrong versions of the shortcuts the answers rest on, each patched in to
show that a committed cross-check or certificate catches it.

A mutant test adds to the check it exercises and never replaces it: the
check itself stays in its own test file, and here it must fail."""

import __future__
import inspect
import json
import textwrap
import types
from itertools import combinations, combinations_with_replacement
from math import lcm
from operator import add

import pytest

from infalex import (alex_module, cli, exact_linalg, fox_alex, johnson, nilpotent_transport,
                     quad_lie, rep_semisimple)
from infalex.alex_module import CyclicSumSymbol, GradedMap, coker_dims, sym_dim
from infalex.cli import main
from infalex.errors import InternalInconsistencyError
from infalex.exact_linalg import EchelonBasis, RationalMatrix, act_vec, axpy, echelon_basis
from infalex.fox_alex import LaurentMatrix, torsion_sweep
from infalex.johnson import JohnsonContext, johnson_context, johnson_module_dims
from infalex.rep_semisimple import (LieAlgebraSpec, casimir_blocks, fundamental_module,
                                    wedge_power)

import test_acceptance
import test_alex_module
import test_exact_linalg
import test_fox_alex
import test_golden
import test_johnson
import test_nilpotent_transport
import test_quad_lie
import test_rep_semisimple
from test_fox_alex import F2XZ, TREFOIL, X3_COMMUTING, _brute_force_sweep


@pytest.fixture
def cross_term_without_its_factor_2(monkeypatch):
    """The Casimir of wedge^2 V assembled with sum_a x_a e_i ^ x^a e_j once
    instead of twice: the other terms are those of the right operator."""
    wedge_into = rep_semisimple._wedge_into

    def mutant(out, c, u, v, index):
        wedge_into(out, 1 if c == 2 else c, u, v, index)

    monkeypatch.setattr(rep_semisimple, "_wedge_into", mutant)


def test_cross_term_mutant_fails_the_wedge_square_cross_check(cross_term_without_its_factor_2):
    v = fundamental_module(LieAlgebraSpec(3), 3)
    assembled = casimir_blocks(v, 2)
    square = casimir_blocks(wedge_power(v, 2))
    assert any(assembled[w] != block for w, block in square.items())


def test_cross_term_mutant_fails_the_weyl_certificate_g4(cross_term_without_its_factor_2):
    # at g = 4 the kernel of f(C) shrinks to nothing: dim Q reads 1127
    with pytest.raises(InternalInconsistencyError,
                       match=r"dim Q = 1127 against weyl_dim\(2 lambda_2\) = 308"):
        JohnsonContext(4)


def test_cross_term_mutant_exits_4(capsys, fresh_contexts, cross_term_without_its_factor_2):
    code = main(["johnson", "--genus", "4", "--max-degree", "1"])
    assert code == 4
    assert json.loads(capsys.readouterr().out)["error"] == "inconsistency"


@pytest.fixture
def dual_with_two_partners_swapped(monkeypatch):
    """The trace-form dual read off the labels with the partners of its
    first two basis elements exchanged, each row keeping its coefficient."""
    integral_dual = rep_semisimple._integral_dual

    def mutant(spec):
        (((b0, c0),), ((b1, c1),), *rest), d = integral_dual(spec)
        return (((b1, c0),), ((b0, c1),), *rest), d

    monkeypatch.setattr(rep_semisimple, "_integral_dual", mutant)


def test_swapped_partner_mutant_fails_the_gram_oracle(dual_with_two_partners_swapped):
    with pytest.raises(AssertionError):
        test_rep_semisimple.test_label_pairing_is_the_inverse_gram_matrix(3)
    with pytest.raises(AssertionError):
        test_rep_semisimple.test_casimir_blocks_match_fraction_columns()


# -- the highest weights read off sp(2g) -------------------------------------------

@pytest.fixture
def long_root_pairing_of_type_b(monkeypatch):
    """<w, alpha_g^vee> read as 2 w_g, the pairing of the short root eps_g of
    type B, in place of w_g for the long root 2 eps_g of type C: every
    highest weight is named wrongly in its last fundamental coefficient."""
    pairing = LieAlgebraSpec.simple_coroot_pairing

    def mutant(self, w, i):
        return 2 * w[i] if i == self.rank - 1 else pairing(self, w, i)

    monkeypatch.setattr(LieAlgebraSpec, "simple_coroot_pairing", mutant)


def test_type_b_pairing_mutant_fails_the_weyl_certificate_g4(long_root_pairing_of_type_b):
    with pytest.raises(InternalInconsistencyError,
                       match=r"dim Q = 1100 against weyl_dim\(2 lambda_2\) = 308"):
        JohnsonContext(4)


# -- the invariance certificate of R and C z ---------------------------------------

def _certificate_rewritten(old: str, new: str):
    """JohnsonContext.certify_invariance compiled again with old replaced by
    new (see _rewritten)."""
    return _rewritten(JohnsonContext.certify_invariance, old, new)


@pytest.fixture
def certificate_without_its_rank(monkeypatch):
    """The certificate with no rank fact (a)."""
    monkeypatch.setattr(JohnsonContext, "certify_invariance",
                        _certificate_rewritten("if span.rank != expected:", "if False:"))


@pytest.fixture
def certificate_without_its_highest_weight_vectors(monkeypatch):
    """The certificate with no membership of the highest-weight vectors (b)."""
    monkeypatch.setattr(JohnsonContext, "certify_invariance",
                        _certificate_rewritten("if not span.contains(v):", "if False:"))


@pytest.fixture
def certificate_without_its_last_row(monkeypatch):
    """The certificate with the last row rz_span stores left out of (c)."""
    monkeypatch.setattr(JohnsonContext, "certify_invariance", _certificate_rewritten(
        "for v in span.rows.values():", "for v in list(span.rows.values())[:-1]:"))


@pytest.fixture(params=range(4))
def certificate_without_one_lowering_operator(request, monkeypatch):
    """The certificate with one of the g = 4 simple lowering operators left
    out of (c) and (d); the parameter is its position in lowering_labels()."""
    label = LieAlgebraSpec(4).lowering_labels()[request.param]
    monkeypatch.setattr(JohnsonContext, "certify_invariance", _certificate_rewritten(
        "for label in self.spec.lowering_labels():",
        f"for label in [l for l in self.spec.lowering_labels() if l != {label!r}]:"))
    return request.param


@pytest.fixture
def certificate_without_its_weight_0_images_in_r(monkeypatch):
    """The certificate testing every image of (c) in R + C z, the weight-0
    ones too: R + C z is certified, and R is not."""
    monkeypatch.setattr(JohnsonContext, "certify_invariance", _certificate_rewritten(
        "(r0 if weights[next(iter(u))] == zero else span)", "span"))


@pytest.fixture
def certificate_without_z_lowered(monkeypatch):
    """The certificate with no f_i applied to z in (d)."""
    monkeypatch.setattr(JohnsonContext, "certify_invariance",
                        _certificate_rewritten("if act_vec(cols, self.z_vec):", "if False:"))


@pytest.fixture
def certificate_without_the_weight_of_z(monkeypatch):
    """The certificate with no weight-0 check of z in (d)."""
    monkeypatch.setattr(JohnsonContext, "certify_invariance", _certificate_rewritten(
        "if any(weights[k] != zero for k in self.z_vec):", "if False:"))


def test_rankless_certificate_mutant_fails_the_lowest_weight_r_check(
        certificate_without_its_rank):
    with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
        test_johnson.test_invariance_certificate_refuses_the_lowest_weight_vector_of_q_in_r()


def test_highest_weight_free_certificate_mutant_fails_the_lowest_weight_z_check(
        certificate_without_its_highest_weight_vectors):
    # the weight of z still refuses this z, but not as a missing vector
    with pytest.raises(AssertionError, match="Regex pattern did not match"):
        test_johnson.test_invariance_certificate_refuses_a_z_that_is_no_highest_weight_vector()


def test_highest_weight_free_certificate_mutant_fails_the_missing_v_l2_check(
        certificate_without_its_highest_weight_vectors):
    with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
        test_johnson.test_invariance_certificate_refuses_an_r_without_the_highest_weight_vector_of_v_l2()


@pytest.mark.parametrize("g", [3, 4])
def test_last_row_free_certificate_mutant_fails_the_every_stored_row_check(
        monkeypatch, certificate_without_its_last_row, g):
    with pytest.raises(AssertionError):
        test_johnson.test_certificate_applies_integer_lowering_columns_to_every_stored_row(
            monkeypatch, g)


def test_one_lowering_operator_mutant_fails_the_traded_weight_vector_check(
        certificate_without_one_lowering_operator):
    i = certificate_without_one_lowering_operator
    with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
        test_johnson.test_invariance_certificate_refuses_an_r_stable_under_all_but_one_lowering_operator(i)


# -- the span of R + C z that q, its weights and the certificate read -------------

@pytest.fixture
def johnson_span_without_z(monkeypatch):
    """The span that q is read off built from R alone, with no z."""
    monkeypatch.setattr(JohnsonContext, "rz_span",
                        property(lambda self: exact_linalg.echelon_basis(self.r_basis)))


def test_z_free_span_mutant_fails_the_presentation_route_check(fresh_contexts,
                                                                johnson_span_without_z):
    with pytest.raises(AssertionError):
        test_johnson.test_q_map_and_weights_match_the_presentation_route(3)


def test_z_free_span_mutant_fails_the_rank_certificate(johnson_span_without_z):
    with pytest.raises(InternalInconsistencyError,
                       match=r"not invariant: rank 819 against the 820 of its constituents"):
        JohnsonContext(4).certify_invariance()


@pytest.fixture
def weights_off_the_free_pairs_of_r(monkeypatch):
    """weight_data's target weights read off the pairs that R alone leaves
    free, one more than the rows of q's target."""
    def mutant(self):
        kept = exact_linalg.echelon_basis(self.r_basis).free(len(self.pairs))
        return self.V.weights, tuple(self.W2.weights[k] for k in kept)

    monkeypatch.setattr(JohnsonContext, "weight_data", mutant)


def test_r_free_pairs_mutant_fails_the_presentation_route_check(
        fresh_contexts, weights_off_the_free_pairs_of_r):
    with pytest.raises(AssertionError):
        test_johnson.test_q_map_and_weights_match_the_presentation_route(4)


def test_r_free_pairs_mutant_fails_the_weight_certificate(fresh_contexts,
                                                          weights_off_the_free_pairs_of_r):
    with pytest.raises(InternalInconsistencyError,
                       match="not weight homogeneous of its triple's weight"):
        johnson_module_dims(3, 1)


def test_r_free_pairs_mutant_exits_4(capsys, fresh_contexts, weights_off_the_free_pairs_of_r):
    # the weights come from the context, not from the user: no usage error
    code = main(["johnson", "--genus", "3", "--max-degree", "1"])
    assert code == 4
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "inconsistency" and "triple's weight" in out["detail"]


# -- the span of nabla's relation block, seeded by shifting -------------------------

@pytest.fixture
def copies_one_monomial_up(monkeypatch):
    """_leading_span with the rows of monomial t copied to those of monomial
    t + 1: monomial 1 is left without rows, and the last copy lands past the
    last row of the degree."""
    def mutant(self, q):
        first = GradedMap(self.base_dim, self.target_dim, self.blocks[:1]).instantiate(0)
        span = exact_linalg.echelon_basis(first.numerator_columns())
        rows = [(lead, list(row.items())) for lead, row in span.rows.items()]
        for t in range(1, sym_dim(self.base_dim, q)):
            off = (t + 1) * self.target_dim
            for lead, items in rows:
                span.rows[lead + off] = {k + off: x for k, x in items}
        return span

    monkeypatch.setattr(GradedMap, "_leading_span", mutant)


def test_misplaced_copies_mutant_fails_the_seeded_span_property(copies_one_monomial_up,
                                                                first_failure_reported):
    with pytest.raises(AssertionError):
        test_alex_module.test_property_seeded_span_matches_plain_elimination()


def test_misplaced_copies_mutant_fails_the_nabla_cross_check(copies_one_monomial_up):
    # criterion 3: nabla, nabla-bar and direct dims on 54 presentations
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_3_presentation_oracle_equivalence()


@pytest.fixture
def seed_from_any_first_block(monkeypatch):
    """matrix(q) taking the first block's span by shifting whatever its
    shift, so also for the shift-1 cyclic sum of delta3, nabla-bar and q:
    that block has no columns in degree 0, and its span is left empty."""
    def mutant(self, q):
        m = self._matrices.get(q)
        if m is None:
            m = GradedMap(self.base_dim, self.target_dim, self.blocks[1:]).instantiate(q)
            if self.blocks:
                m.seed_span(self._leading_span(q))
            self._matrices[q] = m
        return m

    monkeypatch.setattr(GradedMap, "matrix", mutant)


def test_any_block_seed_mutant_fails_the_seeded_span_property(seed_from_any_first_block,
                                                              first_failure_reported):
    with pytest.raises(AssertionError):
        test_alex_module.test_property_seeded_span_matches_plain_elimination()


def test_any_block_seed_mutant_fails_the_free_nabla_check(seed_from_any_first_block):
    # with no relation, nabla and delta3 have one cokernel
    with pytest.raises(AssertionError):
        test_alex_module.test_nabla_free_equals_delta3()


@pytest.fixture
def later_blocks_unseeded(monkeypatch):
    """matrix(q) holding the later blocks' columns of a map whose first
    block has shift 0, with no span seeded from the first block: nabla is
    ranked without its relation columns."""
    def mutant(self, q):
        m = self._matrices.get(q)
        if m is None:
            if self.blocks and self.blocks[0].shift == 0:
                m = GradedMap(self.base_dim, self.target_dim, self.blocks[1:]).instantiate(q)
            else:
                m = self.instantiate(q)
            self._matrices[q] = m
        return m

    monkeypatch.setattr(GradedMap, "matrix", mutant)


def test_unseeded_mutant_fails_the_seeded_span_property(later_blocks_unseeded,
                                                        first_failure_reported):
    with pytest.raises(AssertionError):
        test_alex_module.test_property_seeded_span_matches_plain_elimination()


def test_unseeded_mutant_fails_the_nabla_cross_check(later_blocks_unseeded):
    # criterion 3: nabla, nabla-bar and direct dims on 54 presentations
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_3_presentation_oracle_equivalence()


# -- nabla's relation block, read off the stored rows of relation_span() ------------

def _relation_block_from(order, scaled):
    """alex_module._relation_block with the rows taken in lead order, or in
    the span's dict order, and scaled over lcm(leads), or left primitive
    over den 1."""
    def mutant(p):
        rows = list(p.relation_span().rows.items())
        if order == "lead":
            rows.sort()
        den = lcm(*(row[l] for l, row in rows)) if scaled else 1
        symbol = tuple(tuple((None, k, c * (den // row[l] if scaled else 1))
                             for k, c in sorted(row.items())) for l, row in rows)
        return alex_module.SymbolBlock("relations", 0, symbol, den)

    return mutant


@pytest.fixture
def relation_rows_over_den_1(monkeypatch):
    """The relation block as the primitive rows over 1: the same span, other
    entries."""
    monkeypatch.setattr(alex_module, "_relation_block", _relation_block_from("lead", False))


@pytest.fixture
def relation_rows_in_dict_order(monkeypatch):
    """The relation block with its rows in the order the span stored them,
    not in lead order."""
    monkeypatch.setattr(alex_module, "_relation_block", _relation_block_from("dict", True))


def test_den_1_relation_mutant_fails_the_rref_numerators_property(relation_rows_over_den_1,
                                                                  first_failure_reported):
    with pytest.raises(AssertionError):
        test_alex_module.test_property_relation_block_is_the_rref_numerators_over_their_lcm()


def test_dict_order_relation_mutant_fails_the_rref_numerators_property(
        relation_rows_in_dict_order, first_failure_reported):
    with pytest.raises(AssertionError):
        test_alex_module.test_property_relation_block_is_the_rref_numerators_over_their_lcm()


# -- the invariance check of quotient_module -------------------------------------------

@pytest.fixture
def quotient_checked_under_raising_operators_only(monkeypatch):
    """quotient_module with its invariance check run over the simple raising
    labels alone, everywhere quotient_module is bound."""
    def mutant(m, spanning):
        eb = exact_linalg.echelon_basis(spanning)
        for v in eb.rows.values():
            for label in m.algebra.raising_labels():
                if not eb.contains(act_vec(m.actions[label], v)):
                    raise ValueError(f"subspace not invariant under {label}")
        quotient = eb.quotient(m.dimension)
        pos = eb.free(m.dimension)
        actions = {label: tuple(quotient.matvec(cols[i]) for i in pos)
                   for label, cols in m.actions.items()}
        return rep_semisimple.WeightModule(m.algebra, len(pos),
                                           tuple(m.weights[i] for i in pos), actions)

    for module in (rep_semisimple, test_rep_semisimple):
        monkeypatch.setattr(module, "quotient_module", mutant)


@pytest.mark.parametrize("spec,label", [(LieAlgebraSpec(1), "V_0"), (LieAlgebraSpec(3), "X_1_0")])
def test_raising_only_quotient_mutant_fails_the_highest_weight_line_check(
        quotient_checked_under_raising_operators_only, spec, label):
    with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
        test_rep_semisimple.test_quotient_module_refuses_a_line_only_the_raising_operators_keep(
            spec, label)


# -- the weights of the orbit route ---------------------------------------------

def _orbit_route_against_plain_rank_g3():
    # the cross-check of test_weighted_rank_matches_plain_instantiation_g3,
    # on the orbit route that johnson_module_dims takes, up to degree 2,
    # where the columns hold monomials of 14 variables
    ctx = johnson_context(3)
    plain = coker_dims(ctx.q_map(), 2).dims
    return johnson_module_dims(3, 2).coker_q, plain


@pytest.fixture
def triple_weight_from_two_of_its_three(monkeypatch):
    """Each generator of a cyclic sum weighed by w_b + w_c, dropping the w_a
    of its triple a < b < c; empty symbols still join no bucket."""
    def mutant(self, base_weights, target_weights, name):
        grouped: dict = {}
        for j, (_a, b, c) in enumerate(combinations(range(self.n), 3)):
            if self[j]:
                grouped.setdefault(tuple(map(add, base_weights[b], base_weights[c])),
                                   []).append(j)
        return lambda w: grouped.get(w, [])

    monkeypatch.setattr(CyclicSumSymbol, "generators_by_weight", mutant)


def test_two_of_three_weight_mutant_fails_the_plain_rank_cross_check(
        fresh_contexts, triple_weight_from_two_of_its_three):
    orbit, plain = _orbit_route_against_plain_rank_g3()
    assert plain == (90, 896, 5355) and orbit != plain


@pytest.fixture
def orbit_size_off_by_one(monkeypatch):
    """|W . mu| one too large for every dominant weight."""
    orbit_size = LieAlgebraSpec.orbit_size
    monkeypatch.setattr(LieAlgebraSpec, "orbit_size", lambda self, w: orbit_size(self, w) + 1)


def test_orbit_size_mutant_fails_the_row_count_check(orbit_size_off_by_one):
    with pytest.raises(InternalInconsistencyError, match="unequal row counts"):
        johnson_module_dims(3, 1)


def test_orbit_size_mutant_exits_4(capsys, orbit_size_off_by_one):
    code = main(["johnson", "--genus", "3", "--max-degree", "1"])
    assert code == 4
    assert json.loads(capsys.readouterr().out)["error"] == "inconsistency"


@pytest.fixture
def bucket_without_one_monomial_weight(monkeypatch):
    """Every bucket formed without the monomials of the last weight listed:
    in degree 1 the monomial 1, in degree 2 the variables of one weight of
    V.  (At genus 3, degree 2, 4 of the 14 weights of V hold only
    redundant columns in the dominant buckets, so dropping one of those
    keeps the rank.)"""
    bucket_keys = alex_module._bucket_keys

    def mutant(gm, mu, monomials_by_weight, generators_by_weight):
        dropped = {shift: dict(list(by_weight.items())[:-1])
                   for shift, by_weight in monomials_by_weight.items()}
        return bucket_keys(gm, mu, dropped, generators_by_weight)

    monkeypatch.setattr(alex_module, "_bucket_keys", mutant)


def test_dropped_monomial_weight_mutant_fails_the_plain_rank_cross_check(
        fresh_contexts, bucket_without_one_monomial_weight):
    orbit, plain = _orbit_route_against_plain_rank_g3()
    assert plain == (90, 896, 5355) and orbit[1] != plain[1] and orbit[2] != plain[2]


# -- the enumeration of Sym_q ------------------------------------------------------

@pytest.fixture
def sym_q_unreversed(monkeypatch):
    """The multisets of combinations_with_replacement read in the order they
    come, not reversed: the same exponent vectors, in the reverse of
    lexicographic order, everywhere monomials is bound, and monomial_index
    emptied before and after."""
    def mutant(n, q):
        if q < 0:
            return ()
        return tuple(tuple(multiset.count(i) for i in range(n))
                     for multiset in combinations_with_replacement(range(n), q))

    for module in (alex_module, test_alex_module):
        monkeypatch.setattr(module, "monomials", mutant)
    alex_module.monomial_index.cache_clear()
    yield
    alex_module.monomial_index.cache_clear()


@pytest.mark.parametrize("check", ["test_monomials_graded_lex",
                                   "test_monomials_match_the_recursive_enumeration",
                                   "test_monomials_past_the_recursion_limit"])
def test_unreversed_sym_q_mutant_fails_the_order_checks(sym_q_unreversed, check):
    with pytest.raises(AssertionError):
        getattr(test_alex_module, check)()


# -- the Galois orbits of the torsion sweep ---------------------------------------

@pytest.fixture
def non_units_in_the_galois_orbits(monkeypatch):
    """Every nonzero u mod m counted as a unit, so that the orbit of an
    exponent vector e also takes in u e for the zero divisors u, and
    multiplying by those need not keep the rank."""
    monkeypatch.setattr(fox_alex, "gcd", lambda u, m: 1 if u else m)


@pytest.mark.parametrize("m", [6, 8])
@pytest.mark.parametrize("p,k", [(TREFOIL, 1), (F2XZ, 1), (X3_COMMUTING, 1), (F2XZ, 2)],
                         ids=["trefoil-k1", "f2xz-k1", "x3-commuting-k1", "f2xz-k2"])
def test_non_unit_orbit_mutant_fails_the_brute_force_sweep(non_units_in_the_galois_orbits,
                                                           p, k, m):
    # the cross-check of test_orbit_sweep_matches_brute_force
    assert torsion_sweep(p, m, k) != _brute_force_sweep(p, m, k)


# -- the rank mod p at torsion characters ------------------------------------------

def twisted_h1_trusting(trusted):
    """twisted_h1_dim with its rank mod p, whose answer (n - 1) - rank_p is
    taken exactly when trusted(rank_p, n): the running code trusts only
    rank_p == n - 1, the one value that the Fox bound rank <= n - 1 makes a
    proof."""
    def twisted_h1_dim(p, rho):
        fox_alex._check_character(p, rho)
        if rho.is_trivial():
            return fox_alex.betti_one(p)
        n, exps = p.num_generators, rho.torsion_exponents()
        if exps is not None:
            rank_p = p.alexander.rank_mod_p(exps, rho.cyclotomic_order())
            if trusted(rank_p, n):
                return (n - 1) - rank_p
        return (n - 1) - echelon_basis(p.alexander.evaluate(rho)).rank

    return twisted_h1_dim


def _patch_twisted_h1(monkeypatch, trusted):
    for module in (fox_alex, test_fox_alex):
        monkeypatch.setattr(module, "twisted_h1_dim", twisted_h1_trusting(trusted))


def test_rank_mod_p_trusted_at_full_rank_passes_the_checks(monkeypatch):
    _patch_twisted_h1(monkeypatch, lambda rank_p, n: rank_p == n - 1)
    test_fox_alex.test_a_bad_prime_falls_back_to_the_exact_rank(monkeypatch)
    test_fox_alex.test_exact_rank_runs_once_per_member_orbit(monkeypatch)


def test_trusted_low_rank_mod_p_mutant_fails_the_bad_prime_check(monkeypatch):
    # every rank mod p taken as the rank: at p = 3 the trefoil's A(-1, -1) =
    # (3, -3) reads rank 0, and dim H_1 reads 1 in place of 0
    _patch_twisted_h1(monkeypatch, lambda rank_p, n: True)
    with pytest.raises(AssertionError):
        test_fox_alex.test_a_bad_prime_falls_back_to_the_exact_rank(monkeypatch)


def test_bound_n_mutant_fails_the_evaluate_count(monkeypatch):
    # rank_p == n never holds, as rank_p <= rank <= n - 1: the shortcut is
    # dead and every orbit is eliminated over Q(zeta_5), 156 in place of 12
    _patch_twisted_h1(monkeypatch, lambda rank_p, n: rank_p == n)
    with pytest.raises(AssertionError):
        test_fox_alex.test_exact_rank_runs_once_per_member_orbit(monkeypatch)


@pytest.fixture
def omega_of_half_order(monkeypatch):
    """At even m, omega^2 in place of omega: a root of order m/2, not of
    Phi_m, so zeta_m -> omega^2 is no ring map and the rank mod p is that
    of A at rho^2."""
    root = fox_alex._modular_root

    def mutant(m):
        p, omega = root(m)
        return p, (omega * omega % p if m % 2 == 0 else omega)

    monkeypatch.setattr(fox_alex, "_modular_root", mutant)


@pytest.mark.parametrize("m", [2, 6, 12])
def test_half_order_omega_mutant_fails_the_root_check(omega_of_half_order, m):
    with pytest.raises(AssertionError):
        test_fox_alex.test_modular_root(m)


@pytest.mark.parametrize("m", [4, 6, 8, 12])
def test_half_order_omega_mutant_fails_the_exact_rank_agreement(omega_of_half_order, m):
    with pytest.raises(AssertionError):
        test_fox_alex.test_rank_mod_p_agrees_with_the_exact_rank(m)


# -- the one-pass read of the Alexander matrix -------------------------------------

def one_pass_read(read_after_step):
    """alexander_matrix's pass over each relator, with a letter x read
    (t^e added to or subtracted from its entry) after its step of e exactly
    when read_after_step(x): the running code reads the inverse letters
    after their decrement and the positive letters before their increment."""
    def alexander_matrix(p):
        n = p.num_generators
        entries: dict = {}
        for r, rel in enumerate(p.relators):
            e = [0] * n
            for x in rel:
                j, step = abs(x) - 1, 1 if x > 0 else -1
                after = read_after_step(x)
                if after:
                    e[j] += step
                axpy(entries.setdefault((r, j), {}), step, {tuple(e): 1})
                if not after:
                    e[j] += step
        return LaurentMatrix(len(p.relators), n, {k: v for k, v in entries.items() if v})

    return alexander_matrix


@pytest.fixture(params=["inverse-before-its-decrement", "positive-after-its-increment"])
def misread_letter(request, monkeypatch):
    """(a) every letter read before its step, so that x_j^-1 subtracts
    t^(e + 1_j) in place of t^e; (b) every letter read after its step, so
    that x_j adds t^(e + 1_j) in place of t^e; everywhere alexander_matrix is
    bound."""
    mutant = one_pass_read(lambda x: request.param.startswith("positive"))
    for module in (fox_alex, test_fox_alex):
        monkeypatch.setattr(module, "alexander_matrix", mutant)


def test_one_pass_read_in_the_running_order_passes_the_cross_check(monkeypatch):
    monkeypatch.setattr(test_fox_alex, "alexander_matrix", one_pass_read(lambda x: x < 0))
    test_fox_alex.test_alexander_matrix_matches_abelianized_fox_derivatives()
    test_fox_alex.test_alexander_z2()


def test_misread_letter_mutant_fails_the_fox_derivative_cross_check(misread_letter):
    with pytest.raises(AssertionError):
        test_fox_alex.test_alexander_matrix_matches_abelianized_fox_derivatives()


def test_misread_letter_mutant_fails_the_z2_matrix(misread_letter):
    with pytest.raises(AssertionError):
        test_fox_alex.test_alexander_z2()


def test_misread_letter_mutant_fails_criterion_8(misread_letter):
    # GroupPresentation.alexander reaches the mutant through fox_alex
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_8_fox_identity()


# -- the input lift of EchelonBasis ------------------------------------------------

@pytest.fixture
def lift_that_aliases_its_input(monkeypatch):
    """An all-int vector handed back as it is instead of copied, so that
    reduce clears pivots in the caller's own dict: the numerator columns a
    RationalMatrix shares with every later product, say."""
    lift = exact_linalg._lift

    def mutant(v):
        return v if all(type(x) is int for x in v.values()) else lift(v)

    monkeypatch.setattr(exact_linalg, "_lift", mutant)


def test_aliasing_lift_mutant_fails_the_kernel_count_check(lift_that_aliases_its_input):
    with pytest.raises(AssertionError):
        test_exact_linalg.test_kernel_count_matches_rank()


# -- the elimination step of EchelonBasis and the product of RationalMatrix ---------

@pytest.fixture
def clear_that_queues_no_lead(monkeypatch):
    """A clear step that queues none of the leads it brings in, as if every
    stored row were inter-reduced: after add, a pivot that a row carries is
    left in the remainder, and add stores the remainder under a lead that
    another row already holds, replacing that row."""
    clear = exact_linalg._clear
    monkeypatch.setattr(exact_linalg, "_clear",
                        lambda r, p, row, rows, heap: clear(r, p, row, {}, heap))


def test_lead_dropping_clear_mutant_fails_the_kernel_count_check(clear_that_queues_no_lead):
    with pytest.raises(AssertionError):
        test_exact_linalg.test_kernel_count_matches_rank()


@pytest.fixture
def matmul_that_skips_one_entry_columns(monkeypatch):
    """A product that skips each column of the right factor with fewer than
    two entries, not only the empty ones: the image of a unit column, a
    column of the left factor, goes missing."""
    def mutant(self, other):
        left_cols, num = self.numerator_columns(), {}
        for j, col in enumerate(other.numerator_columns()):
            if len(col) > 1:
                for i, x in act_vec(left_cols, col).items():
                    num[(i, j)] = x
        return RationalMatrix.from_integers(self.rows, other.cols, num, self.den * other.den)

    monkeypatch.setattr(RationalMatrix, "matmul", mutant)


@pytest.fixture
def first_failure_reported():
    """Hypothesis raises the first failure it draws, unshrunk and alone, not
    a group of the distinct ones, so that pytest.raises sees the
    AssertionError at the cost of one search."""
    hypothesis = pytest.importorskip("hypothesis")
    hypothesis.settings.register_profile(
        "first-failure", report_multiple_bugs=False, database=None,
        phases=[hypothesis.Phase.explicit, hypothesis.Phase.generate])
    hypothesis.settings.load_profile("first-failure")
    yield
    hypothesis.settings.load_profile("default")


def test_one_entry_column_mutant_fails_the_fraction_loops_check(
        matmul_that_skips_one_entry_columns, first_failure_reported):
    with pytest.raises(AssertionError):
        test_exact_linalg.test_property_integer_matrix_matches_fraction_loops()


def test_one_entry_column_mutant_fails_the_round_trip(matmul_that_skips_one_entry_columns):
    # log(exp X) = X on commuting nilpotents
    with pytest.raises(AssertionError):
        test_nilpotent_transport.test_round_trip_random_commuting()


@pytest.fixture
def act_vec_that_skips_one_entry_columns(monkeypatch):
    """act_vec skipping each column with fewer than two entries, not only
    the empty ones, everywhere act_vec is bound: the image of a one-entry
    column goes missing."""
    def mutant(cols, v):
        out = {}
        for j, c in v.items():
            col = cols[j]
            if c and len(col) > 1:
                axpy(out, c, col)
        return out

    for module in (exact_linalg, nilpotent_transport, rep_semisimple, johnson,
                   test_exact_linalg):
        monkeypatch.setattr(module, "act_vec", mutant)


def test_one_entry_act_vec_mutant_fails_the_dense_product_check(
        act_vec_that_skips_one_entry_columns):
    with pytest.raises(AssertionError):
        test_exact_linalg.test_act_vec_on_empty_columns_equals_the_dense_product()


# -- the commutation check and the series of the exp/log transport ------------------

@pytest.fixture
def commutation_check_without_its_last_column(monkeypatch):
    """make's pairwise commutation check stopping one column short: a pair
    whose products differ in the last column alone passes as commuting."""
    def mutant(dimension, matrices, *, invertible):
        mats = tuple(matrices)
        for m in mats:
            if not isinstance(m, RationalMatrix) or m.rows != dimension or m.cols != dimension:
                raise ValueError(f"expected square {dimension}-dim matrices")
            if invertible and m.rank() != dimension:
                raise ValueError("action matrices must be invertible")
        cols = [m.numerator_columns() for m in mats]
        for i, a in enumerate(cols):
            for b in cols[i + 1:]:
                for ac, bc in zip(a[:-1], b[:-1]):
                    if (ac or bc) and act_vec(a, bc) != act_vec(b, ac):
                        raise ValueError("action matrices must commute pairwise")
        return mats

    monkeypatch.setattr(nilpotent_transport, "_check_family", mutant)


def test_last_column_mutant_fails_the_all_but_last_column_check(
        commutation_check_without_its_last_column):
    # the test's own pytest.raises(ValueError) sees nothing raised
    with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
        test_nilpotent_transport.test_family_that_commutes_on_all_but_the_last_column_is_refused()


def test_last_column_mutant_fails_the_products_property(
        commutation_check_without_its_last_column, first_failure_reported):
    with pytest.raises(AssertionError):
        test_nilpotent_transport.test_property_commutation_check_agrees_with_the_products()


@pytest.fixture
def series_without_its_constant_term(monkeypatch):
    """The transport series summed from k = 1: log, whose constant term is
    0, is unchanged, and exp loses its identity."""
    series = nilpotent_transport._nilpotent_series

    def mutant(x, coeff, kind):
        return series(x, lambda k: coeff(k) if k else exact_linalg.ZERO, kind)

    monkeypatch.setattr(nilpotent_transport, "_nilpotent_series", mutant)


def test_constant_free_series_mutant_fails_the_exp_of_zero_check(
        series_without_its_constant_term):
    with pytest.raises(AssertionError):
        test_nilpotent_transport.test_exp_of_zero_is_the_identity()


def test_constant_free_series_mutant_fails_the_round_trip(series_without_its_constant_term):
    # exp X is no longer unipotent, so the log series refuses it
    with pytest.raises(ValueError, match="not unipotent"):
        test_nilpotent_transport.test_round_trip_random_commuting()


# -- the step order of the nilpotence test ------------------------------------------

@pytest.fixture
def snapshot_before_its_step(monkeypatch):
    """Each S_k taken before step k's images join the level, so that at the
    next level step k is applied to S_(k-1): only monomials in distinct
    steps are formed, and N_k^2, for one, never is.  The modules of the bb-nabla cells (q <= 2)
    do not see it: I^3 M is zero by degree, and a smaller I^2 M that is
    still nonzero gives the same exponent 3.  The random commuting families
    and jordan(4) must."""
    def mutant(dimension, steps):
        cols = [m.numerator_columns() for m in steps]
        supports = [{j for j, c in enumerate(col) if c} for col in cols]
        spans = [[{i: 1} for i in range(dimension)]] * len(cols)
        rank, q = dimension, 0
        while rank:
            eb = EchelonBasis()
            for k, (col, support) in enumerate(zip(cols, supports)):
                before = list(eb.rows.values())
                for v in spans[k]:
                    if not support.isdisjoint(v):
                        eb.add(act_vec(col, v))
                spans[k] = before
            if eb.rank == rank:
                return None
            rank, q = eb.rank, q + 1
        return q

    monkeypatch.setattr(nilpotent_transport, "_annihilator_exponent", mutant)


def test_early_snapshot_mutant_fails_the_jordan_exponent_check(snapshot_before_its_step):
    with pytest.raises(AssertionError):
        test_nilpotent_transport.test_filtration_strictly_decreasing_until_zero()


@pytest.mark.parametrize("check", ["random_commuting", "jordan"])
def test_early_snapshot_mutant_fails_the_plain_filtration_cross_check(
        snapshot_before_its_step, check):
    with pytest.raises(AssertionError):
        getattr(test_nilpotent_transport,
                f"test_step_order_matches_plain_filtration_{check}")()


def test_early_snapshot_mutant_fails_the_oracle_check(capsys, snapshot_before_its_step):
    # a free draw on 2 generators reads exponent 3 against dims that never
    # vanish up to degree 3
    assert main(["oracle-check", "--trials", "20", "--seed", "32"]) == 4
    assert "never vanish" in json.loads(capsys.readouterr().out)["detail"]


# -- the free metabelian quotient M = L / L'' of bb_direct --------------------------

@pytest.fixture
def fresh_projected_ad():
    """An empty projected-ad cache for the test, emptied again after it, so
    that no projection built from a mutant's L'' outlives it, nor one built
    before it hides the mutant."""
    quad_lie._metabelian_ad.cache_clear()
    yield
    quad_lie._metabelian_ad.cache_clear()


def _second_derived_mutant(monkeypatch, splits, pairs_kept):
    """quad_lie._second_derived built from the splits a of degree d that
    splits(d) lists, each keeping the pairs that pairs_kept cuts from its
    list, in a cache of its own."""
    cache: dict = {}

    def mutant(n, d):
        if (n, d) not in cache:
            idx = quad_lie.lyndon_index(n, d)
            eb = EchelonBasis()
            for a in splits(d):
                b = d - a
                words_a = quad_lie._lyndon_words_cached(n, a)
                words_b = quad_lie._lyndon_words_cached(n, b)
                pairs = [(wa, wb) for i, wa in enumerate(words_a)
                         for j, wb in enumerate(words_b) if not (a == b and j <= i)]
                for wa, wb in pairs_kept(pairs):
                    res = quad_lie.basis_bracket(wa, wb)
                    if res:
                        eb.add({idx[w]: c for w, c in res})
            cache[n, d] = eb
        return cache[n, d]

    monkeypatch.setattr(quad_lie, "_second_derived", mutant)


@pytest.fixture
def one_pair_skipped(monkeypatch, fresh_projected_ad):
    """L''_d with the loop over pairs of Lyndon words stopping one pair early
    in each split a + b = d, everywhere bb_direct reads it."""
    _second_derived_mutant(monkeypatch, lambda d: range(2, d // 2 + 1), lambda pairs: pairs[:-1])


def test_skipped_pair_mutant_fails_the_all_pairs_cross_check(one_pair_skipped,
                                                             first_failure_reported):
    # the fixed n = 4 draw of test_bb_direct_quotient_words_match_all_pairs_n4_q4
    # has two relations, whose ideal covers the skipped bracket; the property
    # test draws free presentations as well
    with pytest.raises(AssertionError):
        test_quad_lie.test_property_bb_direct_quotient_words_match_all_pairs()


def test_skipped_pair_mutant_fails_the_chen_values(one_pair_skipped):
    with pytest.raises(AssertionError):
        test_quad_lie.test_bb_direct_free_chen_values()
    with pytest.raises(AssertionError):
        test_quad_lie.test_metabelian_free_words_count_the_chen_dims()


def test_skipped_pair_mutant_fails_the_nabla_cross_check(one_pair_skipped):
    # criterion 3: nabla, nabla-bar and direct dims on 54 presentations
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_3_presentation_oracle_equivalence()


def test_skipped_pair_mutant_fails_the_oracle_check(capsys, one_pair_skipped):
    assert main(["oracle-check", "--trials", "20", "--seed", "32"]) == 4
    assert any("presentation routes" in f
               for f in json.loads(capsys.readouterr().out)["failures"])


@pytest.fixture
def equal_split_left_out(monkeypatch, fresh_projected_ad):
    """L''_d with the split a == b = d / 2 left out: [L_2, L_2] is missing
    from L''_4, everywhere bb_direct reads it."""
    _second_derived_mutant(monkeypatch, lambda d: range(2, (d + 1) // 2), lambda pairs: pairs)


def test_equal_split_mutant_fails_the_chen_values(equal_split_left_out):
    with pytest.raises(AssertionError):
        test_quad_lie.test_metabelian_free_words_count_the_chen_dims()
    with pytest.raises(AssertionError):
        test_quad_lie.test_bb_direct_free_chen_values()


def test_equal_split_mutant_fails_the_nabla_cross_check(equal_split_left_out):
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_3_presentation_oracle_equivalence()


@pytest.fixture
def ad_projected_by_reduce(monkeypatch):
    """The projected ad_{e_i} with each column read through
    ``L''_{q+1}.reduce`` in place of the quotient map: each column comes out
    times its own positive factor.  The mutant builds L'' afresh, its rows as
    added and not inter-reduced, as nothing inter-reduces them when the
    quotient map is never read, and keeps its matrices in a cache of its
    own."""
    cache: dict = {}

    def mutant(n, i, q):
        if (n, i, q) not in cache:
            second = quad_lie._second_derived.__wrapped__(n, q + 1)
            tgt = second.free(len(quad_lie._lyndon_words_cached(n, q + 1)))
            src = quad_lie._metabelian_free(n, q)
            ad = quad_lie.ad_generator_matrix(n, i, q).numerator_columns()
            num = {(tgt[r], t): x for t, k in enumerate(src)
                   for r, x in second.reduce(ad[k]).items()}
            cache[n, i, q] = RationalMatrix.from_integers(len(tgt), len(src), num)
        return cache[n, i, q]

    for module in (quad_lie, test_quad_lie):
        monkeypatch.setattr(module, "_metabelian_ad", mutant)


def test_reduce_mutant_fails_the_projected_ad_check(ad_projected_by_reduce):
    with pytest.raises(AssertionError):
        test_quad_lie.test_metabelian_ad_is_ad_modulo_second_derived()


def test_reduce_mutant_fails_the_nabla_cross_check(ad_projected_by_reduce):
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_3_presentation_oracle_equivalence()


# -- the zero and the filled degrees of the ideal ----------------------------------------

def _ideal_echelon_mutant(monkeypatch, zero=lambda rank: not rank, filled_rows=lambda size: size,
                          read=lambda spans, k: spans[k],
                          kept=lambda before, after: after):
    """_ideal_echelon with its zero test zero(rank), a filled degree written
    down as filled_rows(dim M_q) unit rows, step k reading the rows
    read(spans, k) of the degree below, and S_k of the next degree kept as
    kept(rows before step k, rows after it), everywhere _ideal_echelon is
    bound.  The mutant keeps its pieces in a cache of its own, so that no
    presentation is left holding them."""
    cache: dict = {}

    def mutant(p, q):
        if q == 2:
            return p.relation_span()
        if (id(p), q) not in cache:
            n = p.dim_v
            prev = mutant(p, q - 1)
            eb, spans = EchelonBasis(), None
            if zero(prev.rank):
                pass
            elif prev.rank == quad_lie._metabelian_dim(n, q - 1):
                eb.rows = {k: {k: 1} for k in range(filled_rows(
                    quad_lie._metabelian_dim(n, q)))}
            else:
                # every S_k of R, or of a degree written down, is all of it
                below = (q > 3 and cache[(id(p), q - 1)][2]) or [list(prev.rows.values())] * n
                spans = []
                for k in range(n):
                    ad = quad_lie._metabelian_ad(n, k, q - 1)
                    before = list(eb.rows.values())
                    for v in read(below, k):
                        eb.add(ad.matvec(v))
                    spans.append(kept(before, list(eb.rows.values())))
            cache[(id(p), q)] = p, eb, spans
        return cache[(id(p), q)][1]

    for module in (quad_lie, test_quad_lie, test_johnson):
        monkeypatch.setattr(module, "_ideal_echelon", mutant)


@pytest.fixture
def filled_basis_one_row_short(monkeypatch):
    """A degree that fills M_q written down one unit row short, its last
    coordinate left out."""
    _ideal_echelon_mutant(monkeypatch, filled_rows=lambda size: size - 1)


def test_short_filled_basis_mutant_fails_the_nabla_cross_check(filled_basis_one_row_short):
    # criterion 3: nabla, nabla-bar and direct dims on 54 presentations
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_3_presentation_oracle_equivalence()


def test_short_filled_basis_mutant_fails_the_all_pairs_cross_check(
        filled_basis_one_row_short, first_failure_reported):
    with pytest.raises(AssertionError):
        test_quad_lie.test_property_bb_direct_quotient_words_match_all_pairs()


def test_short_filled_basis_mutant_fails_the_plain_elimination_cross_check(
        filled_basis_one_row_short, first_failure_reported):
    with pytest.raises(AssertionError):
        test_quad_lie.test_property_ideal_echelon_matches_plain_elimination()


def test_short_filled_basis_mutant_fails_the_filled_golden(filled_basis_one_row_short):
    with pytest.raises(AssertionError):
        test_golden.test_golden_stdout("bb_direct_filled")


@pytest.fixture
def zero_shortcut_at_rank_one(monkeypatch):
    """The zero shortcut firing after a degree of rank <= 1, not only after
    a zero one: one relation reads as none from degree 3 on."""
    _ideal_echelon_mutant(monkeypatch, zero=lambda rank: rank <= 1)


def test_rank_one_zero_mutant_fails_the_quotient_dims(zero_shortcut_at_rank_one):
    with pytest.raises(AssertionError):
        test_quad_lie.test_graded_piece_dimensions()


def test_rank_one_zero_mutant_fails_the_plain_elimination_cross_check(
        zero_shortcut_at_rank_one, first_failure_reported):
    with pytest.raises(AssertionError):
        test_quad_lie.test_property_ideal_echelon_matches_plain_elimination()


def test_rank_one_zero_mutant_fails_the_nabla_cross_check(zero_shortcut_at_rank_one):
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_3_presentation_oracle_equivalence()


@pytest.fixture
def step_span_read_before_its_images(monkeypatch):
    """S_k of the next degree kept as the rows from before step k's images
    were added: the monomials whose largest step is k are left out of it."""
    _ideal_echelon_mutant(monkeypatch, kept=lambda before, after: before)


def test_early_span_mutant_fails_the_plain_elimination_cross_check(
        step_span_read_before_its_images, first_failure_reported):
    with pytest.raises(AssertionError):
        test_quad_lie.test_property_ideal_echelon_matches_plain_elimination()


def test_early_span_mutant_fails_the_nabla_cross_check(step_span_read_before_its_images):
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_3_presentation_oracle_equivalence()


@pytest.fixture
def every_step_reading_s0(monkeypatch):
    """Every step reading S_0 of the degree below, the monomials with step
    0 alone, in place of its own S_k."""
    _ideal_echelon_mutant(monkeypatch, read=lambda spans, k: spans[0])


def test_s0_mutant_fails_the_plain_elimination_cross_check(every_step_reading_s0,
                                                           first_failure_reported):
    with pytest.raises(AssertionError):
        test_quad_lie.test_property_ideal_echelon_matches_plain_elimination()


def test_s0_mutant_fails_the_nabla_cross_check(every_step_reading_s0):
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_3_presentation_oracle_equivalence()


# -- the one-vector centrality check ------------------------------------------------

def _rewritten(function, old: str, new: str):
    """function compiled again from its source with the one occurrence of old
    replaced by new, over its own module's globals, so a patch of the
    module is seen by the rewritten function too."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1
    module_code = compile(source.replace(old, new), inspect.getsourcefile(function), "exec",
                          flags=__future__.annotations.compiler_flag, dont_inherit=True)
    code = next(c for c in module_code.co_consts
                if isinstance(c, types.CodeType) and c.co_name == function.__name__)
    rewritten = types.FunctionType(code, function.__globals__, function.__name__,
                                   function.__defaults__)
    rewritten.__kwdefaults__ = function.__kwdefaults__
    return rewritten


def test_skipped_r_certificate_mutant_fails_the_traded_r_refusal(
        capsys, monkeypatch, fresh_contexts, certificate_without_its_weight_0_images_in_r):
    # R + C z is unchanged by the trade, so only the weight-0 images of (c)
    # tested in R_0 refuse it
    with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
        test_johnson.test_central_z_refuses_an_r_traded_within_r_plus_cz(capsys, monkeypatch,
                                                                         None)


@pytest.mark.parametrize("command", [["johnson", "--genus", "4", "--max-degree", "1"],
                                     ["decompose", "--genus", "4", "--central-z"]])
def test_z_unlowered_certificate_mutant_fails_the_moved_z_refusal(
        capsys, monkeypatch, fresh_contexts, certificate_without_z_lowered, command):
    # z + r0, r0 of weight 0 in R, has weight 0 and the same R + C z: only
    # the lowering operators applied to z refuse it
    with pytest.raises(AssertionError):
        test_johnson.test_a_z_moved_within_r_plus_cz_exits_4(
            capsys, monkeypatch, None, command, "weight 0", "z is not invariant under X_1_0")


def test_weightless_z_certificate_mutant_fails_the_moved_z_refusal(
        capsys, monkeypatch, fresh_contexts, certificate_without_the_weight_of_z):
    # z + r, r a lowest-weight vector of R, is killed by every f_i and
    # leaves R + C z as it is: only the weight of z refuses it
    with pytest.raises(AssertionError):
        test_johnson.test_a_z_moved_within_r_plus_cz_exits_4(
            capsys, monkeypatch, None, ["decompose", "--genus", "4", "--central-z"], "lowest",
            "z is not of weight 0")


@pytest.fixture
def membership_read_at_another_weight(monkeypatch):
    """central_z_check testing the line of weight (1, 1, -1, 0, ...), in the
    Weyl orbit of lambda_3, everywhere central_z_check is bound."""
    mutant = _rewritten(johnson.central_z_check, "(1, 1, 1) + (0,) * (g - 3)",
                        "(1, 1, -1) + (0,) * (g - 3)")
    for module in (johnson, cli, test_johnson):
        monkeypatch.setattr(module, "central_z_check", mutant)


def test_other_weight_mutant_fails_the_one_block_check(monkeypatch, fresh_contexts,
                                                       membership_read_at_another_weight):
    # once R is invariant every nonzero vector of V gives the same answer,
    # false at g = 3 and true at g = 4: only the block's weight shows the
    # mutant
    with pytest.raises(AssertionError):
        test_johnson.test_central_z_eliminates_one_block_of_weight_lambda3_g4(monkeypatch,
                                                                              None)
    test_johnson.test_central_z_check_agrees_with_the_every_block_oracle(3, False)
    test_johnson.test_central_z_check_agrees_with_the_every_block_oracle(4, True)


@pytest.fixture
def z_outside_r_plus_cz(monkeypatch, fresh_contexts, certificate_without_z_lowered):
    """The z that central_z_check brackets at g = 4 replaced by a pair vector
    of weight 0 outside R + C z, once rz_span, which certify_invariance
    reads, is built from the true z, and the certificate with no f_i
    applied to z, which alone refuses that z."""
    ctx = johnson_context(4)
    span = ctx.rz_span
    k = next(k for k, w in enumerate(ctx.W2.weights)
             if not any(w) and not span.contains({k: 1}))
    monkeypatch.setattr(ctx, "z_vec", {k: 1})


def test_z_outside_mutant_fails_the_every_block_agreement(z_outside_r_plus_cz):
    # the weakened certificate passes, and the answer turns false
    with pytest.raises(AssertionError):
        test_johnson.test_central_z_check_agrees_with_the_every_block_oracle(4, True)
    assert johnson.central_z_check(4) is False
