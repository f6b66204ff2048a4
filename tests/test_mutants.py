"""Wrong versions of the shortcuts the answers rest on, each patched in to
show that a committed cross-check or certificate catches it.

A mutant test adds to the check it exercises and never replaces it: the
check itself stays in its own test file, and here it must fail."""

import json
from itertools import combinations
from operator import add

import pytest

from infalex import (alex_module, cli, exact_linalg, fox_alex, nilpotent_transport, quad_lie,
                     rep_semisimple)
from infalex.alex_module import CyclicSumSymbol, coker_dims
from infalex.cli import main
from infalex.errors import InternalInconsistencyError
from infalex.exact_linalg import EchelonBasis, act_vec
from infalex.fox_alex import torsion_sweep
from infalex.johnson import JohnsonContext, johnson_context, johnson_module_dims
from infalex.rep_semisimple import (LieAlgebraSpec, casimir_blocks, fundamental_module,
                                    wedge_power)

import test_acceptance
import test_exact_linalg
import test_nilpotent_transport
import test_quad_lie
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


# -- the input lift of EchelonBasis ------------------------------------------------

@pytest.fixture
def lift_that_aliases_its_input(monkeypatch):
    """An all-int vector handed back as it is instead of copied, so that
    reduce clears pivots in the caller's own dict: the numerator columns a
    RationalMatrix shares with every later product, say."""
    lift = exact_linalg._lift

    def mutant(v):
        return (v, 1) if all(type(x) is int for x in v.values()) else lift(v)

    monkeypatch.setattr(exact_linalg, "_lift", mutant)


def test_aliasing_lift_mutant_fails_the_kernel_count_check(lift_that_aliases_its_input):
    with pytest.raises(AssertionError):
        test_exact_linalg.test_kernel_count_matches_rank()


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


# -- the quotient-word loop of bb_direct ---------------------------------------------

@pytest.fixture
def one_pair_skipped(monkeypatch):
    """bb_direct with the loop over pairs of free words stopping one pair
    early in each split a + b = q + 2, everywhere bb_direct is bound."""
    def mutant(p, q):
        n, d = p.dim_v, q + 2
        span = quad_lie._ideal_echelon(p, d).copy()
        idx = quad_lie.lyndon_index(n, d)
        for a in range(2, d // 2 + 1):
            b = d - a
            words_a = quad_lie._lyndon_words_cached(n, a)
            words_b = quad_lie._lyndon_words_cached(n, b)
            free_a = [words_a[k] for k in quad_lie._ideal_echelon(p, a).free(len(words_a))]
            free_b = [words_b[k] for k in quad_lie._ideal_echelon(p, b).free(len(words_b))]
            pairs = [(wa, wb) for i, wa in enumerate(free_a) for j, wb in enumerate(free_b)
                     if not (a == b and j <= i)]
            for wa, wb in pairs[:-1]:
                res = quad_lie.basis_bracket(wa, wb)
                if res:
                    span.add({idx[w]: c for w, c in res})
        words = quad_lie._lyndon_words_cached(n, d)
        basis = [words[i] for i in span.free(len(words))]
        return len(basis), basis

    for module in (quad_lie, test_quad_lie, test_acceptance, cli):
        monkeypatch.setattr(module, "bb_direct", mutant)


def test_skipped_pair_mutant_fails_the_all_pairs_cross_check(one_pair_skipped):
    with pytest.raises(AssertionError):
        test_quad_lie.test_bb_direct_quotient_words_match_all_pairs_n4_q4()


def test_skipped_pair_mutant_fails_the_nabla_cross_check(one_pair_skipped):
    # criterion 3: nabla, nabla-bar and direct dims on 54 presentations
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_3_presentation_oracle_equivalence()


def test_skipped_pair_mutant_fails_the_oracle_check(capsys, one_pair_skipped):
    assert main(["oracle-check", "--trials", "20", "--seed", "32"]) == 4
    assert any("presentation routes" in f
               for f in json.loads(capsys.readouterr().out)["failures"])
