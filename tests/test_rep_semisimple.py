from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

from infalex import rep_semisimple
from infalex.exact_linalg import RationalMatrix, echelon_basis
from infalex.rep_semisimple import (HighestWeight, LieAlgebraSpec, act_vec,
                                    casimir_blocks, casimir_eigenvalue, defining_module,
                                    fundamental_module, highest_weight_vectors,
                                    WeightModule, quotient_module, wedge_act,
                                    wedge_power, weyl_dim, _algebra_basis,
                                    _dense_block_polynomial, _integral_dual,
                                    _wedge_parity_and_target)

from module_builders import (AmbiguousDecompositionError, all_blocks_highest_weight_vectors,
                             casimir_eigenspace, casimir_matrix, chen_module_weight,
                             fraction_casimir_column, gram_dual, inversion_parity_and_target,
                             isotypic_projection, lowering_closure, matmul_block_polynomial,
                             matrix_from_columns, matrix_sum, scale, sl_weyl_dim, span_closure,
                             sym_power, tensor_product, theta_wedge_vectors, transpose,
                             weyl_orbit)

SP1 = LieAlgebraSpec(1)   # sp(2), which is sl(2)
SP2 = LieAlgebraSpec(2)
SP3 = LieAlgebraSpec(3)


# -- structural checks on the algebra bases -----------------------------------

@pytest.mark.parametrize("spec", [SP3, SP2, SP1, LieAlgebraSpec(4)])
def test_defining_matrices_form_the_algebra(spec):
    basis = list(defining_module(spec).actions.items())
    g = spec.rank
    d = 2 * g
    theta = {}
    for i in range(g):
        theta[(i, g + i)] = Fraction(1)
        theta[(g + i, i)] = Fraction(-1)
    J = RationalMatrix(d, d, theta)
    for _label, cols in basis:
        X = RationalMatrix(d, d, {(r, j): v for j, col in enumerate(cols)
                                  for r, v in col.items()})
        assert matrix_sum(transpose(X).matmul(J), J.matmul(X)) == RationalMatrix(d, d)
    # count = dimension of the algebra
    assert len(basis) == g * (2 * g + 1)


def test_spec_is_sp_of_positive_rank():
    assert LieAlgebraSpec(1) == SP1 and defining_module(SP1).dimension == 2
    with pytest.raises(ValueError):
        LieAlgebraSpec(0)


@pytest.mark.parametrize("spec", [SP3, SP2])
def test_cartan_relations_on_defining(spec):
    # [h_i, e_j] = a_ij e_j with a the Cartan matrix, checked as matrices
    m = defining_module(spec)
    raising = spec.raising_labels()
    num = spec.rank
    for i in range(num):
        # h_i as a diagonal matrix from the weights
        hi = RationalMatrix(m.dimension, m.dimension,
                            {(t, t): Fraction(spec.simple_coroot_pairing(m.weights[t], i))
                             for t in range(m.dimension)})
        for j, label in enumerate(raising):
            e = matrix_from_columns(m.actions[label], m.dimension)
            commutator = matrix_sum(hi.matmul(e), e.matmul(hi), -1)
            # a_ij = <alpha_j, alpha_i^vee>; read alpha_j off any vector it moves
            aij = None
            for col in range(m.dimension):
                img = e.numerator_columns()[col]
                if img:
                    row = next(iter(img))
                    alpha_j = tuple(a - b for a, b in zip(m.weights[row], m.weights[col]))
                    aij = spec.simple_coroot_pairing(alpha_j, i)
                    break
            assert commutator == scale(e, aij)


# -- Weyl dimension formula ----------------------------------------------------

def test_weyl_sl2_classical():
    # sp(2) is sl(2): V(q lambda_1) is Sym^q of the defining module
    for q in range(7):
        assert weyl_dim(SP1, HighestWeight((q,))) == q + 1 == sl_weyl_dim(2, HighestWeight((q,)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_weyl_chen_weights(n):
    for q in range(6):
        assert sl_weyl_dim(n, chen_module_weight(n, q)) == comb(q + n, q + 2) * (q + 1)


@pytest.mark.slow
@pytest.mark.parametrize("n", [2, 3, 4])
def test_weyl_chen_equals_free_invariant(n):
    # the graded invariant of the free Lie algebra carries the irreducible
    # of highest weight q l1 + l2 in each degree
    from infalex.quad_lie import LiePresentation, bb_direct
    p = LiePresentation.make(n, [])
    for q in range(5):
        assert sl_weyl_dim(n, chen_module_weight(n, q)) == bb_direct(p, q)[0]


def test_weyl_sp_values():
    assert weyl_dim(SP3, HighestWeight((0, 2, 0))) == 90
    assert weyl_dim(SP3, HighestWeight((0, 0, 1))) == 14
    assert weyl_dim(SP3, HighestWeight((1, 0, 0))) == 6
    sp4 = LieAlgebraSpec(4)
    assert weyl_dim(sp4, HighestWeight((0, 2, 0, 0))) == 308
    assert weyl_dim(sp4, HighestWeight((0, 0, 1, 0))) == 48
    assert weyl_dim(SP2, HighestWeight((0, 1))) == 5


def test_fundamental_module_dims():
    assert fundamental_module(SP3, 1).dimension == 6
    assert fundamental_module(SP3, 2).dimension == 14               # C(6,2)-1
    assert fundamental_module(SP3, 3).dimension == 20 - 6           # C(6,3)-6
    assert fundamental_module(LieAlgebraSpec(4), 3).dimension == 56 - 8
    for k in (1, 2, 3):
        m = fundamental_module(SP3, k)
        assert m.dimension == weyl_dim(SP3, HighestWeight(
            tuple(1 if t == k - 1 else 0 for t in range(3))))


def test_fundamental_module_range_errors():
    for k in (0, 4):
        with pytest.raises(ValueError):
            fundamental_module(SP3, k)


def test_theta_sign_rule_matches_the_inversion_count(monkeypatch):
    # fundamental_module signs theta ^ rest by the entries of rest strictly
    # between i and g+i; the vectors it hands quotient_module must be those
    # whose signs count every inversion of (i, g+i, rest...), in key order
    seen = []

    def spy(m, spanning):
        seen.append([list(v.items()) for v in spanning])
        return quotient_module(m, spanning)

    monkeypatch.setattr(rep_semisimple, "quotient_module", spy)
    cases = [(g, k) for g in range(2, 6) for k in range(2, min(4, g) + 1)]
    for g, k in cases:
        fundamental_module(LieAlgebraSpec(g), k)
    assert len(seen) == len(cases) == 9
    for (g, k), vectors in zip(cases, seen):
        assert vectors == [list(v.items()) for v in theta_wedge_vectors(g, k)], (g, k)


@pytest.mark.parametrize("spec,label", [(SP1, "V_0"), (SP2, "X_1_0"), (SP3, "X_1_0")],
                         ids=["sp2", "sp4", "sp6"])
def test_quotient_module_refuses_a_line_only_the_raising_operators_keep(spec, label):
    # e_0 spans the highest-weight line of H: every raising operator kills
    # it, and the first lowering label in basis order moves it to e_1
    m = defining_module(spec)
    assert not any(act_vec(m.actions[r], {0: 1}) for r in spec.raising_labels())
    with pytest.raises(ValueError, match=f"^subspace not invariant under {label}$"):
        quotient_module(m, [{0: 1}])


# -- Casimir -------------------------------------------------------------------

def test_casimir_trivial_module():
    triv = sym_power(defining_module(SP1), 0)
    assert triv.dimension == 1
    assert casimir_matrix(triv).is_zero()


def test_casimir_scalar_on_defining():
    m = defining_module(SP3)
    c = casimir_matrix(m)
    ev = casimir_eigenvalue(SP3, HighestWeight((1, 0, 0)))
    assert ev == Fraction(7, 2)
    assert c == scale(RationalMatrix.identity(m.dimension), ev)
    # sp(2) = sl(2): the trace form gives the defining module 3/2
    ev1 = casimir_eigenvalue(SP1, HighestWeight((1,)))
    assert ev1 == Fraction(3, 2)
    assert casimir_matrix(defining_module(SP1)) == scale(RationalMatrix.identity(2), ev1)


def test_casimir_commutes_with_action():
    m = fundamental_module(SP3, 2)
    c = casimir_matrix(m)
    for label in ("H_0", "X_0_1", "U_2", "Z_1_2", "Y_0_1", "V_0"):
        a = matrix_from_columns(m.actions[label], m.dimension)
        assert c.matmul(a) == a.matmul(c)


def test_casimir_eigenspaces_fill_module():
    m = wedge_power(defining_module(SP3), 2)   # 15-dim: V(l2) + trivial
    hwv = highest_weight_vectors(m)
    eigen = sorted({casimir_eigenvalue(SP3, hw) for hw, _ in hwv})
    total = sum(len(casimir_eigenspace(m, c)) for c in eigen)
    assert total == m.dimension


# -- highest weight vectors ------------------------------------------------------

def test_hw_vector_of_irreducible():
    m = fundamental_module(SP3, 3)
    hwv = highest_weight_vectors(m)
    assert len(hwv) == 1
    hw, vec = hwv[0]
    assert hw == HighestWeight((0, 0, 1))
    for label in SP3.raising_labels():
        assert act_vec(m.actions[label], vec) == {}


def test_clebsch_gordan_sl2():
    v = defining_module(SP1)
    m = tensor_product(v, v)
    hwv = highest_weight_vectors(m)
    weights = sorted(hw.coefficients for hw, _ in hwv)
    assert weights == [(0,), (2,)]


def test_sym_tensor_wedge_weights():
    v = defining_module(SP2)
    m = tensor_product(sym_power(v, 2), wedge_power(v, 2))
    hwv = highest_weight_vectors(m)
    # contains the Cartan component 2 l1 + l2 of V(2 l1) (x) V(l2)
    assert any(hw == HighestWeight((2, 1)) for hw, _ in hwv)


# -- isotypic projections ---------------------------------------------------------

def test_projection_identity_on_irreducible():
    m = fundamental_module(SP3, 3)
    p = isotypic_projection(m, HighestWeight((0, 0, 1)))
    assert p == RationalMatrix.identity(m.dimension)


def test_projection_idempotent_equivariant():
    m = wedge_power(defining_module(SP3), 2)
    p = isotypic_projection(m, HighestWeight((0, 1, 0)))
    assert p.matmul(p) == p
    assert p.rank() == 14
    for label in ("X_0_1", "U_0", "V_2"):
        a = matrix_from_columns(m.actions[label], m.dimension)
        assert p.matmul(a) == a.matmul(p)
    p0 = isotypic_projection(m, HighestWeight((0, 0, 0)))
    assert p0.rank() == 1
    assert p0.matmul(p) == RationalMatrix(m.dimension, m.dimension)


def test_projection_of_absent_constituent_is_zero():
    m = fundamental_module(SP3, 3)
    p = isotypic_projection(m, HighestWeight((1, 0, 0)))
    assert p.is_zero()


def test_projection_multiplicity_refusal():
    v = defining_module(SP1)
    # (V (x) V) (x) V contains V(1) with multiplicity 2
    m = tensor_product(tensor_product(v, v), v)
    with pytest.raises(AmbiguousDecompositionError):
        isotypic_projection(m, HighestWeight((1,)))


def test_weights_sum_to_module():
    m = fundamental_module(SP3, 3)
    decomp = m.weight_decomposition()
    assert sum(len(ix) for ix in decomp.values()) == m.dimension


# -- the Weyl group of type C -------------------------------------------------

@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_weyl_helpers_match_brute_force(g):
    # every weight of the box [-3, 3]^g against its enumerated orbit
    spec = LieAlgebraSpec(g)
    box = list(product(range(-3, 4), repeat=g))
    seen = set()
    for w in box:
        if w in seen:
            continue
        orbit = weyl_orbit(w)
        seen |= orbit
        for u in orbit:
            assert spec.dominant(u) == max(orbit)
            assert spec.orbit_size(u) == len(orbit)
    # the box is a union of orbits, one per dominant weight in it
    assert sum(spec.orbit_size(w) for w in box if spec.dominant(w) == w) == 7 ** g


@pytest.mark.parametrize("spec", [SP3, SP2, SP1])
def test_lowering_labels_pair_with_raising_labels(spec):
    # on the defining module each raising operator moves weights by a simple
    # root alpha_i, and the lowering operator at the same position by -alpha_i
    m = defining_module(spec)
    for up, down in zip(spec.raising_labels(), spec.lowering_labels()):
        shifts = {}
        for label, sign in ((up, 1), (down, -1)):
            for j, col in enumerate(m.actions[label]):
                for i in col:
                    shift = tuple(sign * (a - b) for a, b in zip(m.weights[i], m.weights[j]))
                    shifts.setdefault(label, set()).add(shift)
        assert len(shifts[up]) == 1
        assert shifts[up] == shifts[down]


# -- the integer kernels against their Fraction references ----------------------

def _sym_quotient(spec):
    """Sym^2 H (x) H / Sym^3 H for sp(2g), in the quotient coordinates of
    quotient_module: its actions have denominator 2.  At g = 1 it is the
    irreducible V(lambda_1), at g = 2 it has 20 dimensions."""
    h = defining_module(spec)
    m = tensor_product(sym_power(h, 2), h)
    top_weight = HighestWeight((3,) + (0,) * (spec.rank - 1))
    top = next(vec for hw, vec in highest_weight_vectors(m) if hw == top_weight)
    return quotient_module(m, lowering_closure(m, top))


@pytest.mark.parametrize("spec", [SP1, SP2, SP3], ids=["sp2", "sp4", "sp6"])
def test_span_closure_spans_the_lowering_closure(spec):
    # the closure that keeps only the images that grow the span, against the
    # one that keeps every image: Sym^3 H inside Sym^2 H (x) H
    h = defining_module(spec)
    m = tensor_product(sym_power(h, 2), h)
    top_weight = HighestWeight((3,) + (0,) * (spec.rank - 1))
    top = next(vec for hw, vec in highest_weight_vectors(m) if hw == top_weight)
    closure = span_closure(m, [top])
    assert closure.rows == echelon_basis(lowering_closure(m, top)).rows
    assert closure.rank == weyl_dim(spec, top_weight) == comb(2 * spec.rank + 2, 3)


def _denominators(m):
    return {x.denominator for cols in m.actions.values() for col in cols for x in col.values()}


def _row_key_orders(mat):
    # the key order of each row is what kernel_basis, and so the recorded
    # johnson_context digests, can see of an entry order
    rows = [[] for _ in range(mat.rows)]
    for i, j in mat.entries:
        rows[i].append(j)
    return rows


@pytest.mark.parametrize("g", range(1, 8))
def test_label_pairing_is_the_inverse_gram_matrix(g):
    # the dual basis read off the labels, one partner per element over
    # D = 2, against the Gram matrix of the trace form inverted whole; read
    # through the module, so that a patched pairing is the one checked
    spec = LieAlgebraSpec(g)
    rows, d = rep_semisimple._integral_dual(spec)
    dual = gram_dual(spec)
    assert d == 2 and len(rows) == len(dual) == g * (2 * g + 1)
    assert [dict(row) for row in rows] == [{b: d * c for b, c in enumerate(coeffs) if c}
                                          for coeffs in dual]


def test_casimir_blocks_match_fraction_columns():
    sp_module = wedge_power(fundamental_module(SP3, 3), 2)
    quotient, irreducible = _sym_quotient(SP2), _sym_quotient(SP1)
    for m in (quotient, irreducible):
        assert _denominators(m) == {1, 2}, "the quotient should have fractional actions"
    for spec in (SP1, SP2, SP3):
        assert _integral_dual(spec)[1] > 1, "the dual coefficients should have denominators"
    for m in (sp_module, quotient, irreducible, defining_module(SP1)):
        blocks = casimir_blocks(m)
        decomp = m.weight_decomposition()
        assert list(blocks) == sorted(decomp)
        for w, block in blocks.items():
            idx = decomp[w]
            pos = {i: t for t, i in enumerate(idx)}
            expected = matrix_from_columns(
                [{pos[r]: v for r, v in fraction_casimir_column(m, j).items()} for j in idx],
                len(idx))
            assert list(block.entries.items()) == list(expected.entries.items())
            assert all(type(x) is Fraction for x in block.entries.values())
    # the quotient at g = 1 is irreducible: its Casimir is one scalar
    assert irreducible.dimension == 2
    c = casimir_eigenvalue(SP1, HighestWeight((1,)))
    assert casimir_matrix(irreducible) == scale(RationalMatrix.identity(2), c)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: fundamental_module(SP3, 3), id="sp6-lambda3"),
    pytest.param(lambda: fundamental_module(LieAlgebraSpec(4), 3), id="sp8-lambda3"),
    pytest.param(lambda: _sym_quotient(SP1), id="sp2-sym-quotient"),
    pytest.param(lambda: _sym_quotient(SP2), id="sp4-sym-quotient"),
])
def test_wedge2_casimir_blocks_match_the_wedge_square(make):
    # the Casimir of wedge^2 m assembled from the actions of m against the
    # Casimir of the module wedge_power(m, 2), whose actions are all built;
    # the quotients have fractional actions, so dm > 1 there
    m = make()
    assembled = casimir_blocks(m, 2)
    square = casimir_blocks(wedge_power(m, 2))
    assert list(assembled) == list(square)
    for w, block in square.items():
        assert assembled[w] == block


def test_casimir_blocks_of_other_wedge_powers_are_refused():
    with pytest.raises(ValueError):
        casimir_blocks(defining_module(SP3), 3)


def test_lazy_wedge_actions_match_an_eager_build_g3():
    # every label read off the lazy actions against the columns that
    # wedge_act gives, label by label and combo by combo, built up front
    v = fundamental_module(SP3, 3)
    combos = list(combinations(range(v.dimension), 2))
    index = {c: i for i, c in enumerate(combos)}
    eager = {label: tuple({index[new]: x for new, x in wedge_act(cols, combo).items()}
                          for combo in combos)
             for label, cols in v.actions.items()}
    lazy = wedge_power(v, 2).actions
    assert not _built_labels(lazy)
    # repr: the same columns with the same key order and scalar types
    assert repr({label: lazy[label] for label in lazy}) == repr(eager)


def _built_columns(cols) -> list[int]:
    return sorted(cols._built)


def _built_labels(actions) -> list[str]:
    return sorted(label for label, cols in actions.items() if cols._built)


def test_lazy_columns_are_built_one_at_a_time_and_kept():
    v = fundamental_module(SP3, 3)
    cols = wedge_power(v, 2).actions[SP3.raising_labels()[0]]
    assert not _built_columns(cols)
    col = cols[5]
    assert cols[5] is col and cols[5 - len(cols)] is col and _built_columns(cols) == [5]
    with pytest.raises(IndexError):
        cols[len(cols)]
    assert len(tuple(cols)) == len(cols) == comb(v.dimension, 2) == len(_built_columns(cols))


# indices and slices of every kind, read before any column is built
_READS = (-1, -3, 0, slice(0, 3), slice(None), slice(None, None, -1), slice(-4, None),
          slice(2, -2, 3), slice(-2, 1, -2), slice(5, 2), slice(-100, 100))


@pytest.mark.parametrize("key", _READS)
@pytest.mark.parametrize("g,label", [(2, "X_0_1"), (3, "Y_0_2")])
def test_wedge_action_reads_as_the_tuple_of_its_columns(g, label, key):
    v = defining_module(SP2) if g == 2 else fundamental_module(SP3, 3)
    cols = wedge_power(v, 2).actions[label]
    assert cols[key] == tuple(wedge_power(v, 2).actions[label])[key]
    with pytest.raises(IndexError):
        cols[len(cols)]
    with pytest.raises(IndexError):
        cols[-len(cols) - 1]


def test_highest_weight_search_builds_only_the_dominant_columns():
    # the raising operators are read on the dominant weight blocks alone, and
    # the vectors found are those of a search on fully built actions
    w2 = wedge_power(fundamental_module(SP3, 3), 2)
    found = highest_weight_vectors(w2)
    dominant = sorted(j for w, idx in w2.weight_decomposition().items()
                      if all(SP3.simple_coroot_pairing(w, i) >= 0 for i in range(SP3.rank))
                      for j in idx)
    assert _built_labels(w2.actions) == sorted(SP3.raising_labels())
    for label in SP3.raising_labels():
        assert _built_columns(w2.actions[label]) == dominant
    assert 5 * len(dominant) < w2.dimension
    eager = WeightModule(SP3, w2.dimension, w2.weights,
                         {label: tuple(cols) for label, cols in w2.actions.items()})
    assert repr(highest_weight_vectors(eager)) == repr(found)


def test_wedge_parity_and_target_matches_the_inversion_count():
    # every (combo, slot, j) with k <= 4 and indices below 9: 7,533 inputs
    cases = [(combo, slot, j) for k in range(1, 5) for combo in combinations(range(9), k)
             for slot in range(k) for j in range(9)]
    assert len(cases) == 7533
    for case in cases:
        # repr: the same parity, monomial and types
        assert repr(_wedge_parity_and_target(*case)) == repr(inversion_parity_and_target(*case))


@pytest.mark.parametrize("roots", [
    [], [Fraction(1, 2)], [Fraction(-3), Fraction(5, 4)],
    [Fraction(2), Fraction(-1, 3), Fraction(1, 6)]], ids=len)
def test_dense_block_polynomial_matches_a_plain_product(roots):
    # a block over the denominator 6 against the chain of (B - c) products,
    # entry by entry and in each row's key order, with the entries emitted
    # column by column; no root is the identity, the polynomial of R at
    # genus 3, where Q and z are the only constituents and R = ker 1 = 0
    block = RationalMatrix.from_rows([
        [Fraction(1, 2), Fraction(0), Fraction(-2, 3)],
        [Fraction(1, 6), Fraction(3), Fraction(0)],
        [Fraction(0), Fraction(-5, 2), Fraction(1, 3)]])
    got = _dense_block_polynomial(block, roots)
    expected = matmul_block_polynomial(block, roots)
    assert got == expected
    assert _row_key_orders(got) == _row_key_orders(expected)
    assert list(got.entries) == sorted(got.entries, key=lambda ij: ij[::-1])
    if not roots:
        assert got == RationalMatrix.identity(3) and not got.kernel_basis()


def test_dense_block_polynomial_matches_matmul_chain_on_g3_blocks():
    from infalex.johnson import johnson_context
    ctx = johnson_context(3)
    blocks = casimir_blocks(ctx.W2)
    eigenvalues = sorted({casimir_eigenvalue(ctx.spec, hw)
                          for hw, _v in highest_weight_vectors(ctx.W2)})
    # the numerator of each eigenvalue's projector, and the product over all
    # eigenvalues, which vanishes because the Casimir is semisimple
    root_lists = [[c for c in eigenvalues if c != t] for t in eigenvalues]
    for roots in root_lists + [eigenvalues]:
        for block in blocks.values():
            got = _dense_block_polynomial(block, roots)
            expected = matmul_block_polynomial(block, roots)
            assert got == expected
            assert _row_key_orders(got) == _row_key_orders(expected)
            assert all(type(x) is Fraction for x in got.entries.values())
            if roots == eigenvalues:
                assert not got.entries


def test_dense_block_polynomial_matches_matmul_chain_on_rational_blocks():
    hypothesis = pytest.importorskip("hypothesis")
    given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies
    rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
    entries = st.one_of(st.just(Fraction(0)), rationals)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
               st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)),
           st.lists(rationals, max_size=4))
    def check(rows, roots):
        block = RationalMatrix.from_rows(rows)
        got = _dense_block_polynomial(block, roots)
        expected = matmul_block_polynomial(block, roots)
        assert got == expected
        assert _row_key_orders(got) == _row_key_orders(expected)

    check()


def test_dominant_highest_weight_vectors_match_all_blocks():
    sp_w2 = wedge_power(fundamental_module(SP3, 3), 2)
    for m in (sp_w2, fundamental_module(SP3, 2), _sym_quotient(SP2),
              tensor_product(sym_power(defining_module(SP2), 2), wedge_power(defining_module(SP2), 2)),
              tensor_product(tensor_product(defining_module(SP1), defining_module(SP1)),
                             defining_module(SP1))):
        # repr: the same vectors with the same key order and scalar types
        assert repr(highest_weight_vectors(m)) == repr(all_blocks_highest_weight_vectors(m))
    # what the cut saves: most weight blocks of wedge^2 V are not dominant
    dominant = {w for w in sp_w2.weights if SP3.dominant(w) == w}
    assert len(sp_w2.weight_decomposition()) > 10 * len(dominant)


def test_algebra_caches_are_bounded():
    assert _algebra_basis.cache_info().maxsize is not None
    # a wedge power holds one column memo per algebra label, and reading a
    # label builds none of its columns; a memo keeps at most one entry per
    # column however often, and with whatever index or slice, it is read
    m = wedge_power(defining_module(SP3), 2)
    labels = [label for label, _cols in _algebra_basis(SP3)]
    for _ in range(2):
        for label in labels:
            assert m.actions[label] is m.actions[label]
    with pytest.raises(KeyError):
        m.actions["no such label"]
    assert list(m.actions) == labels and not _built_labels(m.actions)
    assert len(m.actions) == SP3.rank * (2 * SP3.rank + 1)
    cols = m.actions[labels[0]]
    for _ in range(2):
        backwards = tuple(cols[j] for j in range(-1, -len(cols) - 1, -1))
        assert cols[::-1] == backwards == cols[-len(cols):][::-1]
    assert _built_columns(cols) == list(range(m.dimension))
    assert _built_labels(m.actions) == [labels[0]]
