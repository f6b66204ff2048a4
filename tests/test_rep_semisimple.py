from fractions import Fraction
from itertools import product
from math import comb

import pytest

from infalex.errors import AmbiguousDecompositionError
from infalex.exact_linalg import RationalMatrix
from infalex.rep_semisimple import (HighestWeight, LieAlgebraSpec, act_vec,
                                    casimir_blocks, casimir_eigenvalue, casimir_matrix,
                                    casimir_eigenspace, chen_module_weight,
                                    defining_module, fundamental_module,
                                    highest_weight_vectors, isotypic_projection,
                                    quotient_module, wedge_power, weyl_dim,
                                    _algebra_basis, _dense_block_polynomial,
                                    _dual_coefficients, _integral_dual)

from module_builders import (all_blocks_highest_weight_vectors, fraction_casimir_column,
                             lowering_closure, matmul_block_polynomial, sym_power,
                             tensor_product, weyl_orbit)

SP3 = LieAlgebraSpec("sp", 3)
SL2 = LieAlgebraSpec("sl", 2)
SL3 = LieAlgebraSpec("sl", 3)


# -- structural checks on the algebra bases -----------------------------------

@pytest.mark.parametrize("spec", [SP3, LieAlgebraSpec("sp", 2), SL2, SL3])
def test_defining_matrices_form_the_algebra(spec):
    basis = list(defining_module(spec).actions.items())
    d = spec.defining_dim
    if spec.family == "sp":
        g = spec.rank
        theta = {}
        for i in range(g):
            theta[(i, g + i)] = Fraction(1)
            theta[(g + i, i)] = Fraction(-1)
        J = RationalMatrix(d, d, theta)
        for _label, cols in basis:
            X = RationalMatrix(d, d, {(r, j): v for j, col in enumerate(cols)
                                      for r, v in col.items()})
            assert X.transpose().matmul(J) + J.matmul(X) == RationalMatrix.zeros(d, d)
    else:
        for _label, cols in basis:
            tr = sum(cols[j].get(j, Fraction(0)) for j in range(d))
            assert tr == 0
    # count = dimension of the algebra
    expected = spec.rank * (2 * spec.rank + 1) if spec.family == "sp" else spec.rank ** 2 - 1
    assert len(basis) == expected


@pytest.mark.parametrize("spec", [SP3, SL3])
def test_cartan_relations_on_defining(spec):
    # [h_i, e_j] = a_ij e_j with a the Cartan matrix, checked as matrices
    m = defining_module(spec)
    raising = spec.raising_labels()
    num = spec.num_fundamental
    for i in range(num):
        # h_i as a diagonal matrix from the weights
        hi = RationalMatrix(m.dimension, m.dimension,
                            {(t, t): Fraction(spec.simple_coroot_pairing(m.weights[t], i))
                             for t in range(m.dimension)})
        for j, label in enumerate(raising):
            e = RationalMatrix.from_columns(m.actions[label], m.dimension)
            commutator = hi.matmul(e) - e.matmul(hi)
            # a_ij = <alpha_j, alpha_i^vee>; read alpha_j off any vector it moves
            aij = None
            for col in range(m.dimension):
                img = e.column_vectors()[col]
                if img:
                    row = next(iter(img))
                    alpha_j = tuple(a - b for a, b in zip(m.weights[row], m.weights[col]))
                    aij = spec.simple_coroot_pairing(alpha_j, i)
                    break
            assert commutator == e.scale(aij)


# -- Weyl dimension formula ----------------------------------------------------

def test_weyl_sl2_classical():
    for q in range(7):
        assert weyl_dim(SL2, HighestWeight((q,))) == q + 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_weyl_chen_weights(n):
    spec = LieAlgebraSpec("sl", n)
    for q in range(6):
        assert weyl_dim(spec, chen_module_weight(n, q)) == comb(q + n, q + 2) * (q + 1)


@pytest.mark.slow
@pytest.mark.parametrize("n", [2, 3, 4])
def test_weyl_chen_equals_free_invariant(n):
    # the graded invariant of the free Lie algebra carries the irreducible
    # of highest weight q l1 + l2 in each degree
    from infalex.quad_lie import LiePresentation, bb_direct
    spec = LieAlgebraSpec("sl", n)
    p = LiePresentation.make(n, [])
    for q in range(5):
        assert weyl_dim(spec, chen_module_weight(n, q)) == bb_direct(p, q)[0]


def test_weyl_sp_values():
    assert weyl_dim(SP3, HighestWeight((0, 2, 0))) == 90
    assert weyl_dim(SP3, HighestWeight((0, 0, 1))) == 14
    assert weyl_dim(SP3, HighestWeight((1, 0, 0))) == 6
    sp4 = LieAlgebraSpec("sp", 4)
    assert weyl_dim(sp4, HighestWeight((0, 2, 0, 0))) == 308
    assert weyl_dim(sp4, HighestWeight((0, 0, 1, 0))) == 48
    assert weyl_dim(LieAlgebraSpec("sp", 2), HighestWeight((0, 1))) == 5


def test_fundamental_module_dims():
    assert fundamental_module(SP3, 1).dimension == 6
    assert fundamental_module(SP3, 2).dimension == 14               # C(6,2)-1
    assert fundamental_module(SP3, 3).dimension == 20 - 6           # C(6,3)-6
    assert fundamental_module(LieAlgebraSpec("sp", 4), 3).dimension == 56 - 8
    for k in (1, 2, 3):
        m = fundamental_module(SP3, k)
        assert m.dimension == weyl_dim(SP3, HighestWeight(
            tuple(1 if t == k - 1 else 0 for t in range(3))))


def test_fundamental_module_range_errors():
    with pytest.raises(ValueError):
        fundamental_module(SP3, 4)
    with pytest.raises(ValueError):
        fundamental_module(SL3, 3)


# -- Casimir -------------------------------------------------------------------

def test_casimir_trivial_module():
    triv = sym_power(defining_module(SL2), 0)
    assert triv.dimension == 1
    assert casimir_matrix(triv).is_zero()


def test_casimir_scalar_on_defining():
    m = defining_module(SP3)
    c = casimir_matrix(m)
    ev = casimir_eigenvalue(SP3, HighestWeight((1, 0, 0)))
    assert ev == Fraction(7, 2)
    assert c == RationalMatrix.identity(m.dimension).scale(ev)
    msl = defining_module(SL3)
    evsl = casimir_eigenvalue(SL3, HighestWeight((1, 0)))
    assert evsl == Fraction(8, 3)
    assert casimir_matrix(msl) == RationalMatrix.identity(3).scale(evsl)


def test_casimir_commutes_with_action():
    m = fundamental_module(SP3, 2)
    c = casimir_matrix(m)
    for label in ("H_0", "X_0_1", "U_2", "Z_1_2", "Y_0_1", "V_0"):
        a = RationalMatrix.from_columns(m.actions[label], m.dimension)
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
    v = defining_module(SL2)
    m = tensor_product(v, v)
    hwv = highest_weight_vectors(m)
    weights = sorted(hw.coefficients for hw, _ in hwv)
    assert weights == [(0,), (2,)]


def test_sym_tensor_wedge_weights():
    v = defining_module(SL3)
    m = tensor_product(sym_power(v, 2), wedge_power(v, 2))
    hwv = highest_weight_vectors(m)
    # contains the Chen constituent q*l1 + l2 for q = 2
    assert any(hw == chen_module_weight(3, 2) for hw, _ in hwv)


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
        a = RationalMatrix.from_columns(m.actions[label], m.dimension)
        assert p.matmul(a) == a.matmul(p)
    p0 = isotypic_projection(m, HighestWeight((0, 0, 0)))
    assert p0.rank() == 1
    assert p0.matmul(p) == RationalMatrix.zeros(m.dimension, m.dimension)


def test_projection_of_absent_constituent_is_zero():
    m = fundamental_module(SP3, 3)
    p = isotypic_projection(m, HighestWeight((1, 0, 0)))
    assert p.is_zero()


def test_projection_multiplicity_refusal():
    v = defining_module(SL2)
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
    spec = LieAlgebraSpec("sp", g)
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


def test_weyl_helpers_are_type_c_only():
    with pytest.raises(NotImplementedError):
        SL3.dominant((1, 0, -1))
    with pytest.raises(NotImplementedError):
        SL3.orbit_size((1, 0, -1))


@pytest.mark.parametrize("spec", [SP3, LieAlgebraSpec("sp", 2), SL3])
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

def _adjoint_sl3_quotient():
    """Sym^2 V (x) V / Sym^3 V for sl(3), the adjoint module in the quotient
    coordinates of quotient_module: its actions have denominator 2."""
    v = defining_module(SL3)
    m = tensor_product(sym_power(v, 2), v)
    top = next(vec for hw, vec in highest_weight_vectors(m) if hw == HighestWeight((3, 0)))
    return quotient_module(m, lowering_closure(m, top))


def _denominators(m):
    return {x.denominator for cols in m.actions.values() for col in cols for x in col.values()}


def _row_key_orders(mat):
    # the key order of each row is what kernel_basis, and so the recorded
    # johnson_context digests, can see of an entry order
    return [list(row) for row in mat.row_vectors()]


def test_casimir_blocks_match_fraction_columns():
    sp_module = wedge_power(fundamental_module(SP3, 3), 2)
    quotient = _adjoint_sl3_quotient()
    assert _denominators(quotient) - {1}, "the sl(3) quotient should have fractional actions"
    assert _integral_dual(SL3)[1] > 1, "the sl(3) dual coefficients should have denominators"
    for m in (sp_module, quotient, defining_module(SL2)):
        blocks = casimir_blocks(m)
        decomp = m.weight_decomposition()
        assert list(blocks) == sorted(decomp)
        for w, block in blocks.items():
            idx = decomp[w]
            pos = {i: t for t, i in enumerate(idx)}
            expected = RationalMatrix.from_columns(
                [{pos[r]: v for r, v in fraction_casimir_column(m, j).items()} for j in idx],
                len(idx))
            assert list(block.entries.items()) == list(expected.entries.items())
            assert all(type(x) is Fraction for x in block.entries.values())
    # the adjoint module of sl(3) is irreducible: its Casimir is one scalar
    c = casimir_eigenvalue(SL3, HighestWeight((1, 1)))
    assert casimir_matrix(quotient) == RationalMatrix.identity(8).scale(c)


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
    for m in (sp_w2, fundamental_module(SP3, 2), _adjoint_sl3_quotient(),
              tensor_product(sym_power(defining_module(SL3), 2), wedge_power(defining_module(SL3), 2)),
              tensor_product(tensor_product(defining_module(SL2), defining_module(SL2)),
                             defining_module(SL2))):
        # repr: the same vectors with the same key order and scalar types
        assert repr(highest_weight_vectors(m)) == repr(all_blocks_highest_weight_vectors(m))
    # what the cut saves: most weight blocks of wedge^2 V are not dominant
    dominant = {w for w in sp_w2.weights if SP3.dominant(w) == w}
    assert len(sp_w2.weight_decomposition()) > 10 * len(dominant)


def test_algebra_caches_are_bounded():
    for cached in (_algebra_basis, _dual_coefficients, _integral_dual):
        assert cached.cache_info().maxsize is not None
