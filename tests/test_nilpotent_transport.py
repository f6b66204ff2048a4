import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from infalex import nilpotent_transport
from infalex.alex_module import coker_dims, coker_multiplication_action, nabla
from infalex.errors import InternalInconsistencyError
from infalex.exact_linalg import RationalMatrix
from infalex.nilpotent_transport import (AnnihilatorMatch, FinDimLaurentModule,
                                         FinDimSymModule,
                                         annihilator_exponent_match,
                                         exp_transport, is_nilpotent,
                                         log_transport, matrix_exp_nilpotent)
from infalex.quad_lie import LiePresentation

from module_builders import (matrix_sum, plain_annihilator_exponent, scale,
                             sym_annihilator_exponent)


def jordan(d):
    return RationalMatrix(d, d, {(i, i): Fraction(1) for i in range(d)}
                          | {(i, i + 1): Fraction(1) for i in range(d - 1)})


def test_exponent_conventions():
    assert is_nilpotent(FinDimLaurentModule.make(0, [])) == (True, 0)
    triv = FinDimLaurentModule.make(2, [RationalMatrix.identity(2)])
    assert is_nilpotent(triv) == (True, 1)
    assert is_nilpotent(FinDimLaurentModule.make(2, [jordan(2)])) == (True, 2)
    assert is_nilpotent(FinDimLaurentModule.make(1, [RationalMatrix.from_rows([[2]])])) \
        == (False, None)


def test_filtration_strictly_decreasing_until_zero():
    m = FinDimLaurentModule.make(4, [jordan(4)])
    nilpotent, q = is_nilpotent(m)
    assert nilpotent and q == 4


def test_family_that_commutes_on_all_but_the_last_column_is_refused():
    # X = E_01 / 2 and Y = E_12: XY = E_02 / 2 and YX = 0, so the two
    # products agree on every column but the last
    x = RationalMatrix(3, 3, {(0, 1): Fraction(1, 2)})
    y = RationalMatrix(3, 3, {(1, 2): 1})
    xy, yx = x.matmul(y).numerator_columns(), y.matmul(x).numerator_columns()
    assert xy[:-1] == yx[:-1] and xy[-1] != yx[-1]
    with pytest.raises(ValueError, match="commute"):
        FinDimSymModule.make(3, [x, y])
    one = RationalMatrix.identity(3)
    with pytest.raises(ValueError, match="commute"):
        FinDimLaurentModule.make(3, [matrix_sum(one, x), one, matrix_sum(one, y)])
    # the pair that commutes (XY = YX = 0) is accepted
    assert FinDimSymModule.make(3, [y, x.matmul(x)]).dimension == 3


def test_property_commutation_check_agrees_with_the_products():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(st.integers(1, 4), st.data())
    def check(d, data):
        square = st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d,
                          max_size=d).map(RationalMatrix.from_rows)
        base = data.draw(square)
        # polynomials in one matrix commute; free draws mostly do not, and
        # single-entry ones often differ in one column of their products
        index = st.integers(0, d - 1)
        single = st.builds(lambda i, j, x: RationalMatrix(d, d, {(i, j): x}), index, index,
                           entry)
        member = st.one_of(square, single, st.lists(entry, max_size=3).map(
            lambda cs: _polynomial(base, cs)))
        mats = data.draw(st.lists(member, min_size=2, max_size=3))
        agree = all(a.matmul(b) == b.matmul(a) for a, b in combinations(mats, 2))
        try:
            nilpotent_transport._check_family(d, mats, invertible=False)
        except ValueError:
            assert not agree
        else:
            assert agree

    check()


def test_minus_identity_is_the_matrix_difference():
    # T - 1 read off T's numerators against t - identity: the same den and
    # the same entries in the same key order, on rational unipotent T
    rng = random.Random(37)
    dropped = kept = 0
    for trial in range(80):
        n = rng.randint(0, 5)
        if trial % 2:
            # 1 + N, N strictly upper triangular: every diagonal entry of T - 1 is 0
            t = RationalMatrix(n, n, {(i, i): 1 for i in range(n)}
                               | {(i, j): Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                  for i in range(n) for j in range(i + 1, n)})
        else:
            # 1 + u w^T with w.u = 0, a rank-one nilpotent with a full diagonal
            u = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            w = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            uu = sum(a * a for a in u)
            if uu:
                wu = sum(a * b for a, b in zip(w, u))
                w = [b - wu / uu * a for a, b in zip(u, w)]
            t = RationalMatrix(n, n, {(i, j): (i == j) + u[i] * w[j]
                                      for i in range(n) for j in range(n)})
        assert is_nilpotent(FinDimLaurentModule.make(n, [t]))[0]
        got = nilpotent_transport._minus_identity(t)
        want = matrix_sum(t, RationalMatrix.identity(n), -1)
        assert repr((got.rows, got.cols, list(got.num.items()), got.den)) \
            == repr((want.rows, want.cols, list(want.num.items()), want.den))
        dropped += sum(t.num.get((i, i)) == t.den for i in range(n))
        kept += sum(t.num.get((i, i)) != t.den for i in range(n))
    assert dropped and kept


def test_exp_of_zero_is_the_identity():
    for n in (0, 1, 4):
        assert matrix_exp_nilpotent(RationalMatrix(n, n)) == RationalMatrix.identity(n)


def test_invertibility_and_commutation_enforced():
    with pytest.raises(ValueError):
        FinDimLaurentModule.make(2, [RationalMatrix.from_rows([[1, 0], [0, 0]])])
    a = RationalMatrix.from_rows([[1, 1], [0, 1]])
    b = RationalMatrix.from_rows([[1, 0], [1, 1]])
    with pytest.raises(ValueError):
        FinDimLaurentModule.make(2, [a, b])


def test_eigenvalue_characterization_small():
    # nilpotent iff the characteristic polynomial of each T is (x-1)^dim,
    # checked here for 2x2 matrices via trace/determinant
    rng = random.Random(2)
    for _ in range(40):
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)]
        t = RationalMatrix.from_rows(rows)
        if t.rank() != 2:
            continue
        m = FinDimLaurentModule.make(2, [t])
        (a, b), (c, d) = rows
        tr, det = a + d, a * d - b * c
        both_one = (tr == 2 and det == 1)   # char poly (x-1)^2
        assert is_nilpotent(m)[0] == both_one


def test_log_examples():
    assert log_transport(FinDimLaurentModule.make(2, [RationalMatrix.identity(2)])) \
        .actions[0].is_zero()
    s = log_transport(FinDimLaurentModule.make(2, [jordan(2)]))
    assert s.actions[0] == RationalMatrix(2, 2, {(0, 1): Fraction(1)})


def test_log_requires_unipotent():
    # the second family commutes and its first matrix is unipotent: the log
    # series of 2*I rejects it
    for dim, family in ((1, [RationalMatrix.from_rows([[2]])]),
                        (2, [jordan(2), scale(RationalMatrix.identity(2), 2)])):
        with pytest.raises(ValueError):
            log_transport(FinDimLaurentModule.make(dim, family))


def test_round_trip_random_commuting():
    rng = random.Random(3)
    for _ in range(10):
        d = rng.randint(2, 4)
        n_entries = {(i, j): Fraction(rng.randint(-2, 2))
                     for i in range(d) for j in range(i + 1, d)}
        base = RationalMatrix(d, d, n_entries)
        # commuting nilpotents: polynomials in one nilpotent matrix
        x1 = scale(base, rng.randint(1, 3))
        x2 = base.matmul(base)
        sym = FinDimSymModule.make(d, [x1, x2])
        lau = exp_transport(sym)
        back = log_transport(lau)
        assert all(x == y for x, y in zip(back.actions, sym.actions))
        again = exp_transport(back)
        assert all(x == y for x, y in zip(again.actions, lau.actions))


def test_transport_preserves_annihilator_exponent():
    rng = random.Random(4)
    for _ in range(10):
        d = rng.randint(1, 4)
        entries = {(i, j): Fraction(rng.randint(-2, 2))
                   for i in range(d) for j in range(i + 1, d)}
        x = RationalMatrix(d, d, entries)
        sym = FinDimSymModule.make(d, [x])
        lau = exp_transport(sym)
        assert sym_annihilator_exponent(sym) == is_nilpotent(lau)[1]


# -- the step-ordered filtration against the plain one -----------------------------

def _filtrations_agree(dimension, steps):
    """The exponent of the running filtration, read through the module so
    that a patched one is what runs, checked against the plain filtration."""
    got = nilpotent_transport._annihilator_exponent(dimension, steps)
    assert got == plain_annihilator_exponent(dimension, steps), (dimension, got)
    return got


def _polynomial(a: RationalMatrix, coeffs) -> RationalMatrix:
    """sum_k coeffs[k] a^k."""
    out, power = RationalMatrix(a.rows, a.cols), RationalMatrix.identity(a.rows)
    for c in coeffs:
        out, power = matrix_sum(out, scale(power, c)), a.matmul(power)
    return out


def test_step_order_matches_plain_filtration_random_commuting():
    # polynomials in one integer matrix commute; those without a constant
    # term in a strictly upper triangular matrix are nilpotent, and the
    # others mostly give a filtration that stabilizes above zero
    rng = random.Random(32)
    seen = set()
    for trial in range(60):
        d = rng.randint(1, 5)
        nilpotent = trial % 2 == 0
        a = RationalMatrix(d, d, {(i, j): rng.randint(-2, 2) for i in range(d)
                                  for j in range(d) if i < j or not nilpotent})
        steps = [_polynomial(a, [0 if nilpotent else rng.randint(-1, 1)]
                             + [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
                 for _ in range(rng.randint(1, 3))]
        seen.add(_filtrations_agree(d, steps))
    assert None in seen and {2, 3, 4} <= seen


def test_step_order_edge_cases():
    assert _filtrations_agree(0, []) == 0
    assert _filtrations_agree(3, []) == 1
    assert _filtrations_agree(0, [RationalMatrix(0, 0)]) == 0
    assert _filtrations_agree(2, [RationalMatrix(2, 2), RationalMatrix(2, 2)]) == 1


def test_no_step_builds_no_unit_vector():
    # with no step I = 0, so I M = 0 on any nonzero M: the exponent is 1,
    # read without one unit vector of M (200,000 of them held about 50 MB)
    tracemalloc.start()
    try:
        assert is_nilpotent(FinDimLaurentModule.make(200_000, [])) == (True, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_step_order_matches_plain_filtration_jordan():
    n = matrix_sum(jordan(4), RationalMatrix.identity(4), -1)
    n2 = n.matmul(n)
    for steps in ([n], [n, n2], [n2, n], [n2, n2, n], [n2]):
        assert _filtrations_agree(4, steps) == (2 if steps == [n2] else 4)


# the cells of the bb-nabla benchmark workload: (generators, relations)
BB_NABLA_CELLS = [(5, 0), (5, 1), (5, 2), (5, 4), (5, 6), (6, 0), (6, 1)]


def test_step_order_matches_plain_filtration_bb_nabla_cells():
    rng = random.Random(101)
    for n, r in BB_NABLA_CELLS:
        rels = []
        while len(rels) < r:
            rel = {(i, j): c for i in range(n) for j in range(i + 1, n)
                   if (c := rng.randint(-2, 2))}
            if rel:
                rels.append(rel)
        p = LiePresentation.make(n, rels)
        total, mats = coker_multiplication_action(nabla(p), 2)
        lau = exp_transport(FinDimSymModule.make(total, mats))
        one = RationalMatrix.identity(total)
        q = _filtrations_agree(total, [matrix_sum(t, one, -1) for t in lau.actions])
        assert q is not None and q > 0, (n, r)


def test_match_results():
    zero = FinDimLaurentModule.make(0, [])
    assert annihilator_exponent_match(zero, [0, 0, 0]) == AnnihilatorMatch(True, False, 0, 0)
    u = FinDimLaurentModule.make(2, [jordan(2)])
    assert annihilator_exponent_match(u, [2, 1, 0, 0]).matched
    assert not annihilator_exponent_match(u, [2, 0, 0]).matched


def test_match_vacuous_and_inconsistent():
    # free truncated invariant: never vanishes in range, module annihilated
    # beyond range: vacuous agreement
    p = LiePresentation.make(2, [])
    dims = list(coker_dims(nabla(p), 3).dims)
    total, mats = coker_multiplication_action(nabla(p), 3)
    lau = exp_transport(FinDimSymModule.make(total, mats))
    res = annihilator_exponent_match(lau, dims)
    assert res.matched and res.vacuous
    # a module annihilated within range against non-vanishing dims is an error
    u = FinDimLaurentModule.make(2, [jordan(2)])
    with pytest.raises(InternalInconsistencyError):
        annihilator_exponent_match(u, [5, 4, 3, 2])


def test_exp_of_non_nilpotent_rejected():
    with pytest.raises(ValueError):
        matrix_exp_nilpotent(RationalMatrix.from_rows([[1, 0], [0, 1]]))

