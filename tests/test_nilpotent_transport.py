import random
from fractions import Fraction

import pytest

from infalex.alex_module import coker_dims, coker_multiplication_action, nabla
from infalex.errors import InternalInconsistencyError
from infalex.exact_linalg import RationalMatrix
from infalex.nilpotent_transport import (AnnihilatorMatch, FinDimLaurentModule,
                                         FinDimSymModule,
                                         annihilator_exponent_match,
                                         exp_transport, is_nilpotent,
                                         log_transport, matrix_exp_nilpotent)
from infalex.quad_lie import LiePresentation

from module_builders import scale, sym_annihilator_exponent


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

