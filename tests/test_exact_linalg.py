import random
from fractions import Fraction

import pytest

from infalex.exact_linalg import (CyclotomicScalar, RationalMatrix, axpy,
                                  cyclotomic_polynomial, echelon_basis,
                                  solve_membership)


def test_rank_identity():
    assert RationalMatrix.identity(2).rank() == 2


def test_rank_zero_matrix():
    assert RationalMatrix.zeros(3, 5).rank() == 0


def test_rank_arithmetic_progression_rows():
    # rows are arithmetic progressions, so the row space is 2-dimensional
    m = RationalMatrix.from_rows([[i + j for j in range(1, 5)] for i in range(1, 5)])
    assert m.rank() == 2


def test_kernel_identity_empty():
    assert RationalMatrix.identity(3).kernel_basis() == []


def test_kernel_zero_matrix():
    ks = RationalMatrix.zeros(2, 2).kernel_basis()
    assert len(ks) == 2


def test_kernel_one_by_two():
    (k,) = RationalMatrix.from_rows([[1, 1]]).kernel_basis()
    # proportional to (1, -1)
    assert k[0] == -k[1]


def test_kernel_count_matches_rank():
    rng = random.Random(0)
    for _ in range(25):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        entries = {(i, j): Fraction(rng.randint(-3, 3))
                   for i in range(r) for j in range(c) if rng.random() < 0.5}
        m = RationalMatrix(r, c, entries)
        assert m.rank() + len(m.kernel_basis()) == c
        for v in m.kernel_basis():
            assert m.matvec(v) == {}


def test_rank_equals_transpose_rank():
    rng = random.Random(1)
    for _ in range(25):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        entries = {(i, j): Fraction(rng.randint(-4, 4))
                   for i in range(r) for j in range(c) if rng.random() < 0.4}
        m = RationalMatrix(r, c, entries)
        assert m.rank() == m.transpose().rank()


def test_cokernel_dimension():
    for m, coker in [(RationalMatrix.identity(4), 0), (RationalMatrix.zeros(3, 2), 3),
                     (RationalMatrix.from_rows([[1, 0], [0, 0]]), 1)]:
        assert m.rows - m.rank() == coker


def test_membership():
    assert solve_membership(RationalMatrix.identity(2), {0: Fraction(5), 1: Fraction(-7)})
    assert not solve_membership(RationalMatrix.zeros(2, 2), {0: Fraction(1)})
    m = RationalMatrix.from_rows([[1], [1]])
    assert not solve_membership(m, {0: Fraction(1), 1: Fraction(2)})
    assert solve_membership(m, {0: Fraction(3), 1: Fraction(3)})


def test_membership_dimension_check():
    with pytest.raises(ValueError):
        solve_membership(RationalMatrix.identity(2), {5: Fraction(1)})


def test_no_zero_entries_stored():
    m = RationalMatrix(2, 2, {(0, 0): Fraction(0), (1, 1): Fraction(2)})
    assert (0, 0) not in m.entries
    assert m.entry(0, 0) == 0


def test_determinism_bit_identical():
    entries = {(i, j): Fraction((-1) ** (i + j), i + j + 1)
               for i in range(5) for j in range(5) if (i * j) % 3}
    m = RationalMatrix(5, 5, entries)
    runs = [(m.rank(), m.kernel_basis()) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


# -- cyclotomic arithmetic ----------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8, 12])
def test_zeta_power_identities(m):
    z = CyclotomicScalar.zeta(m)
    assert z ** m == 1
    phi = cyclotomic_polynomial(m)
    val = CyclotomicScalar.from_rational(m, 0)
    for k, c in enumerate(phi):
        val = val + CyclotomicScalar.from_rational(m, c) * z ** k
    assert not val  # Phi_m(zeta) = 0


def test_cyclotomic_polynomial_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_field_division():
    rng = random.Random(2)
    for m in (3, 4, 5, 8):
        deg = len(cyclotomic_polynomial(m)) - 1
        for _ in range(10):
            a = CyclotomicScalar(m, [Fraction(rng.randint(-3, 3)) for _ in range(deg)])
            if not a:
                continue
            assert a * a.inverse() == 1
            assert (a / a) == 1


def test_cyclotomic_rank():
    z = CyclotomicScalar.zeta(4)  # i
    m = RationalMatrix(2, 2, {(0, 0): z, (0, 1): CyclotomicScalar.from_rational(4, 1),
                              (1, 0): CyclotomicScalar.from_rational(4, -1), (1, 1): z})
    # rows (i, 1), (-1, i): second = i * first, so rank 1
    assert m.rank() == 1


def test_mixed_order_rejected():
    z3, z4 = CyclotomicScalar.zeta(3), CyclotomicScalar.zeta(4)
    with pytest.raises(ValueError):
        RationalMatrix(1, 2, {(0, 0): z3, (0, 1): z4})


def test_cyclotomic_rank_transpose_random():
    rng = random.Random(6)
    for m in (3, 4):
        deg = len(cyclotomic_polynomial(m)) - 1
        for _ in range(8):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            entries = {}
            for i in range(r):
                for j in range(c):
                    if rng.random() < 0.5:
                        v = CyclotomicScalar(
                            m, [Fraction(rng.randint(-2, 2)) for _ in range(deg)])
                        if v:
                            entries[(i, j)] = v
            mat = RationalMatrix(r, c, entries)
            assert mat.rank() == mat.transpose().rank()
            assert mat.rank() + len(mat.kernel_basis()) == c


def test_axpy_in_place_and_drops_zeros():
    target = {0: Fraction(1), 1: Fraction(2), 2: Fraction(1, 3)}
    same = target
    axpy(target, Fraction(-2), {1: Fraction(1), 3: Fraction(5)})
    assert target is same
    assert target == {0: Fraction(1), 2: Fraction(1, 3), 3: Fraction(-10)}
    axpy(target, 1, {2: Fraction(-1, 3)})
    assert target == {0: Fraction(1), 3: Fraction(-10)}


def test_axpy_cyclotomic():
    z = CyclotomicScalar.zeta(4)
    one = CyclotomicScalar.from_rational(4, 1)
    target = {0: one, 1: z}
    axpy(target, z, {0: z, 1: one})  # z * (z, 1) = (-1, z)
    assert target == {1: z + z}
    axpy(target, CyclotomicScalar.from_rational(4, -2), {1: z})
    assert target == {}


def test_cyclotomic_rational_hashes_like_fraction():
    assert CyclotomicScalar(4, [1]) == 1
    assert hash(CyclotomicScalar(4, [1])) == hash(1)
    assert len({CyclotomicScalar(4, [1]), 1}) == 1
    half = CyclotomicScalar.from_rational(5, Fraction(-1, 2))
    assert half == Fraction(-1, 2) and hash(half) == hash(Fraction(-1, 2))
    assert len({CyclotomicScalar.zeta(4), CyclotomicScalar.zeta(4, 5)}) == 1
    assert len({CyclotomicScalar(3, [1]), CyclotomicScalar(4, [1]), 1}) == 1
    assert CyclotomicScalar.zeta(3) != CyclotomicScalar.zeta(6)


def test_echelon_membership_helper():
    eb = echelon_basis([{0: Fraction(1), 1: Fraction(2)}, {1: Fraction(1), 2: Fraction(1)}])
    assert eb.rank == 2
    assert eb.contains({0: Fraction(2), 1: Fraction(5), 2: Fraction(1)})
    assert not eb.contains({2: Fraction(1)})
