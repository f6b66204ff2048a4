import random
from fractions import Fraction
from math import gcd, lcm
from unittest.mock import patch

import pytest

from infalex import exact_linalg
from infalex.exact_linalg import (MAX_CYCLOTOMIC_ORDER, CyclotomicScalar, EchelonBasis,
                                  LazyColumns, RationalMatrix, _phi_degree, _power_reductions,
                                  _unit_cofactor, act_vec, axpy, cyclotomic_polynomial,
                                  echelon_basis, promote)
from infalex.fox_alex import Character
from infalex.quad_lie import LiePresentation

from module_builders import (fraction_add, fraction_columns, fraction_matmul, fraction_matvec,
                             fraction_scale, general_lift, kernel_column, matrix_sum, num_columns,
                             oracle_add, oracle_inverse, oracle_mul, oracle_neg, oracle_pow,
                             oracle_repr, plain_reduce, reduced_coordinates, scale, transpose)


def test_rank_identity():
    assert RationalMatrix.identity(2).rank() == 2


def test_rank_zero_matrix():
    assert RationalMatrix(3, 5).rank() == 0


def test_rank_arithmetic_progression_rows():
    # rows are arithmetic progressions, so the row space is 2-dimensional
    m = RationalMatrix.from_rows([[i + j for j in range(1, 5)] for i in range(1, 5)])
    assert m.rank() == 2


def test_kernel_identity_empty():
    assert RationalMatrix.identity(3).kernel_basis() == []


def test_kernel_zero_matrix():
    ks = RationalMatrix(2, 2).kernel_basis()
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
        assert m.rank() == transpose(m).rank()


def test_cokernel_dimension():
    for m, coker in [(RationalMatrix.identity(4), 0), (RationalMatrix(3, 2), 3),
                     (RationalMatrix.from_rows([[1, 0], [0, 0]]), 1)]:
        assert m.rows - m.rank() == coker


def test_membership():
    assert RationalMatrix.identity(2).column_span().contains({0: Fraction(5), 1: Fraction(-7)})
    assert not RationalMatrix(2, 2).column_span().contains({0: Fraction(1)})
    m = RationalMatrix.from_rows([[1], [1]])
    assert not m.column_span().contains({0: Fraction(1), 1: Fraction(2)})
    assert m.column_span().contains({0: Fraction(3), 1: Fraction(3)})


def test_no_zero_entries_stored():
    m = RationalMatrix(2, 2, {(0, 0): Fraction(0), (1, 1): Fraction(2)})
    assert (0, 0) not in m.entries
    assert m.entries == {(1, 1): Fraction(2)}


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


def _random_value(rng: random.Random, deg: int, kind: str) -> list[Fraction]:
    """Coefficients of a zero, a rational-only or a sparse-to-dense value
    with non-integral rational coefficients."""
    out = [Fraction(0)] * deg
    if kind == "rational":
        out[0] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
    elif kind == "dense":
        density = rng.choice([0.3, 1.0]) if deg <= 16 else 0.15
        for i in range(deg):
            if rng.random() < density:
                out[i] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return out


def _same_stored(got: CyclotomicScalar, want) -> None:
    """got holds the value with coefficients want, stored as a value built
    from them is: the same ints, equal, and hashing alike."""
    assert got.coeffs == tuple(want)
    built = CyclotomicScalar(got.order, list(want))
    assert (got.num, got.den) == (built.num, built.den)
    assert got == built and hash(got) == hash(built)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 30, 31, 105])
def test_cyclotomic_arithmetic_matches_fraction_oracle(m):
    rng = random.Random(4000 + m)
    deg = _phi_degree(m)
    values = [_random_value(rng, deg, kind)
              for kind in ("zero", "rational", "rational", "dense", "dense", "dense")]
    for a in values:
        x = CyclotomicScalar(m, a)
        assert x.coeffs == tuple(a) and repr(x) == oracle_repr(m, a)
        assert gcd(x.den, *x.num) == 1 and x.den > 0
        _same_stored(-x, oracle_neg(a))
        if not any(a[1:]):   # a rational value equals and hashes like its Fraction
            assert x == a[0] and hash(x) == hash(a[0])
        if not any(a):
            assert (x.num, x.den) == ((0,) * deg, 1)
            with pytest.raises(ZeroDivisionError):
                x.inverse()
            continue
        _same_stored(x.inverse(), oracle_inverse(m, a))
        for k in (-3, -1, 0, 1, 2, 5):
            _same_stored(x ** k, oracle_pow(m, a, k))
    for a in values:
        for b in values:
            x, y = CyclotomicScalar(m, a), CyclotomicScalar(m, b)
            _same_stored(x + y, oracle_add(a, b))
            _same_stored(x + -y, oracle_add(a, oracle_neg(b)))
            _same_stored(x * y, oracle_mul(m, a, b))
            assert (x == y) == (tuple(a) == tuple(b))


def test_cyclotomic_values_stored_in_lowest_terms():
    half = CyclotomicScalar(5, [Fraction(2, 4)])
    for other in (CyclotomicScalar.from_rational(5, Fraction(1, 2)),
                  CyclotomicScalar(5, [Fraction(1, 2), 0]),
                  CyclotomicScalar(5, [Fraction(3, 6), Fraction(0, 7)]),
                  CyclotomicScalar.zeta(5) * Fraction(1, 2) * CyclotomicScalar.zeta(5, -1)):
        assert (other.num, other.den) == (half.num, half.den) == ((1, 0, 0, 0), 2)
        assert other == half and hash(other) == hash(half) == hash(Fraction(1, 2))
    assert half == Fraction(1, 2) and half != 1 and half == CyclotomicScalar(7, [Fraction(2, 4)])
    assert CyclotomicScalar(5, [3, 0, 6]).den == 1
    mixed = CyclotomicScalar(5, [Fraction(1, 6), Fraction(3, 4), Fraction(-1, 3)])
    assert (mixed.num, mixed.den) == ((2, 9, -4, 0), 12)
    assert mixed.coeffs == (Fraction(1, 6), Fraction(3, 4), Fraction(-1, 3), Fraction(0))
    assert repr(mixed) == "Cyc(5, ['1/6', '3/4', '-1/3', '0'])"


@pytest.mark.parametrize("m", [101, 211])
def test_cyclotomic_inverse_at_large_order(m):
    # a dense element of degree phi(m) - 1: the Fraction Euclid took 9.5 s
    # at m = 101 and did not finish in 600 s at m = 211
    rng = random.Random(m)
    x = CyclotomicScalar(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                             for _ in range(_phi_degree(m))])
    assert x * x.inverse() == 1


def test_cyclotomic_caches_are_bounded():
    for cached in (cyclotomic_polynomial, _power_reductions):
        assert cached.cache_info().maxsize == 64
    for m in range(1, 80):
        CyclotomicScalar.zeta(m)
    assert _power_reductions.cache_info().currsize <= 64


def test_cyclotomic_inverse_reuses_the_cofactor_of_its_numerator():
    # the Euclid cofactor is cached by (order, num), so the same numerator over
    # another denominator is a hit, and each inverse still matches the oracle
    _unit_cofactor.cache_clear()
    a = [Fraction(3), Fraction(-1), Fraction(2), Fraction(1)]
    for d in (1, 7, 1):
        x = CyclotomicScalar(5, [c / d for c in a])
        _same_stored(x.inverse(), oracle_inverse(5, [c / d for c in a]))
    info = _unit_cofactor.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (1, 2, 256)


def _cyclotomic_rank(entries: dict, r: int, c: int) -> int:
    """The rank of the r x c matrix over Q(zeta_m) with the given entries,
    as echelon_basis gives it from the rows and from the columns: the two
    agree, every kernel vector of the rows is killed by the columns, and
    rank plus kernel size is c."""
    rows = [{j: v for (i, j), v in entries.items() if i == row} for row in range(r)]
    cols = [{i: v for (i, j), v in entries.items() if j == col} for col in range(c)]
    by_rows = echelon_basis(rows)
    kernel = by_rows.kernel(c)
    assert by_rows.rank == echelon_basis(cols).rank
    assert all(not act_vec(cols, k) for k in kernel.values())
    assert by_rows.rank + len(kernel) == c
    return by_rows.rank


def test_cyclotomic_rank():
    z = CyclotomicScalar.zeta(4)  # i
    entries = {(0, 0): z, (0, 1): CyclotomicScalar.from_rational(4, 1),
               (1, 0): CyclotomicScalar.from_rational(4, -1), (1, 1): z}
    # rows (i, 1), (-1, i): second = i * first, so rank 1
    assert _cyclotomic_rank(entries, 2, 2) == 1


def test_mixed_order_rejected():
    z3, z4 = CyclotomicScalar.zeta(3), CyclotomicScalar.zeta(4)
    for build in (lambda: echelon_basis([{0: z3, 1: z4}]), lambda: z3 + z4,
                  lambda: z3 * z4, lambda: z3 / z4):
        with pytest.raises(ValueError, match="mixed cyclotomic orders"):
            build()
    # a RationalMatrix holds rationals only
    with pytest.raises(TypeError, match="exact rational"):
        RationalMatrix(1, 2, {(0, 0): z3})


@pytest.mark.parametrize("build", [
    lambda: RationalMatrix(1, 1, {(0, 0): 0.1}),
    lambda: CyclotomicScalar(5, [0.1]),
    lambda: CyclotomicScalar(5, [1]) / 0.1,
    lambda: Character.rational([0.1, 1]),
    lambda: LiePresentation.make(2, [{(0, 1): 0.1}]),
], ids=["matrix", "cyclotomic", "cyclotomic-quotient", "character", "lie-relation"])
def test_every_outside_rational_refuses_a_float(build):
    # one coercion: a float is refused, never stored as its binary value
    with pytest.raises(TypeError, match="cannot coerce 0.1 to an exact rational"):
        build()


def test_cyclotomic_order_bound():
    m = MAX_CYCLOTOMIC_ORDER
    z = CyclotomicScalar.zeta(m)
    assert CyclotomicScalar.zeta(m, m + 3) == z * z * z
    assert CyclotomicScalar.zeta(m, -1) * z == 1
    for build in (lambda: cyclotomic_polynomial(MAX_CYCLOTOMIC_ORDER + 1),
                  lambda: CyclotomicScalar.zeta(20011),
                  lambda: CyclotomicScalar.from_rational(10 ** 6, 1)):
        with pytest.raises(ValueError, match="cyclotomic order"):
            build()


def test_the_exact_core_refuses_text():
    # text becomes a rational in documents only (whose decimal exponent is
    # bounded, see test_cli); the exact core takes int, Fraction and
    # CyclotomicScalar, and refuses a string whatever it spells
    for text in ("3/2", "1e-3", "1e-400000"):
        for build in (lambda: RationalMatrix.from_rows([[text]]),
                      lambda: CyclotomicScalar(3, [text]),
                      lambda: promote(text, None),
                      lambda: Character.rational([text])):
            with pytest.raises(TypeError, match="exact rational"):
                build()
    m = RationalMatrix.from_rows([[Fraction(3, 2), Fraction(1, 1000)]])
    assert m.entries == {(0, 0): Fraction(3, 2), (0, 1): Fraction(1, 1000)}


def test_cyclotomic_rank_transpose_random():
    rng = random.Random(6)
    for m in (3, 4, 5):
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
            _cyclotomic_rank(entries, r, c)


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


def test_free_of_empty_span_is_every_position():
    eb = echelon_basis([])
    assert eb.free(3) == {0: 0, 1: 1, 2: 2}
    quotient = eb.quotient(3)
    assert quotient == RationalMatrix.identity(3)
    for k in range(3):
        assert quotient.matvec({k: Fraction(2)}) == {k: Fraction(2)}


def test_free_and_coordinates_when_lead_is_not_zero():
    # the span of e1 + 2 e2 has its pivot at 1; positions 0 and 2 stay free
    eb = echelon_basis([{1: Fraction(3), 2: Fraction(6)}])
    assert eb.free(3) == {0: 0, 2: 1}
    # e1 is -2 e2 modulo the span, and e2 is the second quotient basis vector
    quotient = eb.quotient(3)
    assert quotient == RationalMatrix.from_rows([[1, 0, 0], [0, -2, 1]])
    assert quotient.matvec({1: Fraction(1)}) == {1: Fraction(-2)}
    assert (quotient.matvec({0: Fraction(3), 1: Fraction(1)})
            == {0: Fraction(3), 1: Fraction(-2)})


def test_coordinates_of_span_vector_is_empty():
    eb = echelon_basis([{0: Fraction(1), 2: Fraction(1)}, {1: Fraction(1), 2: Fraction(-1)}])
    assert eb.free(3) == {2: 0}
    quotient = eb.quotient(3)
    # 2 (e0 + e2) - 3 (e1 - e2)
    assert quotient.matvec({0: Fraction(2), 1: Fraction(-3), 2: Fraction(5)}) == {}
    assert quotient.matvec({2: Fraction(1)}) == {0: Fraction(1)}


# ---------------------------------------------------------------------------
# property tests: EchelonBasis against a dense Gauss-Jordan written here
# ---------------------------------------------------------------------------

def _hypothesis():
    # skipped per test, so the rest of the module runs without hypothesis
    hypothesis = pytest.importorskip("hypothesis")
    return hypothesis.given, hypothesis.settings, hypothesis.strategies


def _entry(st):
    """Mostly zeros and small integers, then fractions with denominators up
    to 12, some with numerators beyond 2^64."""
    return st.one_of(st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3]),
                     st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
                     st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70), st.integers(1, 12)))


def _matrices(st, entry=None, max_n=7, max_rows=6):
    """(n, rows): up to max_rows rows of length n <= max_n, mostly zeros."""
    entry = _entry(st) if entry is None else entry
    return st.integers(1, max_n).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.lists(entry, min_size=n, max_size=n), max_size=max_rows)))


def _vector(st, n, entry=None):
    return st.lists(_entry(st) if entry is None else entry, min_size=n, max_size=n)


def _sparse(row, exact=Fraction):
    return {j: exact(x) for j, x in enumerate(row) if x}


def _dense_rref(rows, n, exact=Fraction):
    """Nonzero rows of the reduced row echelon form and their pivot columns,
    over the field whose elements exact() makes."""
    m = [[exact(x) for x in row] for row in rows]
    pivots = []
    for c in range(n):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]  # CyclotomicScalar has no subtraction, hence + -f
                m[i] = [a + -f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def _dense_rank(rows, n, exact=Fraction):
    return len(_dense_rref(rows, n, exact)[1])


def _field(st, field):
    """(entry strategy, exact, max_n, max_rows, examples) for rows over Q or
    over Q(zeta_5)."""
    if field == "Q":
        return _entry(st), Fraction, 7, 6, 150
    coeffs = st.lists(st.integers(-2, 2), min_size=4, max_size=4)
    entry = st.one_of(st.just(0), st.just(0), st.builds(lambda cs: CyclotomicScalar(5, cs), coeffs))
    return entry, (lambda x: promote(x, 5)), 5, 4, 60


def _assert_primitive_integer_rows(eb):
    """Each stored rational row: int entries, lead at its least index, the
    lead positive, content 1."""
    for lead, row in eb.rows.items():
        assert all(type(x) is int for x in row.values())
        assert min(row) == lead and row[lead] > 0
        assert gcd(*row.values()) == 1


def _all_fractions(vec):
    # an int would change the repr that tests/golden/johnson_context.json hashes
    return all(type(x) is Fraction for x in vec.values())


def test_property_rank_free_contains():
    given, settings, st = _hypothesis()

    @settings(max_examples=150, deadline=None)
    @given(_matrices(st), st.data())
    def check(shape, data):
        n, rows = shape
        eb = echelon_basis(_sparse(r) for r in rows)
        _assert_primitive_integer_rows(eb)
        _rref, pivots = _dense_rref(rows, n)
        assert eb.rank == len(pivots)
        assert eb.free(n) == {k: t for t, k in
                              enumerate(k for k in range(n) if k not in pivots)}
        w = data.draw(_vector(st, n))
        assert eb.contains(_sparse(w)) == (_dense_rank(rows + [w], n) == len(pivots))

    check()


def test_property_reduce_is_the_remainder_on_non_pivots():
    given, settings, st = _hypothesis()

    @settings(max_examples=150, deadline=None)
    @given(_matrices(st), st.data())
    def check(shape, data):
        n, rows = shape
        eb = echelon_basis(_sparse(r) for r in rows)
        rref, pivots = _dense_rref(rows, n)
        w = data.draw(_vector(st, n))
        # reduce returns a positive multiple of the remainder, in integers
        scaled = eb.reduce(_sparse(w))
        assert all(type(x) is int for x in scaled.values())
        assert not set(scaled) & set(pivots)
        # the dense remainder: w less w[p] times the rref row of each pivot p
        dense = [Fraction(x) for x in w]
        for row, p in zip(rref, pivots):
            c = dense[p]
            dense = [x - c * y for x, y in zip(dense, row)]
        r = _sparse(dense)
        assert scaled.keys() == r.keys()
        if r:
            factor = scaled[min(r)] / r[min(r)]
            assert factor > 0 and scaled == {j: factor * x for j, x in r.items()}
        pos = eb.free(n)
        coords = eb.quotient(n).matvec(_sparse(w))
        assert coords == {pos[k]: x for k, x in r.items()}
        assert _all_fractions(coords)
        _assert_primitive_integer_rows(eb)

    check()


def test_property_vectors_are_the_dense_rref():
    given, settings, st = _hypothesis()

    @settings(max_examples=150, deadline=None)
    @given(_matrices(st))
    def check(shape):
        n, rows = shape
        rref, _pivots = _dense_rref(rows, n)
        vectors = echelon_basis(_sparse(r) for r in rows).vectors()
        assert vectors == [_sparse(r) for r in rref]
        assert all(_all_fractions(v) for v in vectors)

    check()


def test_property_kernel_basis_is_annihilated():
    given, settings, st = _hypothesis()

    @settings(max_examples=150, deadline=None)
    @given(_matrices(st))
    def check(shape):
        n, rows = shape
        kernel = RationalMatrix(len(rows), n, {(i, j): x for i, row in enumerate(rows)
                                               for j, x in enumerate(row)}).kernel_basis()
        assert len(kernel) == n - _dense_rank(rows, n)
        assert all(_all_fractions(k) for k in kernel)
        for k in kernel:
            for row in rows:
                assert sum(Fraction(x) * k.get(j, 0) for j, x in enumerate(row)) == 0

    check()


def test_property_add_after_vectors_clears_the_reduced_state():
    given, settings, st = _hypothesis()

    @settings(max_examples=150, deadline=None)
    @given(_matrices(st), st.data())
    def check(shape, data):
        n, rows = shape
        split = data.draw(st.integers(0, len(rows)))
        eb = echelon_basis(_sparse(r) for r in rows[:split])
        assert eb.vectors() == [_sparse(r) for r in _dense_rref(rows[:split], n)[0]]
        _assert_primitive_integer_rows(eb)
        for r in rows[split:]:
            eb.add(_sparse(r))
        _assert_primitive_integer_rows(eb)
        rref, pivots = _dense_rref(rows, n)
        assert eb.vectors() == [_sparse(r) for r in rref]
        w = data.draw(_vector(st, n))
        assert not set(eb.reduce(_sparse(w))) & set(pivots)

    check()


def test_property_cyclotomic_echelon_is_the_dense_rref():
    # rows over Q(zeta_5) keep field division and lead 1
    given, settings, st = _hypothesis()
    entry, exact, max_n, max_rows, examples = _field(st, "Q(zeta_5)")

    @settings(max_examples=examples, deadline=None)
    @given(_matrices(st, entry, max_n, max_rows), st.data())
    def check(shape, data):
        n, rows = shape
        eb = echelon_basis(_sparse(r, exact) for r in rows)
        rref, pivots = _dense_rref(rows, n, exact)
        assert eb.rank == len(pivots)
        assert all(row[lead] == 1 for lead, row in eb.rows.items())
        w = data.draw(_vector(st, n, entry))
        # a cyclotomic remainder needs no scale: it is the remainder itself
        r = eb.reduce(_sparse(w, exact))
        assert not set(r) & set(pivots)
        diff = [exact(x) + -r.get(j, exact(0)) for j, x in enumerate(w)]
        assert _dense_rank(rows + [diff], n, exact) == len(pivots)
        assert eb.vectors() == [_sparse(r, exact) for r in rref]
        for k in eb.kernel(n).values():
            for row in rows:
                assert not sum((exact(x) * k.get(j, 0) for j, x in enumerate(row)), exact(0))

    check()


@pytest.mark.parametrize("field", ["Q"])
def test_property_quotient_is_the_map_onto_free(field):
    given, settings, st = _hypothesis()
    entry, exact, max_n, max_rows, examples = _field(st, field)

    @settings(max_examples=examples, deadline=None)
    @given(_matrices(st, entry, max_n, max_rows), st.data())
    def check(shape, data):
        n, rows = shape
        eb = echelon_basis(_sparse(r, exact) for r in rows)
        quotient = eb.quotient(n)
        assert (quotient.rows, quotient.cols) == (n - eb.rank, n)
        assert lcm(*(row[lead] for lead, row in eb.rows.items())) % quotient.den == 0
        # the span goes to zero, and each free position to its basis vector
        for row in rows:
            assert quotient.matvec(_sparse(row, exact)) == {}
        for row in eb.rows.values():
            assert quotient.matvec(row) == {}
        pos = eb.free(n)
        columns = fraction_columns(quotient)
        for k, t in pos.items():
            assert columns[k] == {t: 1}
        # the columns are the classes of the unit vectors, key order included,
        # and the map agrees with reducing one vector at a time
        for k in range(n):
            assert (list(columns[k].items())
                    == list(reduced_coordinates(eb, {k: Fraction(1)}, pos).items()))
        w = _sparse(data.draw(_vector(st, n, entry)), exact)
        assert quotient.matvec(w) == reduced_coordinates(eb, w, pos)

    check()


@pytest.mark.parametrize("field", ["Q", "Q(zeta_5)"])
def test_property_kernel_is_read_in_one_pass(field):
    given, settings, st = _hypothesis()
    entry, exact, max_n, max_rows, examples = _field(st, field)

    @settings(max_examples=examples, deadline=None)
    @given(_matrices(st, entry, max_n, max_rows))
    def check(shape):
        n, rows = shape
        eb = echelon_basis(_sparse(r, exact) for r in rows)
        kernel = eb.kernel(n)
        assert len(kernel) == n - eb.rank == n - _dense_rank(rows, n, exact)
        # the vectors of the column-at-a-time scan, values and key order
        assert ([(f, list(v.items())) for f, v in kernel.items()]
                == [(f, list(kernel_column(eb, f).items())) for f in eb.free(n)])
        for v in kernel.values():
            for row in rows:
                assert not sum((exact(x) * v.get(j, 0) for j, x in enumerate(row)), exact(0))

    check()


def _lift_kinds(st):
    """Entry strategies for the vector kinds that _lift tells apart; every
    kind holds zeros."""
    ints = st.one_of(st.sampled_from([0, 0, 1, -1, 2, -3]), st.integers(-2 ** 70, 2 ** 70))
    over_one = st.builds(Fraction, st.integers(-3, 3))
    fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
    coeffs = st.lists(st.integers(-2, 2), min_size=4, max_size=4)
    return {"int": ints,
            "Fraction over 1": over_one,
            "Fraction": st.one_of(st.just(Fraction(0)), fractions),
            "int and Fraction": st.one_of(ints, fractions),
            "Q(zeta_5)": st.one_of(st.just(0), st.builds(lambda cs: CyclotomicScalar(5, cs),
                                                         coeffs))}


def test_property_int_lift_matches_the_general_lift():
    # an all-int vector skips the rebuild; the basis it gives is the one the
    # general lift gives, and no caller's dict is touched
    given, settings, st = _hypothesis()
    kinds = _lift_kinds(st)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(kinds)), st.data())
    def check(kind, data):
        n, rows = data.draw(_matrices(st, kinds[kind], max_n=6, max_rows=5))
        vecs = [dict(enumerate(row)) for row in rows]  # zeros kept
        w = dict(enumerate(data.draw(_vector(st, n, kinds[kind]))))
        before = [dict(v) for v in vecs + [w]]
        eb = echelon_basis(vecs)
        with patch.object(exact_linalg, "_lift", general_lift):
            ref = echelon_basis(vecs)
        assert eb.rows == ref.rows and eb.rank == ref.rank
        assert eb.free(n) == ref.free(n)
        eb.reduce(w)
        eb.contains(w)
        eb.add(w)
        ref.add(w)
        assert eb.vectors() == ref.vectors()
        assert vecs + [w] == before

    check()


def test_int_lift_returns_a_new_dict_of_ints():
    v = {0: 2, 1: 0, 2: -4}
    r = exact_linalg._lift(v)
    assert r == {0: 2, 2: -4} and r is not v
    # bool is not int: True lifts to the int 1 by the general path
    assert [type(x) for x in exact_linalg._lift({0: True, 1: 3}).values()] == [int, int]


def _stored(eb):
    # the rows with their key order, which the johnson_context digests hash
    return [(lead, list(row.items())) for lead, row in eb.rows.items()]


def _assert_reduce_matches_the_oracle(eb, ref, vecs, ws):
    """Grow eb by add and ref by add through plain_reduce, one vector of vecs
    at a time; before each step the two reduce each probe to the same
    remainder with the same key order, and after it they store the same
    rows."""
    for v in vecs:
        for w in ws + [v]:
            got, (want, _d) = eb.reduce(w), plain_reduce(ref, w)
            assert got == want and list(got) == list(want)
        eb.add(v)
        with patch.object(EchelonBasis, "reduce", lambda b, w: plain_reduce(b, w)[0]):
            ref.add(v)
        assert _stored(eb) == _stored(ref)


def test_property_reduce_matches_the_set_algebra_reduce():
    # _clear queues the leads a row not yet inter-reduced brings in; the
    # oracle finds them by set algebra.  Both kinds of basis: grown by add
    # only, and read through vectors() (inter-reduced) and then grown again
    given, settings, st = _hypothesis()
    kinds = _lift_kinds(st)
    brought_in = []

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["int", "Fraction", "Q(zeta_5)"]), st.data())
    def check(kind, data):
        entry = kinds[kind]
        n, rows = data.draw(_matrices(st, entry, max_n=7, max_rows=6))
        vecs = [dict(enumerate(row)) for row in rows]
        ws = [dict(enumerate(data.draw(_vector(st, n, entry)))) for _ in range(2)]
        eb, ref = EchelonBasis(), EchelonBasis()
        _assert_reduce_matches_the_oracle(eb, ref, vecs + ws, ws)
        brought_in.append(any(k != lead and k in eb.rows
                              for lead, row in eb.rows.items() for k in row))
        split = data.draw(st.integers(0, len(vecs)))
        eb, ref = echelon_basis(vecs[:split]), echelon_basis(vecs[:split])
        eb.vectors()
        ref.vectors()
        _assert_reduce_matches_the_oracle(eb, ref, vecs[split:] + ws, ws)

    check()
    # the draws reach rows that carry other leads, where the two differ in method
    assert any(brought_in)


def test_lazy_columns_build_each_entry_once_and_read_as_a_tuple():
    calls = []

    def build(j):
        calls.append(j)
        return {j: j + 1}

    entries = tuple({j: j + 1} for j in range(7))
    lazy = LazyColumns(7, build)
    assert len(lazy) == 7 and not calls
    assert lazy[-2] is lazy[5] and calls == [5]
    for key in (slice(1, -2, 2), slice(None, None, -3), slice(9, 3, -1), slice(4, 4)):
        assert lazy[key] == entries[key]
    for j in (7, -8):
        with pytest.raises(IndexError):
            lazy[j]
    assert sorted(calls) == sorted(set(calls)) == [0, 1, 3, 4, 5, 6]
    assert repr(lazy) == repr(entries) and tuple(lazy) == entries
    assert sorted(lazy._built) == sorted(calls) == list(range(7))


def test_numerator_columns_are_built_once_and_match_the_entries():
    m = RationalMatrix.from_rows([[1, 0, Fraction(1, 2)], [0, 0, 3]])
    assert (m.num, m.den) == ({(0, 0): 2, (0, 2): 1, (1, 2): 6}, 2)
    cols = m.numerator_columns()
    assert m.numerator_columns() is cols
    assert cols == [{0: 2}, {}, {0: 1, 1: 6}]
    # the Fraction entries are the same numerators divided by den
    views = fraction_columns(m)
    assert views == [{0: Fraction(1)}, {}, {0: Fraction(1, 2), 1: Fraction(3)}]
    assert all(type(x) is Fraction for col in views for x in col.values())
    assert views == [{i: Fraction(x, m.den) for i, x in col.items()} for col in cols]
    # matvec and matmul read the same columns and leave them as they were
    assert m.matvec({2: Fraction(2)}) == {0: Fraction(1), 1: Fraction(6)}
    assert m.matmul(RationalMatrix.identity(3)) == m
    assert m.numerator_columns() is cols
    assert cols == [{0: 2}, {}, {0: 1, 1: 6}]


def test_product_columns_are_the_transpose_of_num():
    # kept as built when nothing is divided out, transposed from the
    # divided num when something is; empty columns are EMPTY either way
    a = RationalMatrix.from_rows([[1, 0, 2], [0, 0, Fraction(1, 2)]])   # den 2
    b = RationalMatrix.from_rows([[1, 0, 0], [0, 0, 5], [1, 0, 0]])
    kept, divided = a.matmul(b), a.matmul(RationalMatrix.from_rows([[2, 0], [0, 0], [0, 0]]))
    assert (kept.den, divided.den) == (2, 1)
    for m in (kept, divided, RationalMatrix(2, 3).matmul(b)):
        cols = m.numerator_columns()
        assert [list(col.items()) for col in cols] == num_columns(m)
        assert all(col is exact_linalg.EMPTY for col in cols if not col)
    assert kept.numerator_columns() == [{0: 6, 1: 1}, {}, {}]
    assert divided.numerator_columns() == [{0: 2}, {}]


def test_numerator_columns_share_one_read_only_empty_column():
    m = RationalMatrix.from_rows([[0, 1, 0, 0], [0, 2, 0, Fraction(1, 3)]])
    cols = m.numerator_columns()
    assert cols == [{}, {0: 3, 1: 6}, {}, {1: 1}]
    assert cols[0] is cols[2] is exact_linalg.EMPTY
    with pytest.raises(TypeError):
        cols[0][1] = 1
    assert exact_linalg.EMPTY == {}
    assert all(c is exact_linalg.EMPTY for c in RationalMatrix(2, 3).numerator_columns())
    # the column span echelonizes EMPTY among the columns and writes to none
    assert m.rank() == 2 and exact_linalg.EMPTY == {}


def test_act_vec_on_empty_columns_equals_the_dense_product():
    # v has entries on empty, one-entry and fuller columns: the empty ones
    # add nothing, and every other one still counts
    m = RationalMatrix.from_rows([[0, 1, 0, 2, 0], [0, 0, 0, 3, Fraction(1, 2)]])
    v = {0: 1, 1: 2, 2: 5, 3: -1, 4: 4}
    # den 2: row 0 reads 2*2 - 4*1 = 0 and row 1 reads -6*1 + 1*4 = -2
    assert act_vec(m.numerator_columns(), v) == {1: -2}
    assert m.matvec(v) == {1: Fraction(-1)}
    rng = random.Random(37)
    kinds = set()
    for _ in range(80):
        r, c = rng.randint(1, 5), rng.randint(1, 6)
        dense = [[rng.choice([0, 0, 0, 0, 1, -2, Fraction(1, 3)]) for _ in range(c)]
                 for _ in range(r)]
        m = RationalMatrix.from_rows(dense)
        v = {j: x for j in range(c) if (x := rng.choice([0, 1, -1, 3, Fraction(2, 5)]))}
        want = {i: y for i in range(r)
                if (y := sum(Fraction(dense[i][j]) * x for j, x in v.items()))}
        cols = m.numerator_columns()
        kinds |= {min(len(cols[j]), 2) for j in v}
        assert {i: Fraction(y, m.den) for i, y in act_vec(cols, v).items()} == want
        assert m.matvec(v) == want
    assert kinds == {0, 1, 2}


# ---------------------------------------------------------------------------
# property test: the integer RationalMatrix against the Fraction loops
# ---------------------------------------------------------------------------

def _matrix_entries(st):
    """(entry strategy for the constructor, scalar strategy), non-reduced
    inputs among the entries."""
    scalar = st.one_of(st.sampled_from([0, 1, -1, 2, Fraction(3, 6), Fraction(-4, 6)]),
                       st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
                       st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70), st.integers(1, 12)))
    return st.one_of(st.sampled_from([0, 0, Fraction(2, 4), Fraction(-3, 6), Fraction(1, 100)]), scalar), scalar


def _rational_matrices(st, entry, r, c):
    """An r x c matrix: drawn entries, or the zero matrix, or the identity."""
    drawn = st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r).map(
        lambda rows: RationalMatrix(r, c, {(i, j): x for i, row in enumerate(rows)
                                           for j, x in enumerate(row)}))
    special = [st.builds(RationalMatrix, st.just(r), st.just(c))]
    if r == c:
        special.append(st.builds(RationalMatrix.identity, st.just(r)))
    return st.one_of(drawn, drawn, *special)


def _assert_stored_in_lowest_terms(m):
    assert all(m.num.values())
    assert all(type(x) is int for x in m.num.values())
    assert m.den > 0 and gcd(m.den, *m.num.values()) == 1


def test_property_integer_matrix_matches_fraction_loops():
    given, settings, st = _hypothesis()
    entry, scalar = _matrix_entries(st)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.data())
    def check(r, k, c, data):
        a = data.draw(_rational_matrices(st, entry, r, k))
        a2 = data.draw(_rational_matrices(st, entry, r, k))
        b = data.draw(_rational_matrices(st, entry, k, c))
        v = {j: x for j, x in enumerate(data.draw(st.lists(scalar, min_size=k, max_size=k)))
             if x}
        s = data.draw(scalar)
        for m in (a, a2, b):
            _assert_stored_in_lowest_terms(m)
        # values and key order: the order feeds the kernels that golden digests cover
        assert list(a.matmul(b).entries.items()) == list(fraction_matmul(a, b).items())
        assert list(a.matvec(v).items()) == list(fraction_matvec(a, v).items())
        assert list(matrix_sum(a, a2).entries.items()) == list(fraction_add(a, a2).items())
        assert matrix_sum(a, a2, -1).entries == fraction_add(
            a, RationalMatrix(r, k, fraction_scale(a2, -1)))
        assert list(scale(a, s).entries.items()) == list(fraction_scale(a, s).items())
        for m in (a.matmul(b), matrix_sum(a, a2), matrix_sum(a, a2, -1), scale(a, s)):
            _assert_stored_in_lowest_terms(m)
        # a product lists the columns it was built from, or transposes num
        # when a common factor was divided out: either way num's columns
        product = a.matmul(b)
        assert [list(col.items()) for col in product.numerator_columns()] == num_columns(product)
        # equal matrices, however they were reached, hash equal
        twins = [RationalMatrix(r, k, a.entries), a.matmul(RationalMatrix.identity(k)),
                 matrix_sum(a, RationalMatrix(r, k)), scale(scale(a, 2), Fraction(1, 2))]
        for twin in twins:
            assert twin == a and hash(twin) == hash(a)
        if a2 != a:
            assert matrix_sum(a, a2, -1).num

    check()
