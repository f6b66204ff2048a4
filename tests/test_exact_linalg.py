import random
from fractions import Fraction
from math import gcd

import pytest

from infalex.exact_linalg import (MAX_CYCLOTOMIC_ORDER, CyclotomicScalar, RationalMatrix,
                                  act_vec, axpy, cyclotomic_polynomial, echelon_basis, promote)

from module_builders import kernel_column, reduced_coordinates


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
    assert RationalMatrix.identity(2).column_span().contains({0: Fraction(5), 1: Fraction(-7)})
    assert not RationalMatrix.zeros(2, 2).column_span().contains({0: Fraction(1)})
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


def test_decimal_strings_have_a_bounded_exponent():
    # Fraction would build 10**400000 exactly; the exponent is refused first
    import time
    start = time.perf_counter()
    for build in (lambda: RationalMatrix.from_rows([["1e-400000"]]),
                  lambda: CyclotomicScalar(3, ["1e-400000"])):
        with pytest.raises(ValueError, match="decimal exponent"):
            build()
    assert time.perf_counter() - start < 1.0
    m = RationalMatrix.from_rows([["3/2", "1e-3"]])
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
            mat = RationalMatrix(r, c, entries)
            assert mat.rank() == mat.transpose().rank()
            kernel = mat.kernel_basis()
            assert mat.rank() + len(kernel) == c
            assert all(not mat.matvec(k) for k in kernel)


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
    assert quotient == [{0: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)}]
    for k in range(3):
        assert act_vec(quotient, {k: Fraction(2)}) == {k: Fraction(2)}


def test_free_and_coordinates_when_lead_is_not_zero():
    # the span of e1 + 2 e2 has its pivot at 1; positions 0 and 2 stay free
    eb = echelon_basis([{1: Fraction(3), 2: Fraction(6)}])
    assert eb.free(3) == {0: 0, 2: 1}
    # e1 is -2 e2 modulo the span, and e2 is the second quotient basis vector
    quotient = eb.quotient(3)
    assert quotient == [{0: Fraction(1)}, {1: Fraction(-2)}, {1: Fraction(1)}]
    assert act_vec(quotient, {1: Fraction(1)}) == {1: Fraction(-2)}
    assert (act_vec(quotient, {0: Fraction(3), 1: Fraction(1)})
            == {0: Fraction(3), 1: Fraction(-2)})


def test_coordinates_of_span_vector_is_empty():
    eb = echelon_basis([{0: Fraction(1), 2: Fraction(1)}, {1: Fraction(1), 2: Fraction(-1)}])
    assert eb.free(3) == {2: 0}
    quotient = eb.quotient(3)
    # 2 (e0 + e2) - 3 (e1 - e2)
    assert act_vec(quotient, {0: Fraction(2), 1: Fraction(-3), 2: Fraction(5)}) == {}
    assert act_vec(quotient, {2: Fraction(1)}) == {0: Fraction(1)}


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
        _rref, pivots = _dense_rref(rows, n)
        w = data.draw(_vector(st, n))
        # reduce returns d times the remainder: integer entries, d > 0
        scaled, d = eb.reduce(_sparse(w))
        assert type(d) is int and d > 0
        assert all(type(x) is int for x in scaled.values())
        r = {j: Fraction(x, d) for j, x in scaled.items()}
        assert not set(r) & set(pivots)
        diff = [Fraction(x) - r.get(j, 0) for j, x in enumerate(w)]
        assert _dense_rank(rows + [diff], n) == len(pivots)
        pos = eb.free(n)
        coords = act_vec(eb.quotient(n), _sparse(w))
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
        before = eb.vectors()
        _assert_primitive_integer_rows(eb)
        # a copy shares the rows; growing it must leave the original alone
        grown = eb.copy()
        for r in rows[split:]:
            grown.add(_sparse(r))
        _assert_primitive_integer_rows(grown)
        rref, pivots = _dense_rref(rows, n)
        assert grown.vectors() == [_sparse(r) for r in rref]
        assert eb.vectors() == before
        w = data.draw(_vector(st, n))
        assert not set(grown.reduce(_sparse(w))[0]) & set(pivots)

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
        # a cyclotomic remainder needs no scale
        r, d = eb.reduce(_sparse(w, exact))
        assert d == 1
        assert not set(r) & set(pivots)
        diff = [exact(x) + -r.get(j, exact(0)) for j, x in enumerate(w)]
        assert _dense_rank(rows + [diff], n, exact) == len(pivots)
        assert eb.vectors() == [_sparse(r, exact) for r in rref]
        for k in eb.kernel(n).values():
            for row in rows:
                assert not sum((exact(x) * k.get(j, 0) for j, x in enumerate(row)), exact(0))

    check()


@pytest.mark.parametrize("field", ["Q", "Q(zeta_5)"])
def test_property_quotient_is_the_map_onto_free(field):
    given, settings, st = _hypothesis()
    entry, exact, max_n, max_rows, examples = _field(st, field)

    @settings(max_examples=examples, deadline=None)
    @given(_matrices(st, entry, max_n, max_rows), st.data())
    def check(shape, data):
        n, rows = shape
        eb = echelon_basis(_sparse(r, exact) for r in rows)
        quotient = eb.quotient(n)
        assert len(quotient) == n
        # the span goes to zero, and each free position to its basis vector
        for row in rows:
            assert act_vec(quotient, _sparse(row, exact)) == {}
        for row in eb.rows.values():
            assert act_vec(quotient, row) == {}
        pos = eb.free(n)
        for k, t in pos.items():
            assert quotient[k] == {t: 1}
        # the columns are the classes of the unit vectors, key order included,
        # and the map agrees with reducing one vector at a time
        for k in range(n):
            assert (list(quotient[k].items())
                    == list(reduced_coordinates(eb, {k: Fraction(1)}, pos).items()))
        w = _sparse(data.draw(_vector(st, n, entry)), exact)
        assert act_vec(quotient, w) == reduced_coordinates(eb, w, pos)

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


def test_column_vectors_are_built_once_and_match_the_entries():
    m = RationalMatrix.from_rows([[1, 0, "1/2"], [0, 0, 3]])
    cols = m.column_vectors()
    assert m.column_vectors() is cols
    assert len(cols) == m.cols
    assert {(i, j): x for j, col in enumerate(cols) for i, x in col.items()} == m.entries
    assert cols == [{0: Fraction(1)}, {}, {0: Fraction(1, 2), 1: Fraction(3)}]
    # matvec and matmul read the same columns and leave them as they were
    assert m.matvec({2: Fraction(2)}) == {0: Fraction(1), 1: Fraction(6)}
    assert m.matmul(RationalMatrix.identity(3)) == m
    assert m.column_vectors() is cols
    assert cols == [{0: Fraction(1)}, {}, {0: Fraction(1, 2), 1: Fraction(3)}]
