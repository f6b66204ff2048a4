import random
from itertools import product
from fractions import Fraction

import pytest

from infalex.errors import BudgetExceededError
from infalex.exact_linalg import CyclotomicScalar
from infalex.fox_alex import (Character, CharacterError, GroupPresentation,
                              alexander_matrix, betti_one, cv_membership,
                              factors_through_free_part, fox_derivative,
                              fox_identity_defect, free_reduce, generic_rank,
                              gr_mul, saturated_relator_lattice, torsion_sweep,
                              twisted_h1_dim, word_inverse)

F2 = GroupPresentation.make(2, [])
Z2 = GroupPresentation.make(2, [(1, 2, -1, -2)])


def random_word(rng, n, length):
    letters = [s * (i + 1) for i in range(n) for s in (1, -1)]
    return tuple(rng.choice(letters) for _ in range(length))


def test_free_reduce():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1, 3)) == (3,)
    assert free_reduce((1, 2, -1)) == (1, 2, -1)


def test_word_inverse():
    w = (1, 2, -1)
    assert free_reduce(w + word_inverse(w)) == ()


def test_fox_derivative_examples():
    assert fox_derivative((1,), 0) == {(): Fraction(1)}
    assert fox_derivative((1, 1), 0) == {(): Fraction(1), (1,): Fraction(1)}
    # commutator: d(xyx^-1y^-1)/dx = 1 - xyx^-1
    assert fox_derivative((1, 2, -1, -2), 0) == {(): Fraction(1),
                                                 (1, 2, -1): Fraction(-1)}
    assert fox_derivative((-1,), 0) == {(-1,): Fraction(-1)}


def test_fox_derivative_leibniz_random():
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randint(1, 3)
        u = free_reduce(random_word(rng, n, rng.randint(0, 8)))
        v = free_reduce(random_word(rng, n, rng.randint(0, 8)))
        for j in range(n):
            left = fox_derivative(free_reduce(u + v), j)
            rule = dict(fox_derivative(u, j))
            for w, c in gr_mul({u: Fraction(1)}, fox_derivative(v, j)).items():
                rule[w] = rule.get(w, Fraction(0)) + c
            rule = {w: c for w, c in rule.items() if c}
            assert left == rule


def test_fox_fundamental_identity():
    rng = random.Random(1)
    for _ in range(60):
        n = rng.randint(1, 4)
        w = random_word(rng, n, rng.randint(0, 20))
        assert fox_identity_defect(w, n) == {}


def test_alexander_free_group():
    am = alexander_matrix(F2)
    assert am.rows == 0 and am.cols == 2
    assert generic_rank(am) == 0


def test_alexander_z2():
    am = alexander_matrix(Z2)
    assert am.entry(0, 0) == {(0, 0): Fraction(1), (0, 1): Fraction(-1)}   # 1 - t2
    assert am.entry(0, 1) == {(1, 0): Fraction(1), (0, 0): Fraction(-1)}   # t1 - 1
    assert generic_rank(am) == 1


def test_alexander_torsion_relator():
    p = GroupPresentation.make(1, [(1, 1, 1)])
    am = alexander_matrix(p)
    assert am.entry(0, 0) == {(0,): Fraction(1), (1,): Fraction(1), (2,): Fraction(1)}
    assert generic_rank(am) == 1


def test_twisted_h1_free_group():
    for n in (2, 3, 4):
        p = GroupPresentation.make(n, [])
        rho = Character.rational([2] + [1] * (n - 1))
        assert twisted_h1_dim(p, rho) == n - 1


def test_twisted_h1_z2():
    assert twisted_h1_dim(Z2, Character.rational([-1, 1])) == 0
    assert twisted_h1_dim(Z2, Character.rational([1, 1])) == 2   # betti number
    assert betti_one(Z2) == 2


def test_character_relator_validation():
    p = GroupPresentation.make(1, [(1, 1)])
    with pytest.raises(CharacterError):
        twisted_h1_dim(p, Character.rational([2]))   # 2^2 != 1
    assert twisted_h1_dim(p, Character.rational([-1])) == 0


def test_cv_membership_examples():
    assert cv_membership(F2, Character.rational([2, 1]), 1)
    assert not cv_membership(Z2, Character.rational([-1, 1]), 1)
    assert cv_membership(Z2, Character.rational([1, 1]), 2)   # k = b1


def test_cv_membership_torsion_characters():
    z = CyclotomicScalar.zeta(3)
    rho = Character((z, CyclotomicScalar.from_rational(3, 1)))
    assert cv_membership(F2, rho, 1)
    assert not cv_membership(Z2, rho, 1)


def test_torsion_sweep_z2():
    for m in (2, 3, 4):
        found = torsion_sweep(Z2, m, 1)
        assert len(found) == 1
        assert found[0].is_trivial()


def test_torsion_sweep_f2():
    found = torsion_sweep(F2, 2, 1)
    assert len(found) == 4   # trivial included since b1 = 2 >= 1


def test_torsion_sweep_m1():
    assert len(torsion_sweep(Z2, 1, 1)) == 1
    assert torsion_sweep(Z2, 1, 3) == []


def test_torsion_sweep_budget():
    with pytest.raises(BudgetExceededError):
        torsion_sweep(GroupPresentation.make(4, []), 100, 1, budget=1000)


def test_tietze_invariance():
    # conjugating relators and inserting cancelling pairs preserves the tests
    rng = random.Random(5)
    base = GroupPresentation.make(2, [(1, 2, -1, -2)])
    for _ in range(10):
        conj = random_word(rng, 2, rng.randint(0, 4))
        rel = free_reduce(conj + (1, 2, -1, -2) + word_inverse(conj))
        moved = GroupPresentation.make(2, [rel])
        for rho in (Character.rational([-1, 1]), Character.rational([1, 1]),
                    Character.rational([Fraction(2), Fraction(3)])):
            assert twisted_h1_dim(moved, rho) == twisted_h1_dim(base, rho)


def test_character_parse():
    rho = Character.parse("2, -1/3")
    assert rho.values == (Fraction(2), Fraction(-1, 3))
    rho2 = Character.parse("zeta_4^1, zeta_4^2")
    assert rho2.values[0] == CyclotomicScalar.zeta(4, 1)
    assert rho2.values[1] == CyclotomicScalar.zeta(4, 2)
    rho3 = Character.parse("zeta_6^2, 1")
    assert rho3.values[1] == CyclotomicScalar.from_rational(6, 1)
    with pytest.raises(ValueError):
        Character.parse("0, 1")


# -- identity component / saturation ------------------------------------------

def test_saturation_simple_torsion():
    p = GroupPresentation.make(1, [(1, 1)])
    assert saturated_relator_lattice(p) == [(1,)]
    assert not factors_through_free_part(p, Character.rational([-1]))
    assert factors_through_free_part(p, Character.rational([1]))


def test_saturation_subtle_lattice():
    # relator lattice {(2,0,1), (0,2,1)}: the saturation contains (1,1,1)
    p = GroupPresentation.make(3, [(1, 1, 3), (2, 2, 3)])
    sat = saturated_relator_lattice(p)
    from infalex.exact_linalg import echelon_basis
    eb = echelon_basis([{i: Fraction(x) for i, x in enumerate(v) if x} for v in sat])
    assert eb.contains({0: Fraction(1), 1: Fraction(1), 2: Fraction(1)})
    # integer membership too: (1,1,1) = ((2,0,1)+(0,2,1))/2
    z = CyclotomicScalar.zeta(2)
    one = CyclotomicScalar.from_rational(2, 1)
    rho = Character((z, one, one))
    # rho kills both relators but rho(1,1,1) = -1: not on the identity component
    assert twisted_h1_dim(p, rho) >= 0
    assert not factors_through_free_part(p, rho)
    # while (-1,-1,1) kills the whole saturation and is accepted
    assert factors_through_free_part(p, Character((z, z, one)))


def test_saturation_torsion_free_case():
    assert saturated_relator_lattice(F2) == []
    sat = saturated_relator_lattice(Z2)
    assert sat == []   # commutator abelianizes to zero
    assert factors_through_free_part(Z2, Character.rational([-1, 7]))


def _rational_coordinates(basis, v):
    """The c with sum c_i basis[i] == v, by an exact rational solve; None when
    v is outside the span.  The basis must be linearly independent: then the
    last column of [basis | v] is free exactly when v is in the span."""
    from infalex.exact_linalg import RationalMatrix
    r = len(basis)
    m = RationalMatrix.from_columns([{i: x for i, x in enumerate(b) if x}
                                     for b in list(basis) + [v]], len(v))
    for free, kv in m.kernel_basis_with_free():
        if free == r:
            return [-kv.get(i, 0) for i in range(r)]
    return None


def test_property_saturation_against_rational_solve():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from infalex.exact_linalg import echelon_basis

    def relator(exps):
        return tuple(x for i, e in enumerate(exps) for x in [i + 1 if e > 0 else -i - 1] * abs(e))

    def sparse(v):
        return {i: Fraction(x) for i, x in enumerate(v) if x}

    def on_lattice(basis, v):
        c = _rational_coordinates(basis, v)
        return c is not None and all(Fraction(x).denominator == 1 for x in c)

    shapes = st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=3)))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(shapes)
    def check(shape):
        n, rows = shape
        sat = saturated_relator_lattice(GroupPresentation.make(n, [relator(r) for r in rows]))
        assert all(len(b) == n for b in sat)
        assert echelon_basis(map(sparse, sat)).rank == len(sat)
        span = echelon_basis(map(sparse, rows))
        # every relator is an integer combination of the basis
        assert all(on_lattice(sat, r) for r in rows)
        # every basis vector lies in the rational span of the relators
        assert all(span.contains(sparse(b)) for b in sat)
        # every integer point of a small box in that span is on the lattice
        for v in product(range(-2, 3), repeat=n):
            if span.contains(sparse(v)):
                assert on_lattice(sat, v), v

    check()

    check()


def test_restricted_membership():
    p = GroupPresentation.make(1, [(1, 1)])
    with pytest.raises(CharacterError):
        cv_membership(p, Character.rational([-1]), 1, restricted=True)


def test_sweep_with_torsion_abelianization():
    # <x, y | x^2, [x, y]>: abelianization Z/2 x Z; all four order-2
    # characters respect the relators but only the trivial one is a member
    p = GroupPresentation.make(2, [(1, 1), (1, 2, -1, -2)])
    found = torsion_sweep(p, 2, 1)
    assert len(found) == 1 and found[0].is_trivial()
    assert betti_one(p) == 1


def test_generic_rank_bounds_special_ranks():
    rng = random.Random(8)
    groups = [Z2,
              GroupPresentation.make(2, [(1, 1, 2, 2)]),
              GroupPresentation.make(3, [(1, 2, -1, -2), (2, 3, -2, -3)])]
    for p in groups:
        am = alexander_matrix(p)
        grank = generic_rank(am)
        for _ in range(6):
            vals = [Fraction(rng.choice([-2, -1, 1, 2, 3])) for _ in range(p.num_generators)]
            rho = Character.rational(vals)
            try:
                evaluated_rank = am.evaluate(rho).rank()
            except Exception:
                continue
            assert evaluated_rank <= grank


# -- torsion sweeps: exponent bins and Galois orbits ----------------------------

TREFOIL = GroupPresentation.make(2, [(1, 2, 1, -2, -1, -2)])    # xyx = yxy
F2XZ = GroupPresentation.make(3, [(1, 3, -1, -3), (2, 3, -2, -3)])
X3_COMMUTING = GroupPresentation.make(2, [(1, 1, 1), (1, 2, -1, -2)])   # <x, y | x^3, [x, y]>


def _brute_force_sweep(p, m, k):
    out = []
    for exps in product(range(m), repeat=p.num_generators):
        rho = Character.torsion(m, exps)
        try:
            if cv_membership(p, rho, k):
                out.append(rho)
        except CharacterError:
            continue
    return out


@pytest.mark.parametrize("m", [5, 6, 8])
@pytest.mark.parametrize("k", [1, 2])
def test_orbit_sweep_matches_brute_force(m, k):
    for p in (TREFOIL, F2XZ, X3_COMMUTING):
        assert torsion_sweep(p, m, k) == _brute_force_sweep(p, m, k)


def test_orbit_sweep_pins():
    # the trefoil's Alexander polynomial t^2 - t + 1 vanishes at the primitive
    # 6th roots, one Galois orbit {(1, 1), (5, 5)}
    found = [rho.torsion_exponents() for rho in torsion_sweep(TREFOIL, 6, 1)]
    assert found == [(0, 0), (1, 1), (5, 5)]
    # x^3 = 1 leaves x = zeta_6^a with a even; odd a are not characters
    found = [rho.torsion_exponents() for rho in torsion_sweep(X3_COMMUTING, 6, 1)]
    assert found == [(0, 0)]
    with pytest.raises(CharacterError):
        twisted_h1_dim(X3_COMMUTING, Character.torsion(6, (1, 0)))


@pytest.mark.parametrize("m", [5, 6, 7, 8])
def test_kunneth_f2xf2_members(m):
    # H_1(F_2 x F_2; C_rho) != 0 exactly when rho is trivial on one factor
    p = GroupPresentation.make(4, [(x, y, -x, -y) for x in (1, 2) for y in (3, 4)])
    found = [rho.torsion_exponents() for rho in torsion_sweep(p, m, 1)]
    assert len(found) == 2 * m * m - 1
    assert found == [e for e in product(range(m), repeat=4)
                     if not any(e[:2]) or not any(e[2:])]


def test_torsion_exponents():
    assert Character.torsion(6, (1, -1, 7)).torsion_exponents() == (1, 5, 1)
    assert Character.torsion(1, (0, 0)).torsion_exponents() == (0, 0)
    assert Character.parse("zeta_4^3, 1").torsion_exponents() == (3, 0)
    assert Character.rational([1, -1]).torsion_exponents() is None
    # rational values that are not powers of zeta_m, and -1 in Q(zeta_3)
    assert Character.parse("zeta_3, 2").torsion_exponents() is None
    assert Character.parse("zeta_3, -1").torsion_exponents() is None


def test_bin_evaluation_matches_zeta_products():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 3)
        p = GroupPresentation.make(n, [random_word(rng, n, rng.randint(1, 10))
                                       for _ in range(rng.randint(1, 3))])
        m = rng.randint(1, 9)
        exps = [rng.randrange(m) for _ in range(n)]
        rho = Character.torsion(m, exps)
        am = alexander_matrix(p)
        expected = {}
        for pos, poly in am.entries.items():
            val = CyclotomicScalar.from_rational(m, 0)
            for e, coeff in poly.items():
                term = CyclotomicScalar.from_rational(m, coeff)
                for a, k in zip(exps, e):
                    term = term * CyclotomicScalar.zeta(m, a * k)
                val = val + term
            if val:
                expected[pos] = val
        assert am.evaluate(rho).entries == expected
        # table lookups against powers by repeated multiplication and inversion
        for e in p.relator_exponent_matrix():
            value = CyclotomicScalar.from_rational(m, 1)
            for i, (a, k) in enumerate(zip(exps, e)):
                power = CyclotomicScalar.zeta(m, a) ** k
                assert rho.value_power(i, k) == power
                value = value * power
            assert rho.evaluate_exponent(e) == value
