import random
from itertools import product
from fractions import Fraction
from math import gcd, isqrt

import pytest

from infalex.errors import BudgetExceededError
from infalex.exact_linalg import CyclotomicScalar, echelon_basis
from infalex import fox_alex
from infalex.fox_alex import (Character, CharacterError, GroupPresentation, LaurentMatrix,
                              _check_character, alexander_matrix, betti_one, cv_membership,
                              factors_through_free_part, free_reduce,
                              saturated_relator_lattice, torsion_sweep, twisted_h1_dim)

from module_builders import (abelianize, fox_derivative, fox_identity_defect, generic_rank, gr_mul,
                             matrix_from_columns)

F2 = GroupPresentation.make(2, [])
Z2 = GroupPresentation.make(2, [(1, 2, -1, -2)])


def random_word(rng, n, length):
    letters = [s * (i + 1) for i in range(n) for s in (1, -1)]
    return tuple(rng.choice(letters) for _ in range(length))


def word_inverse(word):
    return tuple(-x for x in reversed(word))


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


def test_alexander_matrix_matches_abelianized_fox_derivatives():
    # the one-pass integer read against the group-ring oracle, entry by
    # entry, on words that are not freely reduced as well as on words that are
    rng = random.Random(33)
    for trial in range(200):
        n = rng.randint(1, 4)
        words = [random_word(rng, n, rng.randint(0, 20)) for _ in range(rng.randint(1, 3))]
        if trial % 2:
            words = [free_reduce(w) for w in words]
        am = alexander_matrix(GroupPresentation(n, tuple(words)))
        expected = {(r, j): poly for r, w in enumerate(words) for j in range(n)
                    if (poly := abelianize(fox_derivative(w, j), n))}
        assert am.entries == expected, words
        assert all(type(c) is int for poly in am.entries.values() for c in poly.values())


def test_alexander_free_group():
    am = alexander_matrix(F2)
    assert am.rows == 0 and am.cols == 2
    assert generic_rank(am) == 0


def test_alexander_z2():
    am = alexander_matrix(Z2)
    assert am.entries[(0, 0)] == {(0, 0): 1, (0, 1): -1}   # 1 - t2
    assert am.entries[(0, 1)] == {(1, 0): 1, (0, 0): -1}   # t1 - 1
    assert generic_rank(am) == 1


def test_alexander_torsion_relator():
    p = GroupPresentation.make(1, [(1, 1, 1)])
    am = alexander_matrix(p)
    assert am.entries[(0, 0)] == {(0,): 1, (1,): 1, (2,): 1}
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
    r = len(basis)
    m = matrix_from_columns([{i: x for i, x in enumerate(b) if x}
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
    z3 = GroupPresentation.make(3, [(1, 2, -1, -2), (2, 3, -2, -3), (1, 3, -1, -3)])
    # three relators take the Bareiss elimination through an exact division
    assert generic_rank(alexander_matrix(z3)) == 2
    groups = [Z2,
              GroupPresentation.make(2, [(1, 1, 2, 2)]),
              GroupPresentation.make(3, [(1, 2, -1, -2), (2, 3, -2, -3)]),
              z3]
    for p in groups:
        am = alexander_matrix(p)
        grank = generic_rank(am)
        for _ in range(6):
            vals = [Fraction(rng.choice([-2, -1, 1, 2, 3])) for _ in range(p.num_generators)]
            assert echelon_basis(am.evaluate(Character.rational(vals))).rank <= grank


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


def _unit_orbit_count(n, m):
    # the orbits {u e mod m : u a unit mod m} of exponent vectors in
    # (Z/m)^n, each listed in full
    units = [u for u in range(1, m + 1) if gcd(u, m) == 1]
    return len({frozenset(tuple(u * x % m for x in e) for u in units)
                for e in product(range(m), repeat=n)})


@pytest.mark.parametrize("m", [6, 8, 12])
def test_orbit_sweep_ranks_once_per_unit_orbit(monkeypatch, m):
    # twisted_h1_dim is called once per orbit, the orbits that are not
    # characters included (it refuses those); the trefoil at m = 6 has 20
    calls = []
    h1 = fox_alex.twisted_h1_dim
    monkeypatch.setattr(fox_alex, "twisted_h1_dim",
                        lambda p, rho: calls.append(rho) or h1(p, rho))
    for p in (TREFOIL, F2XZ, X3_COMMUTING):
        calls.clear()
        torsion_sweep(p, m, 1)
        assert len(calls) == _unit_orbit_count(p.num_generators, m), p
    assert _unit_orbit_count(2, 6) == 20


def test_orbit_sweep_pins():
    # the trefoil's Alexander polynomial t^2 - t + 1 vanishes at the primitive
    # 6th roots, one Galois orbit {(1, 1), (5, 5)}
    found = [rho.torsion_exponents for rho in torsion_sweep(TREFOIL, 6, 1)]
    assert found == [(0, 0), (1, 1), (5, 5)]
    # x^3 = 1 leaves x = zeta_6^a with a even; odd a are not characters
    found = [rho.torsion_exponents for rho in torsion_sweep(X3_COMMUTING, 6, 1)]
    assert found == [(0, 0)]
    with pytest.raises(CharacterError):
        twisted_h1_dim(X3_COMMUTING, Character.torsion(6, (1, 0)))


@pytest.mark.parametrize("m", [5, 6, 7, 8])
def test_kunneth_f2xf2_members(m):
    # H_1(F_2 x F_2; C_rho) != 0 exactly when rho is trivial on one factor
    p = GroupPresentation.make(4, [(x, y, -x, -y) for x in (1, 2) for y in (3, 4)])
    found = [rho.torsion_exponents for rho in torsion_sweep(p, m, 1)]
    assert len(found) == 2 * m * m - 1
    assert found == [e for e in product(range(m), repeat=4)
                     if not any(e[:2]) or not any(e[2:])]


def test_torsion_exponents():
    assert Character.torsion(6, (1, -1, 7)).torsion_exponents == (1, 5, 1)
    assert Character.torsion(1, (0, 0)).torsion_exponents == (0, 0)
    assert Character.parse("zeta_4^3, 1").torsion_exponents == (3, 0)
    assert Character.rational([1, -1]).torsion_exponents is None
    # rational values that are not powers of zeta_m, and -1 in Q(zeta_3)
    assert Character.parse("zeta_3, 2").torsion_exponents is None
    assert Character.parse("zeta_3, -1").torsion_exponents is None


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
        expected = [{} for _ in range(am.cols)]
        for (r, c), poly in am.entries.items():
            val = CyclotomicScalar.from_rational(m, 0)
            for e, coeff in poly.items():
                term = CyclotomicScalar.from_rational(m, coeff)
                for a, k in zip(exps, e):
                    term = term * CyclotomicScalar.zeta(m, a * k)
                val = val + term
            if val:
                expected[c][r] = val
        assert am.evaluate(rho) == expected
        # table lookups against powers by repeated multiplication and inversion
        for e in p.relator_exponents:
            value = CyclotomicScalar.from_rational(m, 1)
            for a, k in zip(exps, e):
                value = value * CyclotomicScalar.zeta(m, a) ** k
            assert rho.evaluate_exponent(e) == value


# -- the rank mod p at torsion characters ---------------------------------------

F2XF2 = GroupPresentation.make(4, [(x, y, -x, -y) for x in (1, 2) for y in (3, 4)])


def _exact_h1(p, rho):
    """dim H_1 from the rank over Q(zeta_m) alone, with no rank mod p."""
    if rho.is_trivial():
        return betti_one(p)
    return (p.num_generators - 1) - echelon_basis(p.alexander.evaluate(rho)).rank


def _commutator_presentations(seed, count):
    """Presentations whose relators are commutators [u, v] of random words,
    so every point of the character torus is a character."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 3)
        relators = []
        for _ in range(rng.randint(1, 2)):
            u, v = random_word(rng, n, rng.randint(1, 3)), random_word(rng, n, 2)
            relators.append(u + v + word_inverse(u) + word_inverse(v))
        out.append(GroupPresentation.make(n, relators))
    return out


def _characters(p, m):
    for exps in product(range(m), repeat=p.num_generators):
        rho = Character.torsion(m, exps)
        try:
            _check_character(p, rho)
        except CharacterError:
            continue
        yield rho


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 12])
def test_rank_mod_p_agrees_with_the_exact_rank(m):
    groups = _commutator_presentations(m, 6) + [TREFOIL, F2XZ, X3_COMMUTING]
    for p in groups:
        for rho in _characters(p, m):
            assert twisted_h1_dim(p, rho) == _exact_h1(p, rho), (p, rho.torsion_exponents)


@pytest.mark.slow
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 12])
def test_rank_mod_p_agrees_with_the_exact_rank_f2xf2(m):
    for rho in _characters(F2XF2, m):
        assert twisted_h1_dim(F2XF2, rho) == _exact_h1(F2XF2, rho), rho.torsion_exponents


def _primes_in_window(lo, hi):
    """The primes in [lo, hi], 2 <= lo, by a sieve of that window with every
    d <= sqrt(hi)."""
    composite = bytearray(hi - lo + 1)
    for d in range(2, isqrt(hi) + 1):
        start = max(d * d, -(-lo // d) * d)
        composite[start - lo::d] = b"\x01" * len(range(start, hi + 1, d))
    return {lo + i for i, c in enumerate(composite) if not c}


@pytest.mark.parametrize("m", range(1, 31))
def test_modular_root(m):
    p, omega = fox_alex._modular_root(m)
    assert p > 2 ** 24 and (p - 1) % m == 0
    # the sieve of [2^24, p] shows p prime, and every p' = 1 mod m between
    # 2^24 and p composite
    assert [q for q in sorted(_primes_in_window(2 ** 24, p)) if (q - 1) % m == 0] == [p]
    # exact order m
    assert pow(omega, m, p) == 1
    assert all(pow(omega, d, p) != 1 for d in range(1, m))


def _counting_evaluate(monkeypatch):
    calls = []
    evaluate = LaurentMatrix.evaluate

    def counted(self, rho):
        calls.append(rho.torsion_exponents)
        return evaluate(self, rho)

    monkeypatch.setattr(LaurentMatrix, "evaluate", counted)
    return calls


def test_a_bad_prime_falls_back_to_the_exact_rank(monkeypatch):
    # A(-1, -1) of the trefoil is (3, -3), so mod 3 its rank is 0 < n - 1 = 1:
    # that proves nothing, and the rank over Q(zeta_2) = Q is taken instead
    root = fox_alex._modular_root
    monkeypatch.setattr(fox_alex, "_modular_root", lambda m: (3, 2) if m == 2 else root(m))
    calls = _counting_evaluate(monkeypatch)
    rho = Character.torsion(2, (1, 1))
    assert TREFOIL.alexander.rank_mod_p((1, 1), 2) == 0
    assert twisted_h1_dim(TREFOIL, rho) == 0
    assert calls == [(1, 1)]


def test_exact_rank_runs_once_per_member_orbit(monkeypatch):
    # F_2 x F_2 at m = 5: 49 members in 13 orbits, one of them the trivial
    # character (ranked by betti_one), so 12 eliminations over Q(zeta_5)
    calls = _counting_evaluate(monkeypatch)
    assert len(torsion_sweep(F2XF2, 5, 1)) == 2 * 5 * 5 - 1
    assert len(calls) == 12


def test_relator_congruence_matches_the_relator_values():
    rng = random.Random(49)
    for _ in range(30):
        n = rng.randint(1, 3)
        p = GroupPresentation.make(n, [random_word(rng, n, rng.randint(1, 6))
                                       for _ in range(rng.randint(1, 2))])
        m = rng.randint(1, 8)
        for exps in product(range(m), repeat=n):
            rho = Character.torsion(m, exps)
            respects = all(rho.evaluate_exponent(e) == 1 for e in p.relator_exponents)
            try:
                _check_character(p, rho)
                assert respects, (p, exps)
            except CharacterError:
                assert not respects, (p, exps)
