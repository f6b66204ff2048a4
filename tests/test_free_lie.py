import hashlib
import random
from fractions import Fraction

import pytest

from infalex.exact_linalg import axpy
from infalex.free_lie import (ad_generator_matrix, basis_bracket, lyndon_index, lyndon_words,
                              standard_factorization, tensor_expansion, witt_dims)


def brute_force_lyndon(n, q):
    """Independent enumeration: keep the words strictly below every rotation."""
    out = []
    def rec(prefix):
        if len(prefix) == q:
            w = tuple(prefix)
            if all(w < w[i:] + w[:i] for i in range(1, q)):
                out.append(w)
            return
        for a in range(n):
            rec(prefix + [a])
    rec([])
    return out


def test_lyndon_small_cases():
    assert lyndon_words(2, 1) == [(0,), (1,)]
    assert lyndon_words(2, 2) == [(0, 1)]
    assert lyndon_words(2, 3) == [(0, 0, 1), (0, 1, 1)]


@pytest.mark.parametrize("n,q", [(2, 4), (2, 5), (3, 3), (3, 4), (4, 3)])
def test_lyndon_against_brute_force(n, q):
    assert lyndon_words(n, q) == brute_force_lyndon(n, q)


def test_witt_values():
    assert witt_dims(2, 4).dims == (2, 1, 2, 3)
    assert witt_dims(3, 3).dims == (3, 3, 8)
    assert witt_dims(1, 5).dims == (1, 0, 0, 0, 0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_witt_matches_enumeration(n):
    for q in range(1, 9):
        assert witt_dims(n, q)[q] == len(lyndon_words(n, q))


def test_standard_factorization_convention():
    # w = uv with v the longest proper Lyndon suffix
    assert standard_factorization((0, 1)) == ((0,), (1,))
    assert standard_factorization((0, 1, 1)) == ((0, 1), (1,))
    assert standard_factorization((0, 0, 1)) == ((0,), (0, 1))


def test_tensor_expansion_triangular():
    for n, q in [(2, 3), (2, 5), (3, 4)]:
        for w in lyndon_words(n, q):
            exp = tensor_expansion(w)
            assert exp[w] == 1
            assert min(exp) == w


def _bracket(x, y):
    """[x, y] for elements given as {Lyndon word: coefficient}: the bilinear
    extension of basis_bracket."""
    out = {}
    for u, a in x.items():
        for v, b in y.items():
            axpy(out, a * b, dict(basis_bracket(u, v)))
    return out


def _generator(i):
    return {(i,): 1}


def _sum(*elements):
    """The coordinates of the sum, accumulated with axpy: empty exactly when
    the sum is zero."""
    out = {}
    for x in elements:
        axpy(out, 1, x)
    return out


def test_bracket_basics():
    e0, e1 = _generator(0), _generator(1)
    assert _bracket(e0, e0) == {}
    assert _bracket(e0, e1) == {(0, 1): 1}
    assert _bracket(_bracket(e0, e1), e1) == {(0, 1, 1): 1}
    # antisymmetry of the mixed bracket
    assert not _sum(_bracket(e0, e1), _bracket(e1, e0))


def test_basis_bracket_is_sorted_integer_coordinates():
    for u, v in [((0,), (1,)), ((1,), (0, 1)), ((0, 1), (0, 1, 1)), ((2,), (0, 1)),
                 ((0, 2), (1,))]:
        coords = basis_bracket(u, v)
        assert [w for w, _c in coords] == sorted(w for w, _c in coords)
        assert all(type(c) is int and c for _w, c in coords)


def test_basis_bracket_expands_to_the_commutator():
    # independent of the rewriting: the tensor expansions of the coordinates
    # add up to b(u) b(v) - b(v) b(u) in the tensor algebra
    for n, du, dv in [(2, 1, 2), (3, 1, 2), (2, 2, 3), (3, 2, 2), (2, 1, 4)]:
        for u in lyndon_words(n, du):
            for v in lyndon_words(n, dv):
                commutator = {}
                for a, ca in tensor_expansion(u).items():
                    for b, cb in tensor_expansion(v).items():
                        axpy(commutator, ca * cb, {a + b: 1})
                        axpy(commutator, -ca * cb, {b + a: 1})
                for w, c in basis_bracket(u, v):
                    axpy(commutator, -c, tensor_expansion(w))
                assert commutator == {}, (u, v)


def _random_element(rng, n, degree):
    return {w: c for w in lyndon_words(n, degree) if (c := rng.randint(-3, 3))}


@pytest.mark.parametrize("degrees", [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 2, 3)])
def test_jacobi_random(degrees):
    rng = random.Random(sum(degrees))
    for n in (2, 3):
        for _ in range(4):
            x, y, z = (_random_element(rng, n, d) for d in degrees)
            assert not _sum(_bracket(_bracket(x, y), z), _bracket(_bracket(y, z), x),
                            _bracket(_bracket(z, x), y))


def test_antisymmetry_random():
    rng = random.Random(9)
    for n in (2, 3):
        for dx, dy in [(1, 2), (2, 3), (2, 2)]:
            x, y = _random_element(rng, n, dx), _random_element(rng, n, dy)
            assert not _sum(_bracket(x, y), _bracket(y, x))


def test_wedge2_to_degree2_isomorphism():
    # a ^ b |-> [a, b] sends the pair basis bijectively onto the Lyndon basis
    for n in (2, 3, 4):
        images = []
        for i in range(n):
            for j in range(i + 1, n):
                img = _bracket(_generator(i), _generator(j))
                assert img == {(i, j): 1}
                images.append(img)
        assert len(images) == len(lyndon_words(n, 2))


def test_ad_matrix_zero_vector():
    # ad_{e_i} sends e_i to the zero vector
    for n in (2, 3):
        for i in range(n):
            assert ad_generator_matrix(n, i, 1).matvec({i: Fraction(1)}) == {}


def test_ad_matrix_generator_degree1():
    m = ad_generator_matrix(2, 0, 1)
    # e1 |-> [e0, e1], e0 |-> 0
    assert m.rank() == 1
    assert m.entries == {(0, 1): Fraction(1)}


def test_ad_matrix_degree2():
    m = ad_generator_matrix(2, 0, 2)
    assert (m.rows, m.cols) == (2, 1)
    assert m.rank() == 1


def test_ad_matrix_matches_bracket():
    # the matrices that the ideal echelon and bb_direct apply, column by
    # column against the bilinear bracket
    for n, q in [(2, 1), (2, 2), (3, 2), (2, 3)]:
        idx = lyndon_index(n, q + 1)
        for i in range(n):
            m = ad_generator_matrix(n, i, q)
            for col, w in enumerate(lyndon_words(n, q)):
                expected = _bracket(_generator(i), {w: 1})
                assert m.matvec({col: Fraction(1)}) == {idx[u]: c for u, c in expected.items()}


# sha256 over (n, i, q, rows, cols, sorted entries) of every ad_generator_matrix
# with n <= 4 and q <= 4, recorded from the Fraction bracket on LieElements
# that the integer basis_bracket replaced
AD_MATRICES_SHA256 = "4ef9869ece32bafc739d3d3e97613e14863da0de9306b8d6e7e32fc40d986059"


def test_ad_matrices_equal_the_recorded_fraction_route():
    h = hashlib.sha256()
    for n in range(1, 5):
        for q in range(1, 5):
            for i in range(n):
                m = ad_generator_matrix(n, i, q)
                h.update(repr((n, i, q, m.rows, m.cols, sorted(m.entries.items()))).encode())
    assert h.hexdigest() == AD_MATRICES_SHA256
