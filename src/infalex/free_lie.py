"""The free graded Lie algebra L(V) on n generators, realized in the Lyndon basis.

A Lyndon word is a word strictly smaller than all of its proper cyclic
rotations.  The basis element attached to a Lyndon word w of length >= 2 is
the bracket [b(u), b(v)] of the standard factorization w = uv, where v is
the longest proper Lyndon suffix of w.  Expansions in the tensor algebra are
triangular with respect to lexicographic order (b(w) = w + larger words),
which is what makes rewriting into the basis a finite elimination.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache

from .exact_linalg import RationalMatrix, axpy

Word = tuple[int, ...]


# ---------------------------------------------------------------------------
# Lyndon words
# ---------------------------------------------------------------------------

def is_lyndon(w: Word) -> bool:
    if not w:
        return False
    n = len(w)
    return all(w < w[i:] + w[:i] for i in range(1, n))


def lyndon_words(n: int, q: int) -> list[Word]:
    """All Lyndon words of length exactly q on the alphabet {0..n-1}, sorted."""
    if n < 1 or q < 1:
        raise ValueError("need n >= 1 and q >= 1")
    # Duval's generation of Lyndon words of length <= q, in lex order
    out: list[Word] = []
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m == q:
            out.append(tuple(w))
        while len(w) < q:
            w.append(w[-m])
        while w and w[-1] == n - 1:
            w.pop()
    return out


@lru_cache(maxsize=64)
def _lyndon_words_cached(n: int, q: int) -> tuple[Word, ...]:
    return tuple(lyndon_words(n, q))


# ad_generator_matrix and quad_lie._second_derived ask for it once per entry
# they build, and both are cached: the bb-direct benchmark (n = 3 to degree
# 6, n = 4 to degree 4) holds 8 entries, and acceptance criterion 3 (n = 2 to
# 4, degrees 2 to 6) 15.  An entry holds every word of its degree, so a
# caller at large n indexes only the words it needs
@lru_cache(maxsize=32)
def lyndon_index(n: int, q: int) -> dict[Word, int]:
    """Lyndon word -> its index in _lyndon_words_cached(n, q), shared by
    every caller, which only reads it."""
    return {w: i for i, w in enumerate(_lyndon_words_cached(n, q))}


def _mobius(d: int) -> int:
    mu, p = 1, 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            mu = -mu
        p += 1
    if d > 1:
        mu = -mu
    return mu


@dataclass(frozen=True)
class GradedDims:
    """Dimension table indexed by degree, starting at first_degree."""

    first_degree: int
    dims: tuple[int, ...]

    def __getitem__(self, degree: int) -> int:
        i = degree - self.first_degree
        if not (0 <= i < len(self.dims)):
            raise IndexError(f"degree {degree} outside table")
        return self.dims[i]


def witt_dims(n: int, max_degree: int) -> GradedDims:
    """Necklace counts: dim L_q = (1/q) sum_{d|q} mu(d) n^(q/d)."""
    dims = []
    for q in range(1, max_degree + 1):
        total = sum(_mobius(d) * n ** (q // d) for d in range(1, q + 1) if q % d == 0)
        dims.append(total // q)
    return GradedDims(1, tuple(dims))


# ---------------------------------------------------------------------------
# standard bracketing and tensor expansion
# ---------------------------------------------------------------------------

def standard_factorization(w: Word) -> tuple[Word, Word]:
    """w = uv with v the longest proper Lyndon suffix; both factors are Lyndon."""
    if len(w) < 2:
        raise ValueError("factorization needs length >= 2")
    for i in range(1, len(w)):
        if is_lyndon(w[i:]):
            return w[:i], w[i:]
    raise AssertionError(f"{w} is not Lyndon")


# a genus-4 centrality check holds 12,024 expansions
@lru_cache(maxsize=1 << 15)
def tensor_expansion(w: Word) -> dict[Word, int]:
    """Expansion of the standard bracketing b(w) in the tensor algebra.

    The lexicographically smallest word of the expansion is w itself, with
    coefficient 1.
    """
    if len(w) == 1:
        return {w: 1}
    u, v = standard_factorization(w)
    eu, ev = tensor_expansion(u), tensor_expansion(v)
    out: dict[Word, int] = {}
    for a, ca in eu.items():
        axpy(out, ca, {a + b: cb for b, cb in ev.items()})
        axpy(out, -ca, {b + a: cb for b, cb in ev.items()})
    return out


# ---------------------------------------------------------------------------
# brackets of basis elements
# ---------------------------------------------------------------------------

# a genus-4 centrality check holds 16,144 brackets
@lru_cache(maxsize=1 << 15)
def basis_bracket(u: Word, v: Word) -> tuple[tuple[Word, int], ...]:
    """[b(u), b(v)] in the Lyndon basis, as (word, coefficient) pairs sorted
    by word, cached on the word pair.

    The commutator of the two tensor expansions is rewritten into the basis
    in increasing lex order of words: each subtraction only introduces larger
    words, so a heap with lazy deletion terminates.  The Lyndon basis is a
    Z-basis of the free Lie ring and every b(w) has lead coefficient 1, so
    the rewriting never leaves Z.
    """
    work: dict[Word, int] = {}
    for a, ca in tensor_expansion(u).items():
        for b, cb in tensor_expansion(v).items():
            work[a + b] = work.get(a + b, 0) + ca * cb
            work[b + a] = work.get(b + a, 0) - ca * cb
    heap = list(work)
    heapq.heapify(heap)
    out: dict[Word, int] = {}
    while heap:
        w = heapq.heappop(heap)
        c = work.get(w)
        if not c:
            continue
        if not is_lyndon(w):
            raise ValueError(f"not a Lie element: stray word {w}")
        out[w] = c
        for word, coeff in tensor_expansion(w).items():
            cur = work.get(word)
            nv = (cur if cur is not None else 0) - c * coeff
            if nv:
                if cur is None:
                    heapq.heappush(heap, word)
                work[word] = nv
            elif cur is not None:
                del work[word]
    return tuple(sorted(out.items()))


# one matrix per generator and degree, read only by quad_lie._metabelian_ad,
# which is cached too and which a presentation with R = 0 or R = wedge^2 V
# never asks for: bb_direct up to degree q on n generators takes at most
# n * q, so the bb-direct benchmark (n = 3 to q = 4, n = 4 to q = 2) holds 20
# and acceptance criterion 3 (n = 3, 4 to q = 4; at n = 2 every R is 0 or
# all of L_2) 28
@lru_cache(maxsize=128)
def ad_generator_matrix(n: int, i: int, q: int) -> RationalMatrix:
    """Matrix of ad_{e_i}: L_q -> L_{q+1} in the Lyndon bases."""
    src = _lyndon_words_cached(n, q)
    tgt_idx = lyndon_index(n, q + 1)
    entries = {}
    for j, w in enumerate(src):
        for word, c in basis_bracket((i,), w):
            entries[(tgt_idx[word], j)] = c
    return RationalMatrix.from_integers(len(tgt_idx), len(src), entries)
