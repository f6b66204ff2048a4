"""Quadratic graded Lie algebras L(V)/ideal(R) with R inside wedge^2 V.

The brute-force route to the infinitesimal Alexander invariant
(``bb_direct``) reads the degree-q piece of G'/G'' as L_d / (ideal(R)_d +
L''_d), d = q + 2, where L'' = [L', L'] is the second derived algebra of
L = L(V).  It works in the free metabelian quotient M = L / L'', whose
dimensions are the Chen ranks of the free group (Papadima-Suciu, "Chen Lie
algebras", IMRN 2004).  Two pieces depend on (n, d) alone and are cached:
the echelon basis of L''_d, whose free Lyndon words are the basis of M_d,
and each ad_{e_i}: M_{d-1} -> M_d.  Per presentation, the image of
ideal(R) in M, the ideal of M that the image of R generates, is spanned
degree by degree by the monomials ad_{e_k1} ... ad_{e_kd} applied to R in
degree 2.  On M' = M_{>=2} the ad_{e_k} commute: by Jacobi,
[e_k, [e_l, m]] - [e_l, [e_k, m]] = [[e_k, e_l], m], which lies in
[M', M'] = 0.  So each monomial is taken once, with its steps in
increasing order, as the nilpotence test of ``nilpotent_transport`` takes
its commuting steps.  After a zero degree every later one is zero, and
after a degree that is all of M_{q-1} every later one is all of M_q; those
pieces are written down, not eliminated.  The route uses brackets only, and
exists as the independent oracle for the presentation-matrix route in
``alex_module``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from . import documents
from .exact_linalg import (ZERO, EchelonBasis, RationalMatrix, Vec, _to_fraction, act_vec,
                           echelon_basis)
from .free_lie import _lyndon_words_cached, ad_generator_matrix, basis_bracket, lyndon_index

Pair = tuple[int, int]


def wedge2_pairs(n: int) -> list[Pair]:
    return list(combinations(range(n), 2))


def wedge2_index(n: int) -> dict[Pair, int]:
    return {p: i for i, p in enumerate(wedge2_pairs(n))}


def _normalize_relation(n: int, idx: dict[Pair, int], rel: dict) -> Vec:
    """Relation vector keyed by wedge-pair index idx = wedge2_index(n),
    entries exact: an int coefficient stays an int, so an all-int relation
    enters the echelon basis as it is, and any other is a Fraction.

    Terms on the same pair are summed plainly; the echelon basis that
    receives the vector drops entries that cancel.
    """
    out: Vec = {}
    for key, c in rel.items():
        i, j = key
        if type(c) is not int:
            c = _to_fraction(c)
        if not c:
            continue
        if i == j:
            raise ValueError("wedge pair with equal indices")
        if i > j:
            i, j, c = j, i, -c
        k = idx.get((i, j))
        if k is None:
            raise ValueError(f"wedge pair ({i}, {j}) out of range for dim_v {n}")
        out[k] = out.get(k, 0) + c
    return out


@dataclass(frozen=True)
class LiePresentation:
    """Generator space dimension plus an echelonized basis of R in wedge^2 V."""

    dim_v: int
    relations: tuple[Vec, ...] = ()
    _cache: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    def __post_init__(self):
        # relation_span() and every route read the span that make() builds
        if ("ideal", 2) not in self._cache:
            raise ValueError("build a LiePresentation by LiePresentation.make(dim_v, relations)")

    @staticmethod
    def make(dim_v: int, relations) -> "LiePresentation":
        if dim_v < 1:
            raise ValueError("dim_v >= 1 required")
        idx = wedge2_index(dim_v)
        eb = echelon_basis(_normalize_relation(dim_v, idx, r) for r in relations)
        return LiePresentation(dim_v, tuple(eb.vectors()), _cache={("ideal", 2): eb})

    @staticmethod
    def from_json(doc) -> "LiePresentation":
        """Document shape: {"dim_v": n, "relations": [[{"i":..,"j":..,"c":"p/q"},..],..]}."""
        doc = documents.load(doc, "Lie presentation")
        dim_v = documents.field(doc, "dim_v", documents.integer)
        rels = []
        for r, terms in enumerate(documents.field(doc, "relations", documents.array,
                                                  default=[])):
            rel: dict[Pair, Fraction] = {}
            for t, term in enumerate(documents.array(terms, f"relations[{r}]")):
                path = f"relations[{r}][{t}]"
                documents.obj(term, path)
                key = (documents.field(term, "i", documents.integer, path),
                       documents.field(term, "j", documents.integer, path))
                rel[key] = rel.get(key, ZERO) + documents.field(term, "c", documents.rational,
                                                                path)
            rels.append(rel)
        return LiePresentation.make(dim_v, rels)

    def num_relations(self) -> int:
        return len(self.relations)

    def relation_span(self) -> EchelonBasis:
        """The echelonized span of R, also ideal(R)_2, that make() builds
        and inter-reduces (the relations are its vectors()).  nabla's
        relation block reads its rows, and G_2 = wedge^2 V / R is read off
        it: its free pairs index a basis, its quotient map is nabla-bar's
        beta."""
        return self._cache[("ideal", 2)]


# ---------------------------------------------------------------------------
# the free metabelian quotient M = L / L''
# ---------------------------------------------------------------------------

# Both pieces below depend on (n, degree) alone, not on R, and each is built
# once per key.  A bb-direct benchmark run (n = 3 to degree 6, n = 4 to
# degree 4) holds 8 spans of L'' and 20 projected ad_{e_i}; acceptance
# criterion 3 (n = 2 to 4, degrees 2 to 6) holds 15 and 28: at n = 2 every
# R is 0 or all of L_2, and neither takes an ad image.
@lru_cache(maxsize=32)
def _second_derived(n: int, d: int) -> EchelonBasis:
    """Echelon basis of L''_d = sum of [L_a, L_b] over a, b >= 2, a + b = d,
    in Lyndon coordinates of L_d: the bracket of every pair of Lyndon words,
    a <= b, each unordered pair once when a == b.  Zero below degree 4.

    Its free positions are the Lyndon words that index a basis of M_d.
    Shared by every caller, which reads it: quotient() inter-reduces its rows
    in place, which changes no span and no lead."""
    idx = lyndon_index(n, d)
    eb = EchelonBasis()
    for a in range(2, d // 2 + 1):
        b = d - a
        words_a = _lyndon_words_cached(n, a)
        words_b = _lyndon_words_cached(n, b)
        for i, wa in enumerate(words_a):
            for j, wb in enumerate(words_b):
                if a == b and j <= i:
                    continue
                res = basis_bracket(wa, wb)
                if res:
                    eb.add({idx[w]: c for w, c in res})
    return eb


def _metabelian_free(n: int, d: int) -> dict[int, int]:
    """The basis of M_d: each Lyndon word index that L''_d leaves free,
    mapped to its coordinate in M_d."""
    return _second_derived(n, d).free(len(_lyndon_words_cached(n, d)))


def _metabelian_dim(n: int, d: int) -> int:
    """dim M_d, counted off the rank of L''_d: no basis is built."""
    return len(_lyndon_words_cached(n, d)) - _second_derived(n, d).rank


@lru_cache(maxsize=128)
def _metabelian_ad(n: int, i: int, q: int) -> RationalMatrix:
    """ad_{e_i}: M_q -> M_{q+1}, the bracket with e_i on M = L / L''.

    ad_{e_i} maps L''_q into L''_{q+1}, since L'' is an ideal, so it induces
    this map: a basis word of M_q is sent to the class of its bracket, read
    through the exact quotient map of L''_{q+1}.  Its denominator, the lcm of
    the leads of L''_{q+1}, is 1 wherever it was measured (n = 2 and 3 to
    degree 7, n = 4 to 5, n = 5 to 4), so the matrix is integral and int
    rows map to int rows.
    ``reduce`` is no substitute: it returns each column up to its own
    positive factor, and the images of a span would change."""
    ad = ad_generator_matrix(n, i, q).numerator_columns()
    quot = _second_derived(n, q + 1).quotient(len(_lyndon_words_cached(n, q + 1)))
    cols = quot.numerator_columns()
    src = _metabelian_free(n, q)
    num: dict = {}
    for t, k in enumerate(src):
        for r, x in act_vec(cols, ad[k]).items():
            num[r, t] = x
    return RationalMatrix.from_integers(quot.rows, len(src), num, quot.den)


# ---------------------------------------------------------------------------
# graded pieces of the ideal, read in M
# ---------------------------------------------------------------------------

def _ideal_echelon(p: LiePresentation, q: int) -> EchelonBasis:
    """Echelonized span of pi(ideal(R))_q in the coordinates of M_q, cached,
    where pi: L -> M = L / L'' and M_q has the basis _metabelian_free(n, q).
    Below degree 4 L''_q = 0, so M_q = L_q and this is ideal(R)_q in Lyndon
    coordinates; in degree 2 it is R.

    pi is onto and a map of Lie algebras, so pi(ideal(R)) is the ideal of M
    generated by pi(R).  M is generated in degree 1, so that ideal's
    degree-q piece is spanned by the monomials ad_{e_k1} ... ad_{e_kd} r,
    d = q - 2, r in R; ad_{e_k} maps L'' into L'', so it acts on M, as the
    projected ad (_metabelian_ad).  The ad_{e_k} commute on M_{>=2}, which
    holds R and every image: [e_k, [e_l, m]] - [e_l, [e_k, m]] =
    [[e_k, e_l], m] lies in [M', M'] = 0.  So each monomial is taken once,
    its steps applied in increasing order: degree q + 1 is the sum over k
    of ad_{e_k} S_k, where S_k is spanned by the monomials of degree q whose
    steps are all <= k.  One echelon basis per degree takes the images step
    by step, and right after step k its rows span S_k of the next degree;
    those row lists are cached beside it.  In degree 2 every S_k is R.

    Two degrees are written down without elimination: after a zero degree
    the next is zero (R = 0 builds no projection), and after a degree that
    has the rank of M_{q-1} the next is all of M_q, the basis with one unit
    row per coordinate.  Both rank tests are exact counts.
    """
    if q < 2:
        raise ValueError("the ideal lives in degrees >= 2")
    if q == 2:
        # wedge^2 V and L_2 = M_2 share the (i<j) basis order
        return p.relation_span()
    key = ("ideal", q)
    cached = p._cache.get(key)
    if cached is not None:
        return cached
    n = p.dim_v
    prev = _ideal_echelon(p, q - 1)
    eb = EchelonBasis()
    if not prev.rank:
        pass
    elif prev.rank == _metabelian_dim(n, q - 1):
        eb.rows = {k: {k: 1} for k in range(_metabelian_dim(n, q))}
    else:
        spans = (list(p._cache["spans", q - 1]) if q > 3
                 else [list(prev.rows.values())] * n)
        for k in range(n):
            ad = _metabelian_ad(n, k, q - 1)
            for v in spans[k]:
                eb.add(ad.matvec(v))
            spans[k] = list(eb.rows.values())
        p._cache["spans", q] = spans
    p._cache[key] = eb
    return eb


# ---------------------------------------------------------------------------
# brute-force infinitesimal Alexander invariant
# ---------------------------------------------------------------------------

def bb_direct(p: LiePresentation, q: int) -> tuple[int, list[tuple[int, ...]]]:
    """dim of the degree-q piece of G'_ab (degrees shifted by 2), with a basis.

    The piece is L_d / (ideal(R)_d + L''_d), d = q + 2, which is
    M_d / pi(ideal(R))_d: the free positions of _ideal_echelon(p, d) in M_d,
    mapped back to Lyndon words through the free positions of L''_d.  Those
    are the words that the echelon basis of ideal(R)_d + L''_d in L_d leaves
    free: reducing that span by L''_d gives an echelon basis whose rows are
    those of L''_d and those of pi(ideal(R))_d on the free words, in the same
    order, and an echelon basis's set of leads is fixed by its span.
    Returns the dimension and the Lyndon words indexing a basis of the
    quotient.
    """
    if q < 0:
        raise ValueError("q >= 0 required")
    n = p.dim_v
    d = q + 2
    words = _lyndon_words_cached(n, d)
    free = list(_metabelian_free(n, d))
    basis = [words[free[t]] for t in _ideal_echelon(p, d).free(len(free))]
    return len(basis), basis
