"""Quadratic graded Lie algebras L(V)/ideal(R) with R inside wedge^2 V.

Graded pieces are computed as quotients inside the free Lie algebra: the
degree-q piece of the ideal is spanned by ad_{e_k} applied to the piece one
degree down, starting from R in degree 2.  Once the ideal is all of
L_{q-1}, it is all of L_q, since L_q = [V, L_{q-1}] in a free Lie algebra;
that piece is written down as the identity basis, not eliminated.  The
brute-force route to the infinitesimal Alexander invariant (``bb_direct``)
quotients the degree q+2 piece by ideal(R)_{q+2} and the brackets of two
quotient words, the Lyndon words of degree a >= 2 that are not pivots of
ideal(R)_a: since L_a = ideal(R)_a + span(quotient words) and ideal(R) is
an ideal, every other bracket [L_a, L_b] already lies in the span.  It uses
brackets only, and exists as the independent oracle for the
presentation-matrix route in ``alex_module``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import documents
from .exact_linalg import ZERO, EchelonBasis, Vec, _to_fraction, echelon_basis
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
# graded pieces of the ideal and of the quotient
# ---------------------------------------------------------------------------

def _ideal_echelon(p: LiePresentation, q: int) -> EchelonBasis:
    """Echelonized span of ideal(R)_q in Lyndon coordinates of L_q, cached.

    When ideal(R)_{q-1} has the rank of L_{q-1}, it is all of L_{q-1}, and
    ideal(R)_q = [V, L_{q-1}] = L_q: a free Lie algebra is generated in
    degree 1.  That piece is the basis with one unit row per Lyndon word, and
    no ad_{e_k} image is eliminated.  The rank test is an exact count.
    """
    if q < 2:
        raise ValueError("the ideal lives in degrees >= 2")
    if q == 2:
        # wedge^2 V and L_2 share the (i<j) basis order
        return p.relation_span()
    key = ("ideal", q)
    cached = p._cache.get(key)
    if cached is not None:
        return cached
    n = p.dim_v
    prev = _ideal_echelon(p, q - 1)
    if prev.rank == len(_lyndon_words_cached(n, q - 1)):
        eb = EchelonBasis()
        eb.rows = {k: {k: 1} for k in range(len(_lyndon_words_cached(n, q)))}
    else:
        ads = [ad_generator_matrix(n, i, q - 1) for i in range(n)]
        eb = echelon_basis(m.matvec(v) for m in ads for v in prev.rows.values())
    p._cache[key] = eb
    return eb


# ---------------------------------------------------------------------------
# brute-force infinitesimal Alexander invariant
# ---------------------------------------------------------------------------

def bb_direct(p: LiePresentation, q: int) -> tuple[int, list[tuple[int, ...]]]:
    """dim of the degree-q piece of G'_ab (degrees shifted by 2), with a basis.

    Works in L_{q+2}: quotient by ideal(R)_{q+2} together with the brackets
    [L_a, L_b] for a, b >= 2, a + b = q + 2.  Only the free words of each
    degree, the Lyndon words that are not pivots of ideal(R)_a, are
    bracketed: L_a = ideal(R)_a + span(free words), and [ideal(R)_a, L_b]
    lies in ideal(R)_{q+2}, so modulo the ideal [L_a, L_b] is spanned by the
    brackets of free words.  Every element of L_a lifts some class of the
    quotient algebra, so no explicit section is needed.  Returns the
    dimension and the Lyndon words indexing a basis of the quotient.
    """
    if q < 0:
        raise ValueError("q >= 0 required")
    n = p.dim_v
    d = q + 2
    span = _ideal_echelon(p, d).copy()
    idx = lyndon_index(n, d)
    for a in range(2, d // 2 + 1):
        b = d - a
        words_a = _lyndon_words_cached(n, a)
        words_b = _lyndon_words_cached(n, b)
        free_a = [words_a[k] for k in _ideal_echelon(p, a).free(len(words_a))]
        free_b = [words_b[k] for k in _ideal_echelon(p, b).free(len(words_b))]
        for i, wa in enumerate(free_a):
            for j, wb in enumerate(free_b):
                if a == b and j <= i:
                    continue
                res = basis_bracket(wa, wb)
                if res:
                    span.add({idx[w]: c for w, c in res})
    words = _lyndon_words_cached(n, d)
    basis = [words[i] for i in span.free(len(words))]
    return len(basis), basis
