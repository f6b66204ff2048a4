"""Quadratic graded Lie algebras L(V)/ideal(R) with R inside wedge^2 V.

Graded pieces are computed as quotients inside the free Lie algebra: the
degree-q piece of the ideal is spanned by ad_{e_k} applied to the piece one
degree down, starting from R in degree 2.  The brute-force route to the
infinitesimal Alexander invariant (``bb_direct``) quotients the degree q+2
piece by all brackets of two elements of degree >= 2; it exists as the
independent oracle for the presentation-matrix route in ``alex_module``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import documents
from .exact_linalg import ZERO, EchelonBasis, RationalMatrix, Vec, echelon_basis
from .free_lie import (GradedDims, _lyndon_words_cached, ad_generator_matrix,
                       basis_bracket, lyndon_index)

Pair = tuple[int, int]


def wedge2_pairs(n: int) -> list[Pair]:
    return list(combinations(range(n), 2))


def wedge2_index(n: int) -> dict[Pair, int]:
    return {p: i for i, p in enumerate(wedge2_pairs(n))}


def _normalize_relation(n: int, idx: dict[Pair, int], rel: dict) -> Vec:
    """Relation vector keyed by wedge-pair index idx = wedge2_index(n),
    entries exact.

    Terms on the same pair are summed plainly; the echelon basis that
    receives the vector drops entries that cancel.
    """
    out: Vec = {}
    for key, c in rel.items():
        i, j = key
        c = Fraction(c) if not isinstance(c, Fraction) else c
        if not c:
            continue
        if i == j:
            raise ValueError("wedge pair with equal indices")
        if i > j:
            i, j, c = j, i, -c
        k = idx.get((i, j))
        if k is None:
            raise ValueError(f"wedge pair ({i}, {j}) out of range for dim_v {n}")
        out[k] = out.get(k, ZERO) + c
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
        """The echelonized span of R, which is also ideal(R)_2; make() keeps
        the one it builds."""
        eb = self._cache.get(("ideal", 2))
        if eb is None:
            eb = self._cache[("ideal", 2)] = echelon_basis(self.relations)
        return eb


# ---------------------------------------------------------------------------
# graded pieces of the ideal and of the quotient
# ---------------------------------------------------------------------------

def _ideal_echelon(p: LiePresentation, q: int) -> EchelonBasis:
    """Echelonized span of ideal(R)_q in Lyndon coordinates of L_q, cached."""
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
    ads = [ad_generator_matrix(n, i, q - 1) for i in range(n)]
    eb = echelon_basis(m.matvec(v) for v in prev.rows.values() for m in ads)
    p._cache[key] = eb
    return eb


def graded_dims(p: LiePresentation, max_degree: int) -> GradedDims:
    """dim of the degree-q piece of L(V)/ideal(R), degrees 1..max_degree.

    Test oracle: with R = 0 the dims are the Witt numbers, which checks
    ad_generator_matrix and the ideal echelon that bb_direct runs; no CLI
    path calls it."""
    dims = [p.dim_v]
    for q in range(2, max_degree + 1):
        free_dim = len(_lyndon_words_cached(p.dim_v, q))
        dims.append(free_dim - _ideal_echelon(p, q).rank)
    return GradedDims(1, tuple(dims[:max_degree]))


def quotient_pairs(p: LiePresentation) -> dict[int, int]:
    """Pair positions whose classes form the basis of G_2 = wedge^2 V / R,
    each mapped to its row of beta_matrix(p)."""
    return p.relation_span().free(len(wedge2_pairs(p.dim_v)))


def beta_matrix(p: LiePresentation) -> RationalMatrix:
    """The surjection wedge^2 V -> G_2 = wedge^2 V / R, kernel exactly R.

    Rows are indexed by quotient_pairs(p), so the matrix reads off canonical
    quotient coordinates.
    """
    span = p.relation_span()
    total = len(wedge2_pairs(p.dim_v))
    return RationalMatrix.from_columns(span.quotient(total), total - span.rank)


# ---------------------------------------------------------------------------
# brute-force infinitesimal Alexander invariant
# ---------------------------------------------------------------------------

def bb_direct(p: LiePresentation, q: int) -> tuple[int, list[tuple[int, ...]]]:
    """dim of the degree-q piece of G'_ab (degrees shifted by 2), with a basis.

    Works in L_{q+2}: quotient by ideal(R)_{q+2} together with all brackets
    [L_a, L_b] for a, b >= 2, a + b = q + 2.  Every element of L_a lifts some
    class of the quotient algebra, so no explicit section is needed.  Returns
    the dimension and the Lyndon words indexing a basis of the quotient.
    """
    if q < 0:
        raise ValueError("q >= 0 required")
    n = p.dim_v
    d = q + 2
    span = _ideal_echelon(p, d).copy()
    idx = lyndon_index(n, d)
    for a in range(2, d - 1):
        b = d - a
        if b < 2 or b < a:
            continue
        words_a = _lyndon_words_cached(n, a)
        words_b = _lyndon_words_cached(n, b)
        for i, wa in enumerate(words_a):
            for j, wb in enumerate(words_b):
                if a == b and j <= i:
                    continue
                res = basis_bracket(wa, wb)
                if res.is_zero():
                    continue
                span.add({idx[w]: c for w, c in res.coords})
    words = _lyndon_words_cached(n, d)
    basis = [words[i] for i in span.free(len(words))]
    return len(basis), basis
