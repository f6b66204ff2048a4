"""Graded modules over Sym(V) presented by symbol-level maps, and their
degree-wise cokernels.

A :class:`GradedMap` goes from a free module Sym(V) (x) W into
Sym(V) (x) W_target, with both generator spaces in module degree zero.  Its
symbol is of degree one: every term multiplies by a single variable, so
the degree-q matrix takes Sym_{q-1} (x) W into Sym_q (x) W_target.  Beside
the symbol a map may hold relations, the rows of a subspace R of W_target,
whose span Sym_q (x) R joins the image in every degree: the presentation
of the infinitesimal Alexander invariant is the cyclic sum beside R.

Monomials of Sym_q are exponent vectors in lexicographic order within each
degree, which fixes the matrix layout once and for all.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb, lcm
from operator import add, eq, mul, sub

from .errors import InternalInconsistencyError
from .exact_linalg import EMPTY, EchelonBasis, LazyColumns, RationalMatrix, Vec
from .free_lie import GradedDims
from .quad_lie import LiePresentation, wedge2_index, wedge2_pairs
from .rep_semisimple import _by_weight

# a symbol term (i, k, c): multiply by x_i, land on target generator k with
# integer coefficient c, over the map's den
Term = tuple[int, int, int]


# the multisets of q variables come in lexicographic order, the reverse of
# the lexicographic order of their exponent vectors
@lru_cache(maxsize=64)
def monomials(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors of Sym_q(V), dim V = n, sorted lexicographically."""
    if q < 0:
        return ()
    out = []
    for multiset in combinations_with_replacement(range(n), q):
        e = [0] * n
        for i in multiset:
            e[i] += 1
        out.append(tuple(e))
    return tuple(reversed(out))


@lru_cache(maxsize=64)
def monomial_index(n: int, q: int) -> dict[tuple[int, ...], int]:
    return {m: i for i, m in enumerate(monomials(n, q))}


def sym_dim(n: int, q: int) -> int:
    return comb(n + q - 1, q) if q >= 0 else 0


def _triple(n: int, j: int) -> tuple[int, int, int]:
    """The j-th triple of combinations(range(n), 3)."""
    a = 0
    while j >= comb(n - 1 - a, 2):
        j -= comb(n - 1 - a, 2)
        a += 1
    b = a + 1
    while j >= n - 1 - b:
        j -= n - 1 - b
        b += 1
    return a, b, b + 1 + j


class CyclicSumSymbol(LazyColumns):
    """The symbol of a^b^c |-> a (x) f(b^c) - b (x) f(a^c) + c (x) f(a^b):
    one term tuple per sorted triple, in the order of
    combinations(range(n), 3).  f is given by its integer columns, one
    tuple of sorted (row, coefficient) pairs per pair of wedge2_pairs(n).

    The term tuple of triple j is built on its first read and kept
    (LazyColumns), so what is kept is bounded by C(n, 3), and a rank that
    reads a few generators builds only theirs.  The three terms multiply
    different variables, so they never share a symbol entry and nothing is
    summed; with a < b < c they come out sorted by (variable, row).  Equal
    to, and hashed as, the tuple of all its term tuples."""

    def __init__(self, n: int, columns):
        super().__init__(comb(n, 3), self._terms)
        self.n = n
        self.columns = tuple(map(tuple, columns))
        self._index = wedge2_index(n)

    def _terms(self, j: int) -> tuple[Term, ...]:
        a, b, c = _triple(self.n, j)
        idx, cols = self._index, self.columns
        terms = [(a, r, x) for r, x in cols[idx[b, c]]]
        terms += [(b, r, -x) for r, x in cols[idx[a, c]]]
        terms += [(c, r, x) for r, x in cols[idx[a, b]]]
        return tuple(terms)

    def __eq__(self, other):
        if not isinstance(other, (tuple, CyclicSumSymbol)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"CyclicSumSymbol({self.n}, {self.columns!r})"

    def generators_by_weight(self, base_weights, target_weights):
        """The function from a weight w to the generators of weight w, in
        increasing order.  The triple a < b < c has the weight w_a + w_b + w_c,
        and its generator is left out when its symbol is empty, which is when
        f is zero on all three of its pairs.

        The weights are certified once on f instead of read off each symbol:
        every row r of the column of f on the pair (b, c) must have the
        weight w_b + w_c, else InternalInconsistencyError: f and the
        weights are read off one module (JohnsonContext.weight_data on the
        Johnson path), so a mismatch is no usage error.  Then every term
        (a, r, x) of the symbol of a^b^c lands on w_a + w_b + w_c, so each
        symbol is weight homogeneous of its triple's weight.  The
        generators of a weight are found by convolution, a beside the pairs
        (b, c) of weight w - w_a, on the first call for that weight, and
        kept with the function; no symbol is built.
        """
        n, cols = self.n, self.columns
        if not len(self):
            return lambda w: []  # no triple, no generator to weigh
        pairs = wedge2_pairs(n)
        pairs_by_weight: dict[tuple, list[int]] = {}
        for k, ((b, c), col) in enumerate(zip(pairs, cols)):
            w = _wsum(base_weights[b], base_weights[c])
            for r, _x in col:
                if tuple(target_weights[r]) != w:
                    j = next(j for j, t in enumerate(combinations(range(n), 3))
                             if b in t and c in t)
                    raise InternalInconsistencyError(
                        f"symbol of generator {j} is not weight homogeneous "
                        f"of its triple's weight: f on the pair ({b}, {c}) of weight {w} "
                        f"lands on row {r} of weight {tuple(target_weights[r])}")
            pairs_by_weight.setdefault(w, []).append(k)
        nonzero = [bool(col) for col in cols]
        found: dict[tuple, list[int]] = {}

        def of_weight(w) -> list[int]:
            js = found.get(w)
            if js is None:
                js = found[w] = []
                for a in range(n):
                    ks = pairs_by_weight.get(_wdiff(w, base_weights[a]))
                    if not ks:
                        continue
                    # the pairs (b, c) with b > a follow the pairs (a, x), in
                    # the order of the triples (a, b, c)
                    first = a * n - a * (a + 1) // 2
                    rest = first + n - a - 1
                    offset = len(self) - comb(n - a, 3) - rest
                    for k in ks[bisect_left(ks, rest):]:
                        b, c = pairs[k]
                        if nonzero[k] or nonzero[first + b - a - 1] or nonzero[first + c - a - 1]:
                            js.append(offset + k)
            return js

        return of_weight


@dataclass(frozen=True)
class GradedMap:
    """symbol / den beside the span of relations, stored as RationalMatrix
    stores a matrix: integer symbol terms over one positive denominator.
    The builder lifts its coefficients once.  The relations are rows of
    W_target, each a sorted tuple of (position, int) pairs: primitive,
    inter-reduced and in lead order, the stored rows of an EchelonBasis.
    Symbol and relations are values, so equal maps hash alike."""
    base_dim: int
    target_dim: int
    # one term tuple per source generator: a tuple, or a CyclicSumSymbol
    symbol: Sequence[tuple[Term, ...]]
    den: int = 1
    relations: tuple[tuple[tuple[int, int], ...], ...] = ()
    # degree -> matrix(degree), one entry per degree asked for
    _matrices: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def target_dim_in_degree(self, q: int) -> int:
        return sym_dim(self.base_dim, q) * self.target_dim

    def column(self, tgt_idx: dict, mono: tuple[int, ...], j: int) -> Vec:
        """The column of source generator j at monomial mono of Sym_{q-1},
        times den: the int vector of its symbol terms, which spans what the
        column spans.

        tgt_idx is monomial_index(base_dim, q) for the column's degree q.
        Terms landing on the same row are summed plainly, so the column may
        hold zeros; instantiate and EchelonBasis.add drop them.
        """
        col: Vec = {}
        for (i, k, c) in self.symbol[j]:
            tgt_mono = list(mono)
            tgt_mono[i] += 1
            row = tgt_idx[tuple(tgt_mono)] * self.target_dim + k
            col[row] = col.get(row, 0) + c
        return col

    def instantiate(self, q: int) -> RationalMatrix:
        """The exact matrix of the symbol in module degree q, without the
        relations.

        Rows: (monomial of Sym_q, target generator).  Columns, keyed as
        column() keys them: the monomials of Sym_{q-1}, then the source
        generators.  Each column is built once and handed to the matrix as
        its numerator column, num being filled in the same pass, so
        numerator_columns() transposes nothing (RationalMatrix.from_integers).
        """
        n = self.base_dim
        tgt_idx = monomial_index(n, q)
        num: dict = {}
        columns: list = []
        for mono in monomials(n, q - 1):
            for j in range(len(self.symbol)):
                col = self.column(tgt_idx, mono, j)
                if 0 in col.values():
                    col = {row: c for row, c in col.items() if c}
                k = len(columns)
                for row, c in col.items():
                    num[row, k] = c
                columns.append(col or EMPTY)
        return RationalMatrix.from_integers(len(tgt_idx) * self.target_dim, len(columns), num,
                                            self.den, columns)

    def matrix(self, q: int) -> RationalMatrix:
        """The degree-q matrix whose column span and rank are the map's,
        built once per degree: coker_dims and coker_multiplication_action
        on one map share it, and so its column span.  It is instantiate(q),
        its span seeded by Sym_q (x) R: monomial t of Sym_q holds the
        relations shifted by t * target_dim, in the same key order.  The
        relations are an echelon basis, and the copies of different
        monomials share no position, so these rows are written down as the
        basis they are, with no elimination."""
        m = self._matrices.get(q)
        if m is None:
            m = self._matrices[q] = self.instantiate(q)
            span = EchelonBasis()
            for t in range(sym_dim(self.base_dim, q)):
                off = t * self.target_dim
                for row in self.relations:
                    span.rows[row[0][0] + off] = {k + off: x for k, x in row}
            m.seed_span(span)
        return m


# ---------------------------------------------------------------------------
# the standard maps
# ---------------------------------------------------------------------------

def quotient_cyclic_sum(n: int, span: EchelonBasis) -> GradedMap:
    """Sym (x) wedge^3 V -> Sym (x) wedge^2 V / span,
    a^b^c |-> a (x) [b^c] - b (x) [a^c] + c (x) [a^b], the one builder of a
    cyclic sum.  The symbol holds the integer columns of the quotient map
    span.quotient(C(n, 2)), over its den, built per triple on first read
    (CyclicSumSymbol); a generator's weight is its triple's, certified once
    on those columns."""
    beta = span.quotient(comb(n, 2))
    columns = [sorted(c.items()) for c in beta.numerator_columns()]
    return GradedMap(n, beta.rows, CyclicSumSymbol(n, columns), beta.den)


def delta3(n: int) -> GradedMap:
    """The cyclic-sum map Sym (x) wedge^3 V -> Sym (x) wedge^2 V:
    a^b^c |-> a (x) b^c + b (x) c^a + c (x) a^b, the quotient by nothing."""
    return quotient_cyclic_sum(n, EchelonBasis())


# one entry per number of generators: a bb-direct run holds 2
@lru_cache(maxsize=16)
def _cyclic_block(n: int) -> CyclicSumSymbol:
    """delta3(n)'s symbol, shared by every nabla on n generators: it
    depends on n alone, so the terms of a triple are built once per n."""
    return delta3(n).symbol


def nabla(p: LiePresentation) -> GradedMap:
    """Presentation map of the infinitesimal Alexander invariant, target
    Sym (x) wedge^2 V: the cyclic sum of delta3 beside the inclusion of R.
    The relations are the stored rows of p.relation_span(), primitive and
    inter-reduced, in lead order with sorted keys."""
    n = p.dim_v
    relations = tuple(tuple(sorted(row.items()))
                      for _lead, row in sorted(p.relation_span().rows.items()))
    return GradedMap(n, comb(n, 2), _cyclic_block(n), relations=relations)


def nabla_bar(p: LiePresentation) -> GradedMap:
    """The simplified presentation: the cyclic sum into Sym (x) G_2,
    G_2 = wedge^2 V / R, the quotient by p.relation_span()."""
    return quotient_cyclic_sum(p.dim_v, p.relation_span())


# ---------------------------------------------------------------------------
# cokernel dimensions
# ---------------------------------------------------------------------------

def _wsum(a, b) -> tuple:
    return tuple(map(add, a, b))


def _wdiff(a, b) -> tuple:
    return tuple(map(sub, a, b))


def _monomial_weights(n: int, q: int, base_weights) -> dict:
    """The weight of each monomial of Sym_q: the sum of its variables' weights."""
    per_coordinate = list(zip(*base_weights))
    return {mono: tuple(sum(map(mul, mono, ws)) for ws in per_coordinate)
            for mono in monomials(n, q)}


def _weighted_rank(gm: GradedMap, q: int, base_weights, target_weights, generators,
                   weyl=None) -> int:
    """Rank of the degree-q matrix of gm, a cyclic sum with no relations,
    the sum of its weight-bucket ranks.

    The rows of each weight are counted from the base and target weights,
    and a column's weight is that of its monomial of Sym_{q-1} plus that of
    its generator (generators, CyclicSumSymbol.generators_by_weight), so
    the matrix is block diagonal over weights.  A bucket is formed by
    convolution, each monomial of weight mw beside generators(mu - mw), in
    the matrix's column order: only the buckets reduced are built.

    With weyl (a LieAlgebraSpec of type C) the map must be equivariant for
    that algebra: the rank of a bucket is then the dimension of a weight
    space of the image, which is constant on Weyl orbits, so only the
    dominant bucket of each orbit is reduced and its rank counts orbit_size
    times.  The target rows of each weight must be equally many on every
    weight of an orbit, else InternalInconsistencyError: the weights do not
    come from a module.  Columns are not counted: which generators have an
    empty symbol depends on the basis, not on the orbit.  Without weyl each
    weight is its own orbit, of size 1.
    """
    n = gm.base_dim
    monos = _by_weight(_monomial_weights(n, q - 1, base_weights).items())
    mono_counts = Counter(_monomial_weights(n, q, base_weights).values())
    target_counts = Counter(map(tuple, target_weights))
    rows: Counter = Counter()
    for mw, a in mono_counts.items():
        for tw, b in target_counts.items():
            rows[_wsum(mw, tw)] += a * b
    orbits: dict[tuple, list[int]] = {}
    for w, count in rows.items():
        orbits.setdefault(w if weyl is None else weyl.dominant(w), []).append(count)
    tgt_idx = monomial_index(n, q)
    total_rank = 0
    for mu in sorted(orbits):
        size = 1 if weyl is None else weyl.orbit_size(mu)
        counts = orbits[mu]
        if len(counts) != size or len(set(counts)) != 1:
            raise InternalInconsistencyError(
                f"degree {q}: the {size} weights of the Weyl orbit of {mu} hold "
                f"unequal row counts, {len(counts)} weights of sizes {sorted(set(counts))}")
        bucket = []
        for mw, ms in monos.items():
            js = generators(_wdiff(mu, mw))
            if js:
                bucket += [(mono, js) for mono in ms]
        eb = EchelonBasis()
        # monomials are exponent vectors, so their order is the matrix's
        for mono, js in sorted(bucket):
            for j in js:
                eb.add(gm.column(tgt_idx, mono, j))
        total_rank += size * eb.rank
    return total_rank


def coker_dims(gm: GradedMap, max_degree: int, *, weights=None, weyl=None) -> GradedDims:
    """Degree-wise cokernel dimensions of the map, degrees 0..max_degree.

    weights = (base, target) gives a weight per variable and per target
    generator of an equivariant map, which must be a cyclic sum with no
    relations (quotient_cyclic_sum), else ValueError.  A generator has the
    weight of its triple, certified once on the map f it is built from, and
    a row of f off its pair's weight raises InternalInconsistencyError
    (CyclicSumSymbol.generators_by_weight).  Ranks are then computed per
    weight block, and only the symbols of the buckets ranked are built;
    the result is identical, the blocks are just small.  weyl = spec
    further ranks one block per Weyl orbit (see _weighted_rank); the caller
    vouches that the map is spec-equivariant with these weights.
    """
    if weyl is not None and weights is None:
        raise ValueError("weyl needs weights")
    if weights is not None:
        if gm.relations or not isinstance(gm.symbol, CyclicSumSymbol):
            raise ValueError("weights need a cyclic sum with no relations")
        base_w, target_w = weights
        generators = gm.symbol.generators_by_weight(base_w, target_w)
    dims = []
    for q in range(max_degree + 1):
        target = gm.target_dim_in_degree(q)
        if weights is not None:
            r = _weighted_rank(gm, q, base_w, target_w, generators, weyl)
        else:
            r = gm.matrix(q).rank()
        dims.append(target - r)
    return GradedDims(0, tuple(dims))


def coker_multiplication_action(gm: GradedMap, max_degree: int) -> tuple[int, list[RationalMatrix]]:
    """The multiplication-by-x_i operators on the truncated graded cokernel
    of gm, summed over degrees 0..max_degree.

    Cokernel classes in each degree are indexed by the non-pivot target rows
    of the instantiated matrix; multiplication maps a class of degree q into
    degree q+1 and the top degree into zero.  Returns the total dimension and
    one nilpotent matrix per variable.
    """
    n = gm.base_dim
    quotients = []
    free_rows = []
    offsets = []
    total = 0
    for q in range(max_degree + 1):
        eb = gm.matrix(q).column_span()
        rows = gm.target_dim_in_degree(q)
        free_rows.append(eb.free(rows))
        # multiplication lands in degrees 1..max_degree only
        quotients.append(eb.quotient(rows) if q else None)
        offsets.append(total)
        total += len(free_rows[q])
    den = lcm(*(m.den for m in quotients[1:]))  # one denominator for every degree
    mats = []
    for i in range(n):
        num = {}
        for q in range(max_degree):
            columns = quotients[q + 1].numerator_columns()
            s = den // quotients[q + 1].den
            src_idx = monomials(n, q)
            tgt_idx = monomial_index(n, q + 1)
            for r, col_local in free_rows[q].items():
                mono = src_idx[r // gm.target_dim]
                k = r % gm.target_dim
                up = list(mono)
                up[i] += 1
                row = tgt_idx[tuple(up)] * gm.target_dim + k
                for t, x in columns[row].items():
                    num[offsets[q + 1] + t, offsets[q] + col_local] = x * s
        mats.append(RationalMatrix.from_integers(total, total, num, den))
    return total, mats
