"""Graded modules over Sym(V) presented by symbol-level maps, and their
degree-wise cokernels.

A :class:`GradedMap` goes from a direct sum of free modules Sym(V) (x) W_b
into Sym(V) (x) W_target, with all generator spaces in module degree zero.
Each source block carries a constant Sym-degree shift: 0 when the symbol
multiplies by scalars only, 1 when every symbol term multiplies by a single
variable.  Consequently the degree-q matrix takes Sym_{q-shift} (x) W_b into
Sym_q (x) W_target; a map may mix shift-0 and shift-1 blocks (the presentation
of the invariant combines an inclusion block with the Koszul-type block).

Monomials of Sym_q are exponent vectors in lexicographic order within each
degree, which fixes the matrix layout once and for all.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import add, mul

from .errors import InternalInconsistencyError
from .exact_linalg import ONE, ZERO, EchelonBasis, RationalMatrix, Vec
from .free_lie import GradedDims
from .quad_lie import LiePresentation, beta_matrix, wedge2_index, wedge2_pairs

# a symbol term (i, k, c): multiply by x_i (or by 1 when i is None), land on
# target generator k with coefficient c
Term = tuple[int | None, int, Fraction]


@lru_cache(maxsize=None)
def monomials(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors of Sym_q(V), dim V = n, sorted lexicographically."""
    if q < 0:
        return ()
    if n == 1:
        return ((q,),)
    out = []
    for first in range(q + 1):
        for rest in monomials(n - 1, q - first):
            out.append((first,) + rest)
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def monomial_index(n: int, q: int) -> dict[tuple[int, ...], int]:
    return {m: i for i, m in enumerate(monomials(n, q))}


def sym_dim(n: int, q: int) -> int:
    return comb(n + q - 1, q) if q >= 0 else 0


@dataclass(frozen=True)
class SymbolBlock:
    name: str
    shift: int  # 0 or 1
    symbol: tuple[tuple[Term, ...], ...]  # one term tuple per source generator

    def __post_init__(self):
        if self.shift not in (0, 1):
            raise ValueError("shift must be 0 or 1")
        for terms in self.symbol:
            for (i, _k, _c) in terms:
                if (i is None) != (self.shift == 0):
                    raise ValueError("term multiplier degree must equal the block shift")


@dataclass(frozen=True)
class GradedMap:
    base_dim: int
    target_dim: int
    blocks: tuple[SymbolBlock, ...]

    def target_dim_in_degree(self, q: int) -> int:
        return sym_dim(self.base_dim, q) * self.target_dim

    def walk(self, q: int):
        """The degree-q columns in matrix order, as (block index, monomial,
        source generator): blocks in turn, then the monomials of
        Sym_{q-shift}, then the generators of the block."""
        for bi, block in enumerate(self.blocks):
            for mono in monomials(self.base_dim, q - block.shift):
                for j in range(len(block.symbol)):
                    yield bi, mono, j

    def column(self, tgt_idx: dict, bi: int, mono: tuple[int, ...], j: int) -> Vec:
        """The column of source generator j of block bi at monomial mono.

        tgt_idx is monomial_index(base_dim, q) for the column's degree q.
        Terms landing on the same row are summed plainly, so the column may
        hold zeros; the consumers (the RationalMatrix constructor and
        EchelonBasis.add) drop them.
        """
        col: Vec = {}
        for (i, k, c) in self.blocks[bi].symbol[j]:
            if i is None:
                tgt_mono = mono
            else:
                tgt_mono = list(mono)
                tgt_mono[i] += 1
                tgt_mono = tuple(tgt_mono)
            row = tgt_idx[tgt_mono] * self.target_dim + k
            col[row] = col.get(row, ZERO) + c
        return col

    def instantiate(self, q: int) -> RationalMatrix:
        """The exact matrix of the map in module degree q.

        Rows: (monomial of Sym_q, target generator); columns: walk(q).
        """
        tgt_idx = monomial_index(self.base_dim, q)
        keys = list(self.walk(q))
        entries = {(row, col): c for col, key in enumerate(keys)
                   for row, c in self.column(tgt_idx, *key).items()}
        return RationalMatrix(len(tgt_idx) * self.target_dim, len(keys), entries)


# ---------------------------------------------------------------------------
# the standard maps
# ---------------------------------------------------------------------------

def koszul_map(n: int, k: int) -> GradedMap:
    """Sym (x) wedge^k V -> Sym (x) wedge^(k-1) V,
    a_1^...^a_k |-> sum_t (-1)^(t+1) a_t (x) (a_1 ^ .. omit t .. ^ a_k).

    Test oracle: koszul_map(n, 3) is delta3(n) built by the general
    formula, and the Koszul complex tests compose its degrees."""
    if k < 1:
        raise ValueError("k >= 1 required")
    source = list(combinations(range(n), k))
    target_idx = {c: i for i, c in enumerate(combinations(range(n), k - 1))}
    symbol = []
    for gens in source:
        terms = []
        for t, i in enumerate(gens):
            rest = gens[:t] + gens[t + 1:]
            sign = Fraction(1) if t % 2 == 0 else Fraction(-1)
            terms.append((i, target_idx[rest], sign))
        symbol.append(tuple(terms))
    block = SymbolBlock(f"wedge{k}", 1, tuple(symbol))
    return GradedMap(n, len(target_idx), (block,))


def _cyclic_sum(n: int, columns, target_dim: int) -> GradedMap:
    """Sym (x) wedge^3 V -> Sym (x) W,
    a^b^c |-> a (x) f(b^c) - b (x) f(a^c) + c (x) f(a^b),
    for f: wedge^2 V -> W given by its columns: columns[k] lists the sorted
    (row, coefficient) pairs of f on the k-th pair of wedge2_pairs(n).

    The three terms multiply by different variables, so they never share a
    symbol entry and nothing is summed; with a < b < c the terms come out
    sorted by (variable, row).
    """
    idx = wedge2_index(n)
    symbol = []
    for a, b, c in combinations(range(n), 3):
        terms = [(a, r, x) for r, x in columns[idx[b, c]]]
        terms += [(b, r, -x) for r, x in columns[idx[a, c]]]
        terms += [(c, r, x) for r, x in columns[idx[a, b]]]
        symbol.append(tuple(terms))
    return GradedMap(n, target_dim, (SymbolBlock("wedge3", 1, tuple(symbol)),))


def delta3(n: int) -> GradedMap:
    """The cyclic-sum map Sym (x) wedge^3 V -> Sym (x) wedge^2 V:
    a^b^c |-> a (x) b^c + b (x) c^a + c (x) a^b."""
    dim = comb(n, 2)
    return _cyclic_sum(n, [((k, ONE),) for k in range(dim)], dim)


def _relation_block(p: LiePresentation) -> SymbolBlock:
    symbol = []
    for rel in p.relations:
        symbol.append(tuple((None, k, c) for k, c in sorted(rel.items())))
    return SymbolBlock("relations", 0, tuple(symbol))


def nabla(p: LiePresentation) -> GradedMap:
    """Presentation map of the infinitesimal Alexander invariant:
    the inclusion of R plus the cyclic-sum block, target Sym (x) wedge^2 V."""
    n = p.dim_v
    d3 = delta3(n)
    return GradedMap(n, len(wedge2_pairs(n)), (_relation_block(p),) + d3.blocks)


def nabla_bar(p: LiePresentation) -> GradedMap:
    """The simplified presentation: the cyclic sum composed with the
    bracket projection beta onto G_2, target Sym (x) G_2."""
    beta = beta_matrix(p)
    columns = [sorted(c.items()) for c in beta.column_vectors()]
    return _cyclic_sum(p.dim_v, columns, beta.rows)


# ---------------------------------------------------------------------------
# cokernel dimensions
# ---------------------------------------------------------------------------

def _wsum(a, b) -> tuple:
    return tuple(map(add, a, b))


def _generator_weights(gm: GradedMap, base_weights, target_weights) -> list[list]:
    """The weight of each source generator, per block, read off its symbol.

    Every term (x_i, e_k) of a generator must land on the same weight
    target_weights[k] + base_weights[i] (x_i = 1 adds nothing), else
    ValueError; block ranks rely on it.  An empty symbol gets None.
    """
    out = []
    for block in gm.blocks:
        out.append([])
        for j, terms in enumerate(block.symbol):
            found = {tuple(target_weights[k]) if i is None
                     else _wsum(target_weights[k], base_weights[i]) for (i, k, _c) in terms}
            if len(found) > 1:
                raise ValueError(f"symbol of block {block.name} generator {j} "
                                 f"is not weight homogeneous: {sorted(found)}")
            out[-1].append(found.pop() if found else None)
    return out


def _monomial_weights(n: int, q: int, base_weights) -> dict:
    """The weight of each monomial of Sym_q: the sum of its variables' weights."""
    per_coordinate = list(zip(*base_weights))
    return {mono: tuple(sum(map(mul, mono, ws)) for ws in per_coordinate)
            for mono in monomials(n, q)}


def _weight_buckets(gm: GradedMap, q: int, base_weights, generator_weights) -> dict:
    """The degree-q columns grouped by total weight: weight -> walk(q) keys.

    With generator_weights from _generator_weights, each column lies in the
    rows of its own total weight, so the matrix is block diagonal over these
    buckets.  Generators without a weight have zero columns and join none.
    """
    mono_w = {}
    for shift in {b.shift for b in gm.blocks}:
        mono_w.update(_monomial_weights(gm.base_dim, q - shift, base_weights))
    buckets: dict[tuple, list] = {}
    for key in gm.walk(q):
        bi, mono, j = key
        gw = generator_weights[bi][j]
        if gw is not None:
            buckets.setdefault(_wsum(mono_w[mono], gw), []).append(key)
    return buckets


def _weighted_rank(gm: GradedMap, q: int, base_weights, target_weights, generator_weights,
                   weyl=None) -> int:
    """Rank of the degree-q matrix, the sum of its weight-bucket ranks.

    With weyl (a LieAlgebraSpec of type C) the map must be equivariant for
    that algebra: the rank of a bucket is then the dimension of a weight
    space of the image, which is constant on Weyl orbits, so only the
    dominant bucket of each orbit is reduced and its rank counts orbit_size
    times.  The target rows of each weight, counted from the base and
    target weights alone, must be equally many on every weight of an orbit,
    else InternalInconsistencyError: the weights do not come from a module.
    Columns are not counted: which generators have an empty symbol depends
    on the basis, not on the orbit.  Without weyl each weight is its own
    orbit, of size 1.
    """
    buckets = _weight_buckets(gm, q, base_weights, generator_weights)
    mono_counts = Counter(_monomial_weights(gm.base_dim, q, base_weights).values())
    target_counts = Counter(map(tuple, target_weights))
    rows: Counter = Counter()
    for mw, a in mono_counts.items():
        for tw, b in target_counts.items():
            rows[_wsum(mw, tw)] += a * b
    orbits: dict[tuple, list[int]] = {}
    for w, count in rows.items():
        orbits.setdefault(w if weyl is None else weyl.dominant(w), []).append(count)
    tgt_idx = monomial_index(gm.base_dim, q)
    total_rank = 0
    for mu in sorted(orbits):
        size = 1 if weyl is None else weyl.orbit_size(mu)
        counts = orbits[mu]
        if len(counts) != size or len(set(counts)) != 1:
            raise InternalInconsistencyError(
                f"degree {q}: the {size} weights of the Weyl orbit of {mu} hold "
                f"unequal row counts, {len(counts)} weights of sizes {sorted(set(counts))}")
        # columns are built only when their bucket is reduced
        eb = EchelonBasis()
        for key in buckets.get(mu, ()):
            eb.add(gm.column(tgt_idx, *key))
        total_rank += size * eb.rank
    return total_rank


def coker_dims(gm: GradedMap, max_degree: int, *, weights=None, weyl=None) -> GradedDims:
    """Degree-wise cokernel dimensions of the map, degrees 0..max_degree.

    weights = (base, target) gives a weight per variable and per target
    generator of an equivariant map.  The weight of each source generator
    is read off its symbol, which must then be weight homogeneous (else
    ValueError), and ranks are computed per weight block; the result is
    identical, the blocks are just small.  weyl = spec further ranks one
    block per Weyl orbit (see _weighted_rank); the caller vouches that the
    map is spec-equivariant with these weights.
    """
    if weyl is not None and weights is None:
        raise ValueError("weyl needs weights")
    if weights is not None:
        base_w, target_w = weights
        gen_w = _generator_weights(gm, base_w, target_w)
    dims = []
    for q in range(max_degree + 1):
        target = gm.target_dim_in_degree(q)
        if weights is not None:
            r = _weighted_rank(gm, q, base_w, target_w, gen_w, weyl)
        else:
            r = gm.instantiate(q).rank()
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
        eb = gm.instantiate(q).column_span()
        rows = gm.target_dim_in_degree(q)
        free_rows.append(eb.free(rows))
        # multiplication lands in degrees 1..max_degree only
        quotients.append(eb.quotient(rows) if q else None)
        offsets.append(total)
        total += len(free_rows[q])
    mats = []
    for i in range(n):
        entries = {}
        for q in range(max_degree):
            src_idx = monomials(n, q)
            tgt_idx = monomial_index(n, q + 1)
            for r, col_local in free_rows[q].items():
                mono = src_idx[r // gm.target_dim]
                k = r % gm.target_dim
                up = list(mono)
                up[i] += 1
                row = tgt_idx[tuple(up)] * gm.target_dim + k
                for t, c in quotients[q + 1][row].items():
                    entries[(offsets[q + 1] + t, offsets[q] + col_local)] = c
        mats.append(RationalMatrix(total, total, entries))
    return total, mats
