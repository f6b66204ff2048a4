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

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

from .errors import InternalInconsistencyError
from .exact_linalg import ZERO, EchelonBasis, RationalMatrix, Vec, axpy
from .free_lie import GradedDims
from .quad_lie import LiePresentation, beta_matrix, wedge2_pairs

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
    num_generators: int
    shift: int  # 0 or 1
    symbol: tuple[tuple[Term, ...], ...]  # one term tuple per source generator

    def __post_init__(self):
        if self.shift not in (0, 1):
            raise ValueError("shift must be 0 or 1")
        if len(self.symbol) != self.num_generators:
            raise ValueError("symbol length mismatch")
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

    def column(self, tgt_idx: dict, block: SymbolBlock, mono: tuple[int, ...], j: int) -> Vec:
        """The column of source generator j of block at monomial mono.

        tgt_idx is monomial_index(base_dim, q) for the column's degree q.
        Terms landing on the same row are summed plainly, so the column may
        hold zeros; the consumers (the RationalMatrix constructor and
        EchelonBasis.add) drop them.
        """
        col: Vec = {}
        for (i, k, c) in block.symbol[j]:
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

        Rows: (monomial of Sym_q, target generator); columns: per block,
        (monomial of Sym_{q-shift}, source generator).
        """
        tgt_idx = monomial_index(self.base_dim, q)
        entries = {}
        cols = 0
        for block in self.blocks:
            for mono in monomials(self.base_dim, q - block.shift):
                for j in range(block.num_generators):
                    for row, c in self.column(tgt_idx, block, mono, j).items():
                        entries[(row, cols)] = c
                    cols += 1
        return RationalMatrix(len(tgt_idx) * self.target_dim, cols, entries)


# ---------------------------------------------------------------------------
# the standard maps
# ---------------------------------------------------------------------------

def koszul_map(n: int, k: int) -> GradedMap:
    """Sym (x) wedge^k V -> Sym (x) wedge^(k-1) V,
    a_1^...^a_k |-> sum_t (-1)^(t+1) a_t (x) (a_1 ^ .. omit t .. ^ a_k)."""
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
    block = SymbolBlock(f"wedge{k}", len(source), 1, tuple(symbol))
    return GradedMap(n, len(target_idx), (block,))


def delta3(n: int) -> GradedMap:
    """The cyclic-sum map Sym (x) wedge^3 V -> Sym (x) wedge^2 V:
    a^b^c |-> a (x) b^c + b (x) c^a + c (x) a^b."""
    return koszul_map(n, 3)


def _relation_block(p: LiePresentation) -> SymbolBlock:
    symbol = []
    for rel in p.relations:
        symbol.append(tuple((None, k, c) for k, c in sorted(rel.items())))
    return SymbolBlock("relations", len(p.relations), 0, tuple(symbol))


def nabla(p: LiePresentation) -> GradedMap:
    """Presentation map of the infinitesimal Alexander invariant:
    the inclusion of R plus the cyclic-sum block, target Sym (x) wedge^2 V."""
    n = p.dim_v
    d3 = delta3(n)
    return GradedMap(n, len(wedge2_pairs(n)), (_relation_block(p),) + d3.blocks)


def nabla_bar(p: LiePresentation) -> GradedMap:
    """The simplified presentation: compose the cyclic-sum block with the
    bracket projection onto G_2, target Sym (x) G_2."""
    n = p.dim_v
    beta = beta_matrix(p)
    beta_cols = beta.column_vectors()
    d3_block = delta3(n).blocks[0]
    symbol = []
    for terms in d3_block.symbol:
        out: dict[tuple[int, int], Fraction] = {}
        for (i, k, c) in terms:
            axpy(out, c, {(i, kk): b for kk, b in beta_cols[k].items()})
        symbol.append(tuple((i, kk, c) for (i, kk), c in sorted(out.items())))
    block = SymbolBlock("wedge3", d3_block.num_generators, 1, tuple(symbol))
    return GradedMap(n, beta.rows, (block,))


# ---------------------------------------------------------------------------
# cokernel dimensions
# ---------------------------------------------------------------------------

def _weighted_rank(gm: GradedMap, q: int, base_weights, block_weights) -> int:
    """Rank of the degree-q matrix computed per weight block.

    Valid whenever every symbol term preserves the weight (checked by the
    caller); the matrix is then block diagonal over total weights and the
    rank is the sum of the block ranks.
    """
    n = gm.base_dim

    def wsum(a, b):
        return tuple(x + y for x, y in zip(a, b))

    def mono_weight(mono):
        w = None
        for i, e in enumerate(mono):
            if e:
                contrib = tuple(e * x for x in base_weights[i])
                w = contrib if w is None else wsum(w, contrib)
        if w is None:
            w = (0,) * len(base_weights[0])
        return w

    buckets: dict[tuple, list] = {}
    for bi, block in enumerate(gm.blocks):
        for mono in monomials(n, q - block.shift):
            mw = mono_weight(mono)
            for j in range(block.num_generators):
                w = wsum(mw, block_weights[bi][j])
                buckets.setdefault(w, []).append((block, mono, j))
    tgt_idx = monomial_index(n, q)
    total_rank = 0
    for w in sorted(buckets):
        # columns are built only when their bucket is reduced
        eb = EchelonBasis()
        for block, mono, j in buckets[w]:
            eb.add(gm.column(tgt_idx, block, mono, j))
        total_rank += eb.rank
    return total_rank


def _check_weight_homogeneous(gm: GradedMap, base_weights, block_weights, target_weights):
    """Every symbol term must preserve total weight; block ranks rely on it."""
    for bi, block in enumerate(gm.blocks):
        for j in range(block.num_generators):
            wj = block_weights[bi][j]
            for (i, k, _c) in block.symbol[j]:
                w = target_weights[k]
                if i is not None:
                    w = tuple(a + b for a, b in zip(w, base_weights[i]))
                if tuple(w) != tuple(wj):
                    raise ValueError(
                        f"symbol term on block {block.name} generator {j} "
                        f"changes the weight: {wj} -> {w}")


def coker_dims(gm: GradedMap, max_degree: int, *, weights=None) -> GradedDims:
    """Degree-wise cokernel dimensions of the map, degrees 0..max_degree.

    weights = (base, blocks, target) gives a weight per variable, per source
    generator of each block and per target generator of an equivariant map.
    Ranks are then computed per weight block, after checking that every
    symbol term preserves the weight; the result is identical, the blocks
    are just small.
    """
    if weights is not None:
        base_w, block_w, target_w = weights
        _check_weight_homogeneous(gm, base_w, block_w, target_w)
    dims = []
    for q in range(max_degree + 1):
        target = gm.target_dim_in_degree(q)
        if weights is not None:
            r = _weighted_rank(gm, q, base_w, block_w)
        else:
            r = gm.instantiate(q).rank()
        dims.append(target - r)
    return GradedDims(0, tuple(dims))


def nilpotence_order(gm: GradedMap, max_degree: int, weights=None) -> int | None:
    """Least q <= max_degree with vanishing degree-q cokernel, or None.

    Vanishing must persist through max_degree (generation in degree zero);
    a violation is an internal inconsistency, not a result.
    """
    dims = coker_dims(gm, max_degree, weights=weights)
    first = None
    for q in dims.degrees():
        if dims[q] == 0:
            first = q
            break
    if first is None:
        return None
    for q in range(first, max_degree + 1):
        if dims[q] != 0:
            raise InternalInconsistencyError(
                f"cokernel vanishes in degree {first} but not in degree {q}")
    return first


def dims_to_json(dims: GradedDims) -> str:
    doc = {"degrees": list(dims.degrees()), "coker_dims": list(dims.dims)}
    return json.dumps(doc, sort_keys=True)


def coker_multiplication_action(gm: GradedMap, max_degree: int) -> tuple[int, list[RationalMatrix]]:
    """The multiplication-by-x_i operators on the truncated graded cokernel
    of gm, summed over degrees 0..max_degree.

    Cokernel classes in each degree are indexed by the non-pivot target rows
    of the instantiated matrix; multiplication maps a class of degree q into
    degree q+1 and the top degree into zero.  Returns the total dimension and
    one nilpotent matrix per variable.
    """
    n = gm.base_dim
    spans = []
    free_rows = []
    for q in range(max_degree + 1):
        eb = gm.instantiate(q).column_span()
        spans.append(eb)
        leads = set(eb.rows)
        free_rows.append([r for r in range(gm.target_dim_in_degree(q)) if r not in leads])
    offsets = []
    total = 0
    for q in range(max_degree + 1):
        offsets.append(total)
        total += len(free_rows[q])
    mats = []
    for i in range(n):
        entries = {}
        for q in range(max_degree):
            src_idx = monomials(n, q)
            tgt_idx = monomial_index(n, q + 1)
            free_pos = {r: t for t, r in enumerate(free_rows[q + 1])}
            for col_local, r in enumerate(free_rows[q]):
                mono = src_idx[r // gm.target_dim]
                k = r % gm.target_dim
                up = list(mono)
                up[i] += 1
                row = tgt_idx[tuple(up)] * gm.target_dim + k
                red = spans[q + 1].reduce({row: Fraction(1)})
                for rr, c in red.items():
                    entries[(offsets[q + 1] + free_pos[rr],
                             offsets[q] + col_local)] = c
        mats.append(RationalMatrix(total, total, entries))
    return total, mats
