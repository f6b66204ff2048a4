"""Weight modules built only as test inputs: symmetric powers and tensor
products of the modules that infalex.rep_semisimple constructs.  Also the
Casimir oracles (the whole operator, its eigenspaces and the isotypic
projections, built from the running Casimir blocks), the closure under the
lowering operators that R is checked against with no Casimir, the check of
R + C z under all 2g simple root operators that the highest-weight
invariance certificate is checked against, the every-block test of [z, V]
inside ideal(R)_3 that the one-vector centrality check is checked against,
the Gram inversion of the trace form that the dual basis read off the
labels is checked against, the inversion count that the
sign of a wedge monomial is checked against, the Weyl dimension of
sl_n that the Chen ranks are checked against, the recursive enumeration of
Sym_q that infalex.alex_module.monomials is checked against, the Fraction-valued
references that the integer kernels of rep_semisimple are
checked against, the Koszul differential and the composed nabla-bar that
the one-pass cyclic sum of infalex.alex_module is checked against, the
presentation route to G_2 = wedge^2 V / R (beta_matrix, quotient_pairs and
L(V)/(R + C z) made by LiePresentation.make) that the Johnson map read off
the span of R + C z is checked against, the one-vector-at-a-time read-outs
that EchelonBasis.quotient and EchelonBasis.kernel are checked against, the
input lift with no all-int shortcut and the reduction that finds its pivots
by set algebra that EchelonBasis is checked against, the Fraction arithmetic
in Q[x]/Phi_m that the integer CyclotomicScalar is checked against, the
quotient-algebra dimensions, the ideal eliminated in L with no shortcut,
L'' from every ordered pair of brackets and the all-pairs bracket quotient
that infalex.quad_lie is checked against, the Fraction loops that the integer RationalMatrix is
checked against, num transposed column by column that the columns an
instantiated graded map or a product is handed are checked against, the
column keys of a graded map in matrix order, the scaling of a RationalMatrix by a rational and the sum
of two, the plain I-adic filtration that the step-ordered nilpotence test
is checked against, the annihilator exponent on the Sym side that the
exp/log transport is checked against, the group-ring Fox derivative that the
one-pass Alexander matrix of infalex.fox_alex is checked against, and the
generic rank over Q(t_1..t_n) that bounds the special ranks of
infalex.fox_alex."""

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations, combinations_with_replacement, permutations, product
from math import gcd, lcm, prod
from operator import add, mul

from infalex.alex_module import GradedMap, SymbolBlock, monomials
from infalex.exact_linalg import (CyclotomicScalar, EchelonBasis, RationalMatrix, Vec,
                                  act_vec, axpy, cyclotomic_polynomial, echelon_basis,
                                  promote)
from infalex.fox_alex import LaurentMatrix, LaurentPoly, free_reduce
from infalex.free_lie import (GradedDims, _lyndon_words_cached, ad_generator_matrix,
                              basis_bracket, lyndon_index)
from infalex.nilpotent_transport import FinDimSymModule
from infalex.quad_lie import LiePresentation, wedge2_pairs
from infalex.rep_semisimple import (HighestWeight, WeightModule, _algebra_basis,
                                    _dense_block_polynomial, casimir_blocks, casimir_eigenvalue,
                                    highest_weight_vectors, quotient_module, wedge_act)


def sym_power(m: WeightModule, k: int) -> WeightModule:
    monos = sorted(tuple(sorted(c)) for c in combinations_with_replacement(range(m.dimension), k))
    expts = []
    for mono in monos:
        e = [0] * m.dimension
        for i in mono:
            e[i] += 1
        expts.append(tuple(e))
    index = {e: i for i, e in enumerate(expts)}
    weights = tuple(tuple(sum(e[i] * m.weights[i][t] for i in range(m.dimension))
                          for t in range(len(m.weights[0]))) for e in expts)
    actions = {}
    for label, cols in m.actions.items():
        actions[label] = tuple({index[t]: v for t, v in sym_act(cols, e).items()}
                               for e in expts)
    return WeightModule(m.algebra, len(expts), weights, actions)


def tensor_product(a: WeightModule, b: WeightModule) -> WeightModule:
    if a.algebra != b.algebra:
        raise ValueError("mismatched algebras")
    dim = a.dimension * b.dimension
    weights = tuple(tuple(x + y for x, y in zip(a.weights[i], b.weights[j]))
                    for i in range(a.dimension) for j in range(b.dimension))
    actions = {}
    for label in a.actions:
        ca, cb = a.actions[label], b.actions[label]
        new_cols = []
        for i in range(a.dimension):
            for j in range(b.dimension):
                col: Vec = {r * b.dimension + j: v for r, v in ca[i].items()}
                axpy(col, 1, {i * b.dimension + r: v for r, v in cb[j].items()})
                new_cols.append(col)
        actions[label] = tuple(new_cols)
    return WeightModule(a.algebra, dim, weights, actions)


def weyl_orbit(w: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The orbit of a weight under W(C_g), by enumerating every signed
    permutation of its epsilon coordinates."""
    return {tuple(s * x for s, x in zip(signs, perm))
            for perm in permutations(w) for signs in product((1, -1), repeat=len(w))}


def lowering_closure(m: WeightModule, v: Vec) -> list[Vec]:
    """v and everything the simple lowering operators make of it: a spanning
    set of the submodule that v generates when v is a highest-weight vector."""
    out, frontier = [v], [v]
    while frontier:
        frontier = [w for u in frontier for label in m.algebra.lowering_labels()
                    if (w := act_vec(m.actions[label], u))]
        out += frontier
    return out


def span_closure(m: WeightModule, vectors) -> EchelonBasis:
    """Test oracle: the span of the submodule that vectors generate under the
    simple lowering operators, found with no Casimir and no eigenvalue.  An
    image is kept only when it grows the span, and only kept vectors are
    lowered again: a lowered image of the span lies in the span of the lowered
    kept vectors.  The work is bounded by the dimension of the span, where
    lowering_closure's grows with the number of lowering paths."""
    eb = EchelonBasis()
    lowering = [m.actions[label] for label in m.algebra.lowering_labels()]
    frontier = [v for v in vectors if eb.add(v)]
    while frontier:
        frontier = [w for u in frontier for cols in lowering
                    if (w := act_vec(cols, u)) and eb.add(w)]
    return eb


def simple_root_invariance(ctx) -> bool:
    """Test oracle: whether R + C z of a JohnsonContext is sp(2g)-invariant,
    checked by the generators: each of the 2g simple raising and lowering
    operators, which together generate sp(2g), must map every vector of
    R + C z into its span.  JohnsonContext.certify_invariance reaches its
    verdict from the highest-weight vectors and the g lowering operators."""
    span = ctx.rz_span
    labels = ctx.spec.raising_labels() + ctx.spec.lowering_labels()
    return all(span.contains(act_vec(ctx.W2.actions[label], v))
               for label in labels for v in ctx.r_basis + [ctx.z_vec])


def central_z_every_block(ctx) -> bool:
    """Test oracle: [z, V] inside ideal(R)_3 for a JohnsonContext, tested at
    every weight of V, with no invariance argument.  ideal(R)_3 is spanned
    by the [e_i, r], r in r_basis; every r, z and Lyndon word is a weight
    vector (checked), so the weight-mu part of ideal(R)_3 is spanned by the
    [e_i, r] of weight mu, and each [e_j, z] is tested in the block of its
    own weight, one elimination per weight of V (40 at g = 4).
    johnson.central_z_check tests the one vector of weight lambda_3 once R
    and C z are certified submodules."""
    n, wt = ctx.V.dimension, ctx.V.weights

    def weight(v):
        weights = {ctx.W2.weights[k] for k in v}
        assert len(weights) == 1, "R + C z should have a basis of weight vectors"
        return weights.pop()

    def bracket(i, v):
        # [e_i, v] keyed by Lyndon word: the pairs of wedge^2 V are the words of L_2
        out = {}
        for k, c in v.items():
            axpy(out, c, dict(basis_bracket((i,), ctx.pairs[k])))
        return out

    spanning: dict = {}
    for r in ctx.r_basis:
        w_r = weight(r)
        for i in range(n):
            spanning.setdefault(tuple(map(add, wt[i], w_r)), []).append((i, r))
    targets: dict = {}
    w_z = weight(ctx.z_vec)
    for j in range(n):
        targets.setdefault(tuple(map(add, wt[j], w_z)), []).append(j)
    for mu, js in sorted(targets.items()):
        block = echelon_basis(bracket(i, r) for i, r in spanning.get(mu, ()))
        if not all(block.contains(bracket(j, ctx.z_vec)) for j in js):
            return False
    return True


def _joint_kernel(m: WeightModule, labels, idx: list[int]) -> list[Vec]:
    """A basis of the vectors on the positions idx that every operator of
    labels kills."""
    ops = [m.actions[label] for label in labels]
    stacked = RationalMatrix(len(ops) * m.dimension, len(idx), {
        (s * m.dimension + r, t): v
        for s, cols in enumerate(ops) for t, j in enumerate(idx)
        for r, v in cols[j].items()})
    return [{idx[t]: v for t, v in kv.items()} for kv in stacked.kernel_basis()]


def lowest_weight_vectors(m: WeightModule, w: tuple[int, ...]) -> list[Vec]:
    """A basis of the joint kernel of the simple lowering operators on the
    weight-w block of m: the lowest-weight vectors of weight w."""
    return _joint_kernel(m, m.algebra.lowering_labels(), m.weight_decomposition()[w])


def inversion_parity_and_target(combo: tuple[int, ...], slot: int, j: int):
    """Test oracle: rep_semisimple._wedge_parity_and_target by counting the
    inversions that j makes with the rest of combo from position slot, and
    sorting the new monomial; None if j already sits elsewhere in combo."""
    if j in combo and j != combo[slot]:
        return None
    rest = combo[:slot] + combo[slot + 1:]
    inversions = sum(1 for s, c in enumerate(rest)
                     if (c > j and s < slot) or (c < j and s >= slot))
    return inversions % 2, tuple(sorted(rest + (j,)))


def theta_wedge_vectors(g: int, k: int) -> list[Vec]:
    """Test oracle: the nonzero theta ^ rest, rest a sorted (k - 2)-subset of
    range(2g), in the basis of wedge^k H, as fundamental_module spans them:
    the term of (i, g+i) carries the sign of the inversions of the whole
    sequence (i, g+i, rest...), counted pair by pair."""
    index = {c: t for t, c in enumerate(combinations(range(2 * g), k))}
    out = []
    for rest in combinations(range(2 * g), k - 2):
        vec: Vec = {}
        for i in range(g):
            seq = (i, g + i) + rest
            if len(set(seq)) == k:
                inversions = sum(a > b for a, b in combinations(seq, 2))
                vec[index[tuple(sorted(seq))]] = (-1) ** inversions
        if vec:
            out.append(vec)
    return out


# -- the Casimir oracles: operators built from the running Casimir blocks ---------

class AmbiguousDecompositionError(RuntimeError):
    """An isotypic projection was requested where the Casimir operator cannot
    separate constituents (eigenvalue collision or multiplicity above one)."""


def _embed_blocks(m: WeightModule, blocks: dict) -> RationalMatrix:
    """The block-diagonal operator on m with the given per-weight blocks."""
    decomp = m.weight_decomposition()
    entries = {}
    for w, block in blocks.items():
        idx = decomp[w]
        for (rr, cc), v in block.entries.items():
            entries[(idx[rr], idx[cc])] = v
    return RationalMatrix(m.dimension, m.dimension, entries)


def casimir_matrix(m: WeightModule) -> RationalMatrix:
    """Test oracle: the Casimir operator on m, from its running blocks."""
    return _embed_blocks(m, casimir_blocks(m))


def shifted_block(block: RationalMatrix, c) -> RationalMatrix:
    """The square block minus c * I.  Part of the test oracle
    casimir_eigenspace."""
    return matrix_sum(block, scale(RationalMatrix.identity(block.rows), c), -1)


def isotypic_projection(m: WeightModule, hw: HighestWeight, *,
                        blocks=None, constituents=None) -> RationalMatrix:
    """Exact idempotent projecting onto the hw-isotypic constituent.

    Requires multiplicity at most one and no Casimir eigenvalue collision
    between hw and a non-isomorphic constituent.  ``blocks`` and
    ``constituents`` accept precomputed Casimir blocks and highest-weight
    data to avoid recomputation.  Test oracle: the projection is built from
    the running casimir_blocks and _dense_block_polynomial.
    """
    spec = m.algebra
    target = casimir_eigenvalue(spec, hw)
    if constituents is None:
        constituents = highest_weight_vectors(m)
    emap: dict[Fraction, list[HighestWeight]] = {}
    for h, _vec in constituents:
        emap.setdefault(casimir_eigenvalue(spec, h), []).append(h)
    for c, hws in emap.items():
        if c == target:
            others = [h for h in hws if h != hw]
            if others:
                raise AmbiguousDecompositionError(
                    f"Casimir eigenvalue {c} shared by {hw} and {others}; "
                    "a finer invariant operator is needed")
            if hws.count(hw) > 1:
                raise AmbiguousDecompositionError(
                    f"constituent {hw} has multiplicity {hws.count(hw)} > 1")
    others = [c for c in sorted(emap) if c != target]
    if blocks is None:
        blocks = casimir_blocks(m)
    norm = Fraction(1) / prod(target - c for c in others)
    return _embed_blocks(m, {w: scale(_dense_block_polynomial(block, others), norm)
                             for w, block in blocks.items()})


def casimir_eigenspace(m: WeightModule, eigenvalue: Fraction, *, blocks=None) -> list[Vec]:
    """Test oracle: echelonized basis of ker(Casimir - eigenvalue), weight
    block by block, from the running casimir_blocks."""
    decomp = m.weight_decomposition()
    if blocks is None:
        blocks = casimir_blocks(m)
    out = []
    for w, block in sorted(blocks.items()):
        idx = decomp[w]
        for kv in shifted_block(block, eigenvalue).kernel_basis():
            out.append({idx[t]: v for t, v in kv.items()})
    return out


# -- Fraction references for the integer kernels of rep_semisimple --------------

def _trace_product(a, b) -> Fraction:
    total = Fraction(0)
    for j, col in enumerate(b):
        for i, v in col.items():
            x = a[i].get(j)
            if x:
                total += x * v
    return total


@lru_cache(maxsize=8)
def gram_dual(spec) -> tuple[tuple[Fraction, ...], ...]:
    """Test oracle: the dual basis of sp(2g) under the trace form of H, as
    the inverse of the Gram matrix of the algebra basis, found by
    elimination with no assumption on which elements pair.  The labels'
    pairing of rep_semisimple._integral_dual is checked against it."""
    basis = _algebra_basis(spec)
    n = len(basis)
    gram = [[_trace_product(basis[a][1], basis[b][1]) for b in range(n)] for a in range(n)]
    # G is invertible, so the reduced echelon rows of [G | I] are [I | G^-1]
    aug = echelon_basis({**{b: x for b, x in enumerate(row) if x}, n + a: Fraction(1)}
                        for a, row in enumerate(gram))
    return tuple(tuple(row.get(n + b, Fraction(0)) for b in range(n)) for row in aug.vectors())


def fraction_casimir_column(m: WeightModule, j: int) -> Vec:
    """Column j of the Casimir of m, summed in Fractions: sum over a of
    x_a (dual of x_a) e_j, the dual basis taken from gram_dual."""
    basis = _algebra_basis(m.algebra)
    dual = gram_dual(m.algebra)
    us = [m.actions[label][j] for label, _cols in basis]
    out: Vec = {}
    for a, (label, _cols) in enumerate(basis):
        v: Vec = {}
        for b, c in enumerate(dual[a]):
            if c:
                axpy(v, c, us[b])
        cols = m.actions[label]
        for r, x in v.items():
            axpy(out, x, cols[r])
    return out


def matmul_block_polynomial(block: RationalMatrix, roots) -> RationalMatrix:
    """prod (B - c) over the roots c, as a chain of RationalMatrix.matmul
    calls in Fractions."""
    out = RationalMatrix.identity(block.rows)
    for c in roots:
        out = shifted_block(block, c).matmul(out)
    return out


def all_blocks_highest_weight_vectors(m: WeightModule) -> list[tuple[HighestWeight, Vec]]:
    """The joint kernel of the simple raising operators searched on every
    weight block, dominant or not, in the order of highest_weight_vectors.
    A kernel vector on a non-dominant block would fail fundamental_from_weight."""
    spec = m.algebra
    return [(spec.fundamental_from_weight(w), v)
            for w, idx in sorted(m.weight_decomposition().items(), reverse=True)
            for v in _joint_kernel(m, spec.raising_labels(), idx)]


# -- the presentation route to G_2 = wedge^2 V / R ---------------------------------

def quotient_pairs(p: LiePresentation) -> dict[int, int]:
    """Pair positions whose classes form the basis of G_2 = wedge^2 V / R,
    each mapped to its row of beta_matrix(p)."""
    return p.relation_span().free(len(wedge2_pairs(p.dim_v)))


def beta_matrix(p: LiePresentation) -> RationalMatrix:
    """The surjection wedge^2 V -> G_2 = wedge^2 V / R, kernel exactly R,
    rows indexed by quotient_pairs(p): the matrix whose integer columns
    nabla_bar(p) reads."""
    return p.relation_span().quotient(len(wedge2_pairs(p.dim_v)))


def presentation_with_z(ctx) -> LiePresentation:
    """L(V) modulo (R + C z) of a JohnsonContext, through
    LiePresentation.make from pair-keyed relations; its G_2 is Q.  Test
    oracle: the presentation route that ctx.q_map() and ctx.weight_data(),
    read off ctx.rz_span alone, are checked against, and the input of the
    nabla and bb_direct cross-checks of coker(q)."""
    rels = [{ctx.pairs[k]: c for k, c in v.items()} for v in ctx.r_basis + [ctx.z_vec]]
    return LiePresentation.make(ctx.V.dimension, rels)


# -- Sym_q by recursion on the number of variables ----------------------------

def recursive_monomials(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors of Sym_q(V), dim V = n, sorted lexicographically:
    each exponent of the first variable, then Sym of the other n - 1.

    Test oracle: the recursive enumeration that alex_module.monomials is
    checked against; it recurses once per variable."""
    if q < 0:
        return ()
    if n == 1:
        return ((q,),)
    out = []
    for first in range(q + 1):
        for rest in recursive_monomials(n - 1, q - first):
            out.append((first,) + rest)
    return tuple(sorted(out))


# -- the Koszul differential and the composed reference for nabla-bar ----------

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
            terms.append((i, target_idx[rest], 1 if t % 2 == 0 else -1))
        symbol.append(tuple(terms))
    block = SymbolBlock(f"wedge{k}", 1, tuple(symbol))
    return GradedMap(n, len(target_idx), (block,))


def composed_nabla_bar(p) -> GradedMap:
    """nabla-bar of the presentation p the long way: each term of the symbol
    of koszul_map(n, 3) mapped through the Fraction columns of
    beta_matrix(p), accumulated with axpy and sorted by (variable, row),
    then lifted to integers over the lcm of the symbol's own denominators."""
    n = p.dim_v
    beta = beta_matrix(p)
    beta_cols = fraction_columns(beta)
    symbol = []
    for terms in koszul_map(n, 3).blocks[0].symbol:
        out: Vec = {}
        for (i, k, c) in terms:
            axpy(out, c, {(i, kk): b for kk, b in beta_cols[k].items()})
        symbol.append(sorted(out.items()))
    den = lcm(*{c.denominator for terms in symbol for _key, c in terms})
    lifted = tuple(tuple((i, kk, c.numerator * (den // c.denominator)) for (i, kk), c in terms)
                   for terms in symbol)
    return GradedMap(n, beta.rows, (SymbolBlock("wedge3", 1, lifted, den),))


# -- weights read off every symbol, and every weight bucket -------------------

def column_keys(gm: GradedMap, q: int):
    """The degree-q column keys (block index, monomial, source generator)
    of gm in matrix order: blocks in turn, then the monomials of
    Sym_{q-shift}, then the generators of the block."""
    for bi, block in enumerate(gm.blocks):
        for mono in monomials(gm.base_dim, q - block.shift):
            for j in range(len(block.symbol)):
                yield bi, mono, j


def generator_weights(gm: GradedMap, base_weights, target_weights) -> list[list]:
    """The weight of each source generator, per block, read off its symbol:
    every term (x_i, e_k) must land on the same weight target_weights[k] +
    base_weights[i] (x_i = 1 adds nothing), else ValueError.  An empty
    symbol gets None.

    Test oracle: builds every symbol, where the weighted rank takes the
    weights of cyclic-sum generators from their triples."""
    out = []
    for block in gm.blocks:
        out.append([])
        for j, terms in enumerate(block.symbol):
            found = {tuple(target_weights[k]) if i is None
                     else tuple(map(add, target_weights[k], base_weights[i]))
                     for (i, k, _c) in terms}
            if len(found) > 1:
                raise ValueError(f"symbol of block {block.name} generator {j} "
                                 f"is not weight homogeneous: {sorted(found)}")
            out[-1].append(found.pop() if found else None)
    return out


def weight_buckets(gm: GradedMap, q: int, base_weights, generator_weights) -> dict:
    """The degree-q columns grouped by total weight: weight -> column_keys
    of degree q, in matrix order.  Generators without a weight have zero
    columns and join none.

    Test oracle: lists every column key of the matrix, where the weighted
    rank forms only the buckets it ranks, by convolution."""
    per_coordinate = list(zip(*base_weights))
    mono_w = {mono: tuple(sum(map(mul, mono, ws)) for ws in per_coordinate)
              for shift in {b.shift for b in gm.blocks}
              for mono in monomials(gm.base_dim, q - shift)}
    buckets: dict[tuple, list] = {}
    for key in column_keys(gm, q):
        bi, mono, j = key
        gw = generator_weights[bi][j]
        if gw is not None:
            buckets.setdefault(tuple(map(add, mono_w[mono], gw)), []).append(key)
    return buckets


# -- the equivariance of q, tested on vectors (no instantiation needed) -------

def sym_act(cols, expt: tuple[int, ...]) -> dict:
    """An operator (given by its columns) acting as a derivation on the
    monomial with exponent vector expt; keyed by exponent vectors."""
    out: dict = {}
    for i, mult in enumerate(expt):
        if mult:
            axpy(out, mult, {_move_unit(expt, i, j): v for j, v in cols[i].items()})
    return out


def _move_unit(expt: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    tgt = list(expt)
    tgt[i] -= 1
    tgt[j] += 1
    return tuple(tgt)


@lru_cache(maxsize=2)
def q_module(ctx) -> WeightModule:
    """Q = wedge^2 V / (R + C z) in the coordinates of the target of
    ctx.q_map(), by the running quotient_module, which checks that R + C z
    is invariant."""
    return quotient_module(ctx.W2, ctx.r_basis + [ctx.z_vec])


@lru_cache(maxsize=2)
def q_symbol(ctx) -> dict:
    """The symbol of ctx.q_map(), every triple's built, keyed by sorted
    triple."""
    triples = combinations(range(ctx.V.dimension), 3)
    return dict(zip(triples, ctx.q_map().blocks[0].symbol))


def source_act(ctx, label: str, svec: dict) -> dict:
    """Action on Sym (x) wedge^3 V vectors keyed by (monomial, sorted triple)."""
    vcols = ctx.V.actions[label]
    out: dict = {}
    for (mono, tri), coeff in svec.items():
        axpy(out, coeff, {(m2, tri): c for m2, c in sym_act(vcols, mono).items()})
        axpy(out, coeff, {(mono, t2): c for t2, c in wedge_act(vcols, tri).items()})
    return out


def target_act(ctx, label: str, tvec: dict) -> dict:
    """Action on Sym (x) Q vectors keyed by (monomial, Q index)."""
    vcols = ctx.V.actions[label]
    qcols = q_module(ctx).actions[label]
    out: dict = {}
    for (mono, k), coeff in tvec.items():
        axpy(out, coeff, {(m2, k): c for m2, c in sym_act(vcols, mono).items()})
        axpy(out, coeff, {(mono, kk): c for kk, c in qcols[k].items()})
    return out


def apply_q_to_vector(ctx, svec: dict) -> dict:
    """Apply the integer symbol of ctx.q_map(), that is den times q, to a
    Sym (x) wedge^3 V vector."""
    symbol = q_symbol(ctx)
    out: dict = {}
    for (mono, tri), coeff in svec.items():
        terms = {}
        for (i, k, c) in symbol[tri]:
            m2 = list(mono)
            m2[i] += 1
            terms[(tuple(m2), k)] = c
        axpy(out, coeff, terms)
    return out


def equivariance_defect(ctx, label: str, svec: dict) -> dict:
    """den (q(x . v) - x . q(v)), den > 0 the denominator of q's symbol;
    the empty dict iff equivariance holds on v.

    Test oracle: checks that q is sp(2g)-equivariant (acceptance criterion
    5), which the weight-bucketed rank in johnson_module_dims relies on."""
    lhs = apply_q_to_vector(ctx, source_act(ctx, label, svec))
    axpy(lhs, -1, target_act(ctx, label, apply_q_to_vector(ctx, svec)))
    return lhs


def chen_module_weight(n: int, q: int) -> HighestWeight:
    """The sl_n highest weight q*lambda_1 + lambda_2 (lambda_2 read as 0 when n = 2).

    Test oracle: names the constituent whose sl_weyl_dim the Chen ranks must
    equal (acceptance criterion 2)."""
    if n < 2:
        raise ValueError("n >= 2 required")
    if n == 2:
        return HighestWeight((q,))
    return HighestWeight((q, 1) + (0,) * (n - 3))


def sl_weyl_dim(n: int, hw: HighestWeight) -> int:
    """dim of the irreducible of sl_n of highest weight hw (n - 1 fundamental
    coefficients), by the Weyl formula: prod over i < j of (l_i - l_j) / (j - i)
    for l = m + rho, m the partition m_i = n_i + ... + n_{n-1}.

    Test oracle: the count that the Chen ranks must equal (acceptance
    criterion 2); infalex itself works with sp(2g) only."""
    if len(hw.coefficients) != n - 1:
        raise ValueError("wrong number of fundamental coefficients")
    m = [sum(hw.coefficients[i:]) for i in range(n)]
    l = [m[i] + (n - 1 - i) for i in range(n)]
    num, den = 1, 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= l[i] - l[j]
            den *= j - i
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("Weyl dimension is not integral")
    return q


# -- Fox derivatives in the group ring and the fundamental formula -------------

def fox_derivative(word, j: int) -> dict:
    """d(word)/dx_j in the group ring, keyed by reduced word, by the Leibniz
    rule d(uv) = du + u dv; j is 0-based, and the word is freely reduced
    first.

    Test oracle: the fundamental formula (acceptance criterion 8) is checked
    on it, and its abelianization on the one-pass alexander_matrix."""
    w = free_reduce(word)
    out: dict = {}
    prefix: list[int] = []
    for x in w:
        if abs(x) - 1 == j:
            if x > 0:
                term = {tuple(prefix): Fraction(1)}
            else:
                term = {tuple(prefix + [x]): Fraction(-1)}
            axpy(out, 1, term)
        prefix.append(x)
    return out


def exponent_vector(word, n: int) -> tuple[int, ...]:
    """The image of a word in the abelianization Z^n.  Part of the test
    oracle fox_derivative."""
    e = [0] * n
    for x in word:
        e[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(e)


def abelianize(elt: dict, n: int) -> LaurentPoly:
    """The image in Z[Z^n] of a group-ring element keyed by word.  Part of the
    test oracle fox_derivative."""
    out: LaurentPoly = {}
    for w, c in elt.items():
        axpy(out, 1, {exponent_vector(w, n): c})
    return out


def gr_mul(a: dict, b: dict) -> dict:
    """The product in the group ring, elements keyed by reduced word."""
    out: dict = {}
    for wa, ca in a.items():
        # distinct reduced words wb give distinct products wa wb
        axpy(out, ca, {free_reduce(wa + wb): cb for wb, cb in b.items()})
    return out


def fox_identity_defect(word, n: int) -> dict:
    """sum_j d(w)/dx_j (x_j - 1) - (w - 1); zero for every word.

    Test oracle: the fundamental formula of Fox calculus (acceptance
    criterion 8) checks fox_derivative, whose abelianization is checked
    against alexander_matrix."""
    w = free_reduce(word)
    total: dict = {}
    for j in range(n):
        x_j_minus_1 = {(j + 1,): Fraction(1), (): Fraction(-1)}
        axpy(total, 1, gr_mul(fox_derivative(w, j), x_j_minus_1))
    if w:
        axpy(total, -1, {w: Fraction(1), (): Fraction(-1)})
    return total


def alexander_row_defect(am: LaurentMatrix, r: int, e) -> LaurentPoly:
    """sum_j A_rj (t_j - 1) - (t^e - 1) for row r of an Alexander matrix, e
    the exponent vector of its relator: the fundamental formula pushed down
    to Z[Z^n], zero for every row.

    Test oracle (acceptance criterion 8), on the matrix that cv ranks."""
    n = am.cols
    one = (0,) * n
    total: LaurentPoly = {}
    for j in range(n):
        t_j = tuple(int(i == j) for i in range(n))
        axpy(total, 1, _poly_mul(am.entries.get((r, j), {}), {t_j: 1, one: -1}))
    axpy(total, -1, {tuple(e): 1})
    axpy(total, 1, {one: 1})
    return total


# -- the input lift, the set-algebra reduce and the read-outs of EchelonBasis ---

def _over(x, d):
    return Fraction(x, d) if isinstance(x, int) else x


def _lift_scale(v) -> int:
    """The d with general_lift(v) = d * v: the lcm of the denominators of a
    rational v, and 1 for a vector with a cyclotomic entry."""
    if any(isinstance(x, CyclotomicScalar) for x in v.values()):
        return 1
    return lcm(*[x.denominator for x in v.values() if x])


def general_lift(v) -> Vec:
    """Test oracle: EchelonBasis's input lift with no all-int shortcut: every
    rational v is scaled by the lcm of its denominators and rebuilt, and a
    vector with a cyclotomic entry is promoted to its Q(zeta_m)."""
    r = {k: x for k, x in v.items() if x}
    cyc = next((x for x in r.values() if isinstance(x, CyclotomicScalar)), None)
    if cyc is not None:
        return {k: promote(x, cyc.order) for k, x in r.items()}
    d = _lift_scale(r)
    return {k: x.numerator * (d // x.denominator) for k, x in r.items()}


def plain_reduce(eb: EchelonBasis, v) -> tuple[Vec, int]:
    """Test oracle: EchelonBasis.reduce with the pivots found by set algebra,
    and the scale it leaves out: (r, d) with r = d * w for w the canonical
    representative of v modulo the span.  On a basis not yet inter-reduced,
    each popped pivot p first queues the leads that rows[p] holds and the
    remainder does not, and then p is cleared by axpy: r <- s*r - t*rows[p]
    with s = b/g, t = r[p]/g, g = gcd(r[p], b) for lead b, or t = r[p] for
    lead 1."""
    r, d = general_lift(v), _lift_scale(v)
    rows, fill = eb.rows, not eb._reduced
    heap = [k for k in r if k in rows]
    heapify(heap)
    while heap:
        p = heappop(heap)
        if p in r:
            row = rows[p]
            if fill:
                for k in (row.keys() & rows.keys()) - r.keys():
                    heappush(heap, k)
            a, b = r[p], row[p]
            if b == 1:
                axpy(r, -a, row)
                continue
            g = gcd(a, b)
            s = b // g
            if s != 1:
                for k in r:
                    r[k] *= s
            axpy(r, -(a // g), row)
            d *= s
    return r, d


def reduced_coordinates(eb: EchelonBasis, v: Vec, pos: dict[int, int]) -> Vec:
    """The class of v in the quotient basis pos = eb.free(n), one vector at a
    time: reduce v against the inter-reduced rows by the set-algebra oracle,
    divide by its scale d, renumber the surviving non-pivot positions by pos."""
    eb._inter_reduce()
    r, d = plain_reduce(eb, v)
    return {pos[k]: _over(x, d) for k, x in r.items()}


def kernel_column(eb: EchelonBasis, free_col: int) -> Vec:
    """The kernel vector of the rows with 1 at free_col, one free column at a
    time: a scan of every inter-reduced row for its entry at free_col."""
    eb._inter_reduce()
    v: Vec = {free_col: Fraction(1)}
    for lead, row in eb.rows.items():
        c = row.get(free_col)
        if c:
            v[lead] = _over(-c, row[lead])
    return v


# -- Fraction references for CyclotomicScalar ----------------------------------
# A value is its coefficient tuple of Fractions modulo Phi_m, low degree first.

ZERO, ONE = Fraction(0), Fraction(1)


def _trim(p: list[Fraction]) -> list[Fraction]:
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _polymul_q(a, b):
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _polysub_q(a, b):
    out = [ZERO] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out


def _polydivmod_q(num, den):
    num = list(num)
    den = _trim(list(den))
    dd = len(den) - 1
    lead = den[-1]
    q = [ZERO] * max(len(num) - dd, 1)
    for k in range(len(num) - dd - 1, -1, -1):
        c = num[k + dd] / lead
        q[k] = c
        if c:
            for i, dv in enumerate(den):
                num[k + i] -= c * dv
    return q, _trim(num[:dd] if dd else [ZERO])


def oracle_reduce(m: int, coeffs) -> tuple[Fraction, ...]:
    """Test oracle: the polynomial coeffs modulo Phi_m by long division in
    Q[x], padded to phi(m) coefficients."""
    phi = [Fraction(c) for c in cyclotomic_polynomial(m)]
    _q, r = _polydivmod_q([Fraction(c) for c in coeffs], phi)
    return tuple(r) + (ZERO,) * (len(phi) - 1 - len(r))


def oracle_add(a, b) -> tuple[Fraction, ...]:
    """Test oracle: a + b."""
    return tuple(x + y for x, y in zip(a, b))


def oracle_neg(a) -> tuple[Fraction, ...]:
    """Test oracle: -a."""
    return tuple(-x for x in a)


def oracle_mul(m: int, a, b) -> tuple[Fraction, ...]:
    """Test oracle: a * b, the product in Q[x] reduced modulo Phi_m."""
    return oracle_reduce(m, _polymul_q(a, b))


def oracle_inverse(m: int, a) -> tuple[Fraction, ...]:
    """Test oracle: 1 / a, by extended Euclid in Q[x] against Phi_m
    (irreducible over Q), tracking r_k = s_k * a mod Phi_m."""
    r0, s0 = [Fraction(c) for c in cyclotomic_polynomial(m)], [ZERO]
    r1, s1 = _trim(list(a)), [ONE]
    if not any(r1):
        raise ZeroDivisionError("cyclotomic division by zero")
    while len(r1) > 1:
        q, r = _polydivmod_q(r0, r1)
        r0, s0, r1, s1 = r1, s1, _trim(r), _trim(_polysub_q(s0, _polymul_q(q, s1)))
    return oracle_reduce(m, [x / r1[0] for x in s1])


def oracle_pow(m: int, a, k: int) -> tuple[Fraction, ...]:
    """Test oracle: a ** k by |k| repeated products, through 1 / a for k < 0."""
    base = oracle_inverse(m, a) if k < 0 else tuple(a)
    out = oracle_reduce(m, [ONE])
    for _ in range(abs(k)):
        out = oracle_mul(m, out, base)
    return out


def oracle_repr(m: int, a) -> str:
    """Test oracle: the repr of the value a in Q(zeta_m)."""
    return f"Cyc({m}, {[str(x) for x in a]})"


# -- references for the quadratic Lie algebras of infalex.quad_lie -------------

def graded_dims(p: LiePresentation, max_degree: int) -> GradedDims:
    """Test oracle: dim of the degree-q piece of L(V)/ideal(R), degrees
    1..max_degree, from the ideal eliminated in L (plain_ideal_echelon).
    With R = 0 the dims are the Witt numbers, which checks
    ad_generator_matrix."""
    dims = [p.dim_v]
    for q in range(2, max_degree + 1):
        free_dim = len(_lyndon_words_cached(p.dim_v, q))
        dims.append(free_dim - plain_ideal_echelon(p, q).rank)
    return GradedDims(1, tuple(dims[:max_degree]))


def plain_ideal_echelon(p: LiePresentation, q: int) -> EchelonBasis:
    """Test oracle: ideal(R)_q in Lyndon coordinates of L_q, eliminated
    degree by degree from R, every ad_{e_k} image of every row one degree
    down, with no shortcut for a zero or a filled degree, no quotient by
    L'' and no cache.  A new basis, which the caller may grow."""
    eb = echelon_basis(p.relation_span().rows.values())
    for d in range(3, q + 1):
        ads = [ad_generator_matrix(p.dim_v, i, d - 1) for i in range(p.dim_v)]
        eb = echelon_basis(m.matvec(v) for v in eb.rows.values() for m in ads)
    return eb


def plain_second_derived(n: int, d: int) -> EchelonBasis:
    """Test oracle: L''_d in Lyndon coordinates of L_d, the bracket of every
    ordered pair of Lyndon words of degrees a, b >= 2, a + b = d, with no
    pair skipped and no cache."""
    idx = lyndon_index(n, d)
    return echelon_basis({idx[w]: c for w, c in basis_bracket(wa, wb)}
                         for a in range(2, d - 1)
                         for wa in _lyndon_words_cached(n, a)
                         for wb in _lyndon_words_cached(n, d - a))


def all_pairs_bb_direct(p: LiePresentation, q: int) -> tuple[int, list[tuple[int, ...]]]:
    """Test oracle: the degree-q piece of G'_ab as L_{q+2} / (ideal(R)_{q+2}
    + L''_{q+2}), with ideal(R) from plain_ideal_echelon and every pair of
    Lyndon words of degrees a <= b, a + b = q + 2, bracketed."""
    n = p.dim_v
    d = q + 2
    span = plain_ideal_echelon(p, d)
    idx = lyndon_index(n, d)
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
                    span.add({idx[w]: c for w, c in res})
    words = _lyndon_words_cached(n, d)
    basis = [words[i] for i in span.free(len(words))]
    return len(basis), basis


# -- the Fraction loops that the integer RationalMatrix is checked against ------

def transpose(m: RationalMatrix) -> RationalMatrix:
    """Test oracle: rank(m) == rank(transpose(m)) checks the echelon code on
    both orientations."""
    return RationalMatrix(m.cols, m.rows, {(j, i): v for (i, j), v in m.entries.items()})


def matrix_from_columns(columns, rows: int) -> RationalMatrix:
    """The rows x len(columns) matrix whose j-th column is the sparse vector
    columns[j] of exact rationals, through the entry constructor."""
    return RationalMatrix(rows, len(columns), {(i, j): v for j, col in enumerate(columns)
                                               for i, v in col.items()})


def rref_relation_block(p: LiePresentation) -> SymbolBlock:
    """Test oracle: nabla's relation block as the reduced echelon relations
    p.relations, one column each, brought to integer numerators over their
    lcm through the entry constructor."""
    rels = matrix_from_columns(p.relations, len(wedge2_pairs(p.dim_v)))
    symbol = tuple(tuple((None, k, c) for k, c in sorted(col.items()))
                   for col in rels.numerator_columns())
    return SymbolBlock("relations", 0, symbol, rels.den)


def num_columns(m: RationalMatrix) -> list[list]:
    """The columns of m's numerators transposed from num, each the list of
    its (row, numerator) items in num's order: what numerator_columns() must
    list, whether it transposed num or was handed the columns m was built
    from."""
    out: list[list] = [[] for _ in range(m.cols)]
    for (i, j), x in m.num.items():
        out[j].append((i, x))
    return out


def fraction_columns(m: RationalMatrix) -> list[Vec]:
    """Test oracle: the columns of m as sparse vectors of its entries, read
    off m.entries one at a time."""
    cols: list[Vec] = [{} for _ in range(m.cols)]
    for (i, j), v in m.entries.items():
        cols[j][i] = v
    return cols


def fraction_matvec(m: RationalMatrix, v) -> Vec:
    """Test oracle: m applied to v, summed entry by entry in Fractions over
    the columns of m.entries."""
    return act_vec(fraction_columns(m), v)


def fraction_matmul(a: RationalMatrix, b: RationalMatrix) -> dict:
    """Test oracle: the entries of a b, column by column of b, each column
    a Fraction act_vec over the columns of a."""
    left = fraction_columns(a)
    return {(i, j): x for j, col in enumerate(fraction_columns(b))
            for i, x in act_vec(left, col).items()}


def fraction_add(a: RationalMatrix, b: RationalMatrix) -> dict:
    """Test oracle: the entries of a + b, b's added into a copy of a's."""
    entries = dict(a.entries)
    axpy(entries, 1, b.entries)
    return entries


def matrix_sum(a: RationalMatrix, b: RationalMatrix, sign: int = 1) -> RationalMatrix:
    """a + sign * b over the lcm of the two denominators, on the integer
    numerators: b's added into a copy of a's, each brought over the lcm."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch")
    d, e = a.den, b.den
    g = gcd(d, e)
    u, v = e // g, d // g          # d * u = e * v = lcm(d, e)
    num = dict(a.num) if u == 1 else {k: x * u for k, x in a.num.items()}
    axpy(num, sign * v, b.num)
    return RationalMatrix.from_integers(a.rows, a.cols, num, d * u)


def scale(m: RationalMatrix, c) -> RationalMatrix:
    """c m for a rational c: the numerators of m times c's numerator, over
    den times c's denominator."""
    c = Fraction(c)
    num = {k: c.numerator * x for k, x in m.num.items()} if c else {}
    return RationalMatrix.from_integers(m.rows, m.cols, num, m.den * c.denominator)


def fraction_scale(m: RationalMatrix, c) -> dict:
    """Test oracle: the entries of c m, each multiplied on its own."""
    return {k: c * v for k, v in m.entries.items()} if c else {}


# -- the Sym side of the exp/log transport ----------------------------------------

def plain_annihilator_exponent(dimension: int, steps) -> int | None:
    """Test oracle: least q with I^q M = 0 for the ideal I the steps
    generate, or None when the filtration stabilizes above zero.  Each term
    is spanned by every step applied to every row of the term before, row
    by row: it uses neither that the steps commute nor that most images of
    a nilpotent step are zero."""
    cols = [m.numerator_columns() for m in steps]
    span = [{i: 1} for i in range(dimension)]
    rank, q = dimension, 0
    while rank:
        eb = echelon_basis(act_vec(c, v) for v in span for c in cols)
        if eb.rank == rank:
            return None
        span, rank, q = list(eb.rows.values()), eb.rank, q + 1
    return q


def sym_annihilator_exponent(m: FinDimSymModule) -> int | None:
    """Test oracle: least q with (X_1, ..., X_k)^q M = 0, or None when not
    nilpotent.  The transport preserves annihilator exponents, so it must
    equal is_nilpotent of exp_transport(m)."""
    return plain_annihilator_exponent(m.dimension, m.actions)


# -- the generic rank that bounds the special ranks of infalex.fox_alex --------

def _poly_mul(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Part of the test oracle generic_rank."""
    out: LaurentPoly = {}
    for ea, ca in a.items():
        axpy(out, ca, {tuple(x + y for x, y in zip(ea, eb)): cb for eb, cb in b.items()})
    return out


def _poly_sub(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Part of the test oracle generic_rank."""
    out = dict(a)
    axpy(out, -1, b)
    return out


def _poly_divide_exact(f: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Exact division of multivariate polynomials (lex leading terms).  Part
    of the test oracle generic_rank."""
    if not d:
        raise ZeroDivisionError
    out: LaurentPoly = {}
    lead_d = max(d)
    f = dict(f)
    while f:
        lead_f = max(f)
        e = tuple(x - y for x, y in zip(lead_f, lead_d))
        if any(x < 0 for x in e):
            raise ArithmeticError("non-exact polynomial division")
        c = Fraction(f[lead_f]) / d[lead_d]
        out[e] = c
        f = _poly_sub(f, _poly_mul({e: c}, d))
    return out


def generic_rank(m: LaurentMatrix) -> int:
    """Rank over the fraction field, treating each t_i as an indeterminate.

    Rows are shifted by monomial units so all entries become polynomials;
    then Bareiss fraction-free elimination with exact divisions.

    Test oracle: it bounds the rank of the columns evaluate(rho) returns at
    every character rho, so it checks the special ranks that the cv command
    computes.
    """
    if m.rows == 0 or m.cols == 0:
        return 0
    rows: list[list[LaurentPoly]] = []
    for r in range(m.rows):
        row = [dict(m.entries.get((r, c), {})) for c in range(m.cols)]
        mins = None
        for poly in row:
            for e in poly:
                mins = list(e) if mins is None else [min(a, b) for a, b in zip(mins, e)]
        if mins is not None and any(x < 0 for x in mins):
            shift = tuple(-min(x, 0) for x in mins)
            row = [{tuple(a + s for a, s in zip(e, shift)): c for e, c in poly.items()}
                   for poly in row]
        rows.append(row)
    rank = 0
    prev_pivot: LaurentPoly = {}
    col = 0
    ncols = m.cols
    while rank < len(rows) and col < ncols:
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if not any(rows[r][c] for c in range(col, ncols)):
                continue
            for c in range(ncols - 1, col - 1, -1):
                num = _poly_sub(_poly_mul(pivot, rows[r][c]),
                                _poly_mul(rows[r][col], rows[rank][c]))
                rows[r][c] = _poly_divide_exact(num, prev_pivot) if prev_pivot else num
        prev_pivot = pivot
        rank += 1
        col += 1
    return rank
