"""Weight modules built only as test inputs: symmetric powers and tensor
products of the modules that infalex.rep_semisimple constructs.  Also the
Fraction-valued references that the integer kernels of rep_semisimple are
checked against, and the composed nabla-bar that the one-pass cyclic sum of
infalex.alex_module is checked against."""

from itertools import combinations_with_replacement, permutations, product

from infalex.alex_module import GradedMap, SymbolBlock, koszul_map
from infalex.exact_linalg import RationalMatrix, Vec, act_vec, axpy
from infalex.quad_lie import beta_matrix
from infalex.rep_semisimple import (HighestWeight, WeightModule, _algebra_basis,
                                    _dual_coefficients, shifted_block, sym_act)


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


# -- Fraction references for the integer kernels of rep_semisimple --------------

def fraction_casimir_column(m: WeightModule, j: int) -> Vec:
    """Column j of the Casimir of m, summed in Fractions: sum over a of
    x_a (dual of x_a) e_j."""
    basis = _algebra_basis(m.algebra)
    dual = _dual_coefficients(m.algebra)
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
    raising = [m.actions[label] for label in spec.raising_labels()]
    out = []
    for w, idx in sorted(m.weight_decomposition().items(), reverse=True):
        stacked = RationalMatrix(len(raising) * m.dimension, len(idx), {
            (s * m.dimension + r, t): v
            for s, cols in enumerate(raising) for t, j in enumerate(idx)
            for r, v in cols[j].items()})
        for kv in stacked.kernel_basis():
            out.append((spec.fundamental_from_weight(w), {idx[t]: v for t, v in kv.items()}))
    return out


# -- the composed reference for nabla-bar ---------------------------------------

def composed_nabla_bar(p) -> GradedMap:
    """nabla-bar of the presentation p the long way: each term of the symbol
    of koszul_map(n, 3) mapped through the columns of beta_matrix(p),
    accumulated with axpy, then sorted by (variable, row)."""
    n = p.dim_v
    beta = beta_matrix(p)
    beta_cols = beta.column_vectors()
    symbol = []
    for terms in koszul_map(n, 3).blocks[0].symbol:
        out: Vec = {}
        for (i, k, c) in terms:
            axpy(out, c, {(i, kk): b for kk, b in beta_cols[k].items()})
        symbol.append(tuple((i, kk, c) for (i, kk), c in sorted(out.items())))
    return GradedMap(n, beta.rows, (SymbolBlock("wedge3", 1, tuple(symbol)),))
