"""Rational representation theory of sp(2g), by explicit matrices.

Irreducibles are realized concretely: the defining module, wedge powers,
and the fundamental symplectic modules wedge^k H / (theta ^ wedge^(k-2) H).
Basis vectors are weight vectors throughout (weights in the coordinates of
Fulton-Harris), so weight spaces are index sets and everything
Casimir-related block-diagonalizes over weights.

Casimir normalization: dual bases with respect to the trace form of the
defining representation.  The eigenvalue on the irreducible of highest
weight lambda is then <lambda, lambda + 2 rho> for the induced form on
weights, which is 1/2 times the Euclidean form in those coordinates.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from math import factorial, lcm
from operator import mul

from .exact_linalg import (ONE, ZERO, LazyColumns, RationalMatrix, Vec, act_vec, axpy,
                           echelon_basis)

# {row: int or Fraction} dicts, one per column: a tuple, or the LazyColumns
# of a wedge power's operator, whose columns are built on their first read
ColMat = Sequence


# ---------------------------------------------------------------------------
# the algebra sp(2g)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HighestWeight:
    """Coefficients n_i of lambda = sum n_i lambda_i over the fundamental weights."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.coefficients):
            raise ValueError("fundamental coefficients must be non-negative")


@dataclass(frozen=True)
class LieAlgebraSpec:
    """sp(2g), of type C_g, for g = rank >= 1."""

    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("sp rank must be >= 1")

    # -- structure data -------------------------------------------------------

    def raising_labels(self) -> list[str]:
        g = self.rank
        return [f"X_{i}_{i+1}" for i in range(g - 1)] + [f"U_{g-1}"]

    def lowering_labels(self) -> list[str]:
        """The negative simple root vectors, in the order of raising_labels();
        together the two lists generate the algebra."""
        g = self.rank
        return [f"X_{i+1}_{i}" for i in range(g - 1)] + [f"V_{g-1}"]

    # -- the Weyl group W(C_g), signed permutations of epsilon coordinates -------

    def dominant(self, w: tuple[int, ...]) -> tuple[int, ...]:
        """The dominant weight (x1 >= ... >= xg >= 0) of the Weyl orbit of w."""
        return tuple(sorted(map(abs, w), reverse=True))

    def orbit_size(self, w: tuple[int, ...]) -> int:
        """|W . w|: g! / prod(multiplicity of each |x_i|)! times 2^(nonzero x_i)."""
        size = factorial(len(w)) << sum(1 for x in w if x)
        for mult in Counter(map(abs, w)).values():
            size //= factorial(mult)
        return size

    def simple_coroot_pairing(self, w: tuple[int, ...], i: int) -> int:
        """<w, alpha_i^vee> for the i-th simple root (0-based): the short
        roots eps_i - eps_{i+1}, then the long root 2 eps_g."""
        return w[i] - w[i + 1] if i < self.rank - 1 else w[i]

    def fundamental_from_weight(self, w: tuple[int, ...]) -> HighestWeight:
        return HighestWeight(tuple(self.simple_coroot_pairing(w, i)
                                   for i in range(self.rank)))

    def partition_from_fundamental(self, hw: HighestWeight) -> tuple[int, ...]:
        """Weight in the epsilon coordinates (a partition m_1 >= m_2 >= ...)."""
        n_i = hw.coefficients
        if len(n_i) != self.rank:
            raise ValueError("wrong number of fundamental coefficients")
        return tuple(sum(n_i[i:]) for i in range(self.rank))

    def rho(self) -> tuple[int, ...]:
        g = self.rank
        return tuple(g - i for i in range(g))

    def weight_form(self, a, b) -> Fraction:
        """Form on weights induced by the trace form of the defining rep."""
        return Fraction(sum(x * y for x, y in zip(a, b)), 2)

    def defining_weights(self) -> tuple[tuple[int, ...], ...]:
        g = self.rank
        eps = [tuple(1 if t == i else 0 for t in range(g)) for i in range(g)]
        return tuple(eps + [tuple(-x for x in e) for e in eps])


@lru_cache(maxsize=8)
def _algebra_basis(spec: LieAlgebraSpec) -> tuple[tuple[str, ColMat], ...]:
    """(label, int columns on H) per basis element of sp(2g): the modules
    built from H keep int columns wherever a quotient divides nothing."""
    d = 2 * spec.rank

    def from_terms(terms):
        # sum of c * E_ij; the positions (i, j) within one element are distinct
        cols = [dict() for _ in range(d)]
        for (i, j, c) in terms:
            cols[j][i] = c
        return tuple(cols)

    g = spec.rank
    out: list[tuple[str, ColMat]] = []
    for i in range(g):
        out.append((f"H_{i}", from_terms([(i, i, 1), (g + i, g + i, -1)])))
    for i in range(g):
        for j in range(g):
            if i != j:
                out.append((f"X_{i}_{j}", from_terms([(i, j, 1), (g + j, g + i, -1)])))
    for i in range(g):
        for j in range(i + 1, g):
            out.append((f"Y_{i}_{j}", from_terms([(i, g + j, 1), (j, g + i, 1)])))
    for i in range(g):
        out.append((f"U_{i}", from_terms([(i, g + i, 1)])))
    for i in range(g):
        for j in range(i + 1, g):
            out.append((f"Z_{i}_{j}", from_terms([(g + i, j, 1), (g + j, i, 1)])))
    for i in range(g):
        out.append((f"V_{i}", from_terms([(g + i, i, 1)])))
    return tuple(out)


def _trace_product(a: ColMat, b: ColMat) -> Fraction:
    total = Fraction(0)
    for j, col in enumerate(b):
        for i, v in col.items():
            x = a[i].get(j)
            if x:
                total += x * v
    return total


@lru_cache(maxsize=8)
def _dual_coefficients(spec: LieAlgebraSpec) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse Gram matrix of the algebra basis under the defining trace form."""
    basis = _algebra_basis(spec)
    n = len(basis)
    gram = [[_trace_product(basis[a][1], basis[b][1]) for b in range(n)] for a in range(n)]
    # G is invertible, so the reduced echelon rows of [G | I] are [I | G^-1]
    aug = echelon_basis({**{b: x for b, x in enumerate(row) if x}, n + a: ONE}
                        for a, row in enumerate(gram))
    return tuple(tuple(row.get(n + b, ZERO) for b in range(n)) for row in aug.vectors())


def _times(x, d: int) -> int:
    """d * x as an int, for a rational x whose denominator divides d."""
    return x.numerator * (d // x.denominator)


def _scaled(col: Vec, d: int) -> dict:
    """d * col with int entries, for a column whose denominators divide d."""
    return {r: x.numerator * (d // x.denominator) for r, x in col.items()}


@lru_cache(maxsize=8)
def _integral_dual(spec: LieAlgebraSpec) -> tuple[tuple[tuple[tuple[int, int], ...], ...], int]:
    """(rows, D): row a lists (b, D * dual[a][b]) over the nonzero dual
    coefficients, D the lcm of their denominators."""
    dual = _dual_coefficients(spec)
    d = lcm(*{c.denominator for row in dual for c in row})
    return tuple(tuple((b, _times(c, d)) for b, c in enumerate(row) if c) for row in dual), d


# ---------------------------------------------------------------------------
# weight modules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightModule:
    """A rational representation carried by explicit exact matrices.

    ``actions`` covers the full basis of the acting algebra; basis vectors are
    weight vectors, with weights recorded in epsilon coordinates.
    """

    algebra: LieAlgebraSpec
    dimension: int
    weights: tuple[tuple[int, ...], ...]
    actions: Mapping  # label -> ColMat

    def weight_decomposition(self) -> dict[tuple[int, ...], list[int]]:
        return _weight_decomposition(self.weights)


def _weight_decomposition(weights) -> dict[tuple[int, ...], list[int]]:
    """weight -> the positions of that weight, in increasing order."""
    out: dict[tuple[int, ...], list[int]] = {}
    for i, w in enumerate(weights):
        out.setdefault(w, []).append(i)
    return out


def defining_module(spec: LieAlgebraSpec) -> WeightModule:
    actions = {label: cols for label, cols in _algebra_basis(spec)}
    return WeightModule(spec, 2 * spec.rank, spec.defining_weights(), actions)


def _wedge_parity_and_target(combo: tuple[int, ...], slot: int, j: int):
    """Replace combo[slot] by j inside a sorted wedge monomial: the parity of
    the sorting permutation (1 for a sign change) and the sorted monomial;
    None if it dies.  The rest of combo is still sorted, so sorting moves j
    from position slot to its insertion position p, past |slot - p| factors."""
    if j in combo and j != combo[slot]:
        return None
    rest = combo[:slot] + combo[slot + 1:]
    p = bisect_left(rest, j)
    return (slot - p) % 2, rest[:p] + (j,) + rest[p:]


def wedge_act(cols: ColMat, combo: tuple[int, ...]) -> dict:
    """An operator (given by its columns) acting as a derivation on the sorted
    wedge monomial combo; keyed by sorted wedge monomials."""
    out: dict = {}
    for slot, i in enumerate(combo):
        # one slot: distinct targets j give distinct monomials
        terms = {}
        for j, v in cols[i].items():
            st = _wedge_parity_and_target(combo, slot, j)
            if st is not None:
                odd, new = st
                terms[new] = -v if odd else v
        axpy(out, 1, terms)
    return out


def _wedge_basis(m: WeightModule, k: int):
    """The sorted monomials of wedge^k m in basis order, and their weights."""
    combos = list(combinations(range(m.dimension), k))
    weights = tuple(tuple(sum(m.weights[i][t] for i in c) for t in range(len(m.weights[0])))
                    for c in combos)
    return combos, weights


def wedge_power(m: WeightModule, k: int) -> WeightModule:
    """wedge^k m; its actions map each label to the LazyColumns of its
    operator, whose column j is built on its first read, so a caller pays
    only for the columns it applies."""
    combos, weights = _wedge_basis(m, k)
    index = {c: i for i, c in enumerate(combos)}

    def column(cols, j):
        return {index[new]: v for new, v in wedge_act(cols, combos[j]).items()}

    return WeightModule(m.algebra, len(combos), weights,
                        {label: LazyColumns(len(combos), partial(column, cols))
                         for label, cols in m.actions.items()})


def quotient_module(m: WeightModule, spanning: list[Vec]) -> WeightModule:
    """Quotient by an invariant subspace given by spanning vectors.

    The surviving basis is the set of ambient basis vectors at non-pivot
    positions of the echelonized span; invariance is verified.
    """
    eb = echelon_basis(spanning)
    for v in eb.rows.values():
        for label, cols in m.actions.items():
            if not eb.contains(act_vec(cols, v)):
                raise ValueError(f"subspace not invariant under {label}")
    quotient = eb.quotient(m.dimension)
    pos = eb.free(m.dimension)
    weights = tuple(m.weights[i] for i in pos)
    actions = {label: tuple(quotient.matvec(cols[i]) for i in pos)
               for label, cols in m.actions.items()}
    return WeightModule(m.algebra, len(pos), weights, actions)


def fundamental_module(spec: LieAlgebraSpec, k: int) -> WeightModule:
    """V(lambda_k): wedge^k H modulo theta ^ wedge^(k-2) H."""
    g = spec.rank
    if not (1 <= k <= g):
        raise ValueError(f"k must be in 1..{g}")
    H = defining_module(spec)
    if k == 1:
        return H
    W = wedge_power(H, k)
    index = {c: i for i, c in enumerate(combinations(range(2 * g), k))}
    spanning = []
    for rest in combinations(range(2 * g), k - 2):
        # theta ^ rest; each pair (i, g+i) lands on a different monomial
        vec: Vec = {}
        for i in range(g):
            pair = (i, g + i)
            if pair[0] in rest or pair[1] in rest:
                continue
            merged = tuple(sorted(rest + pair))
            # the sign of sorting (i, g+i, rest...), rest sorted: an entry of
            # rest below i passes both i and g+i, so only those strictly
            # between them change the parity
            odd = sum(i < r < g + i for r in rest) % 2
            vec[index[merged]] = -1 if odd else 1
        if vec:
            spanning.append(vec)
    return quotient_module(W, spanning)


# ---------------------------------------------------------------------------
# Weyl dimension formula and Casimir eigenvalues
# ---------------------------------------------------------------------------

def weyl_dim(spec: LieAlgebraSpec, hw: HighestWeight) -> int:
    """dim of the irreducible of sp(2g) of highest weight hw, by the Weyl
    formula: prod over i < j of (l_i^2 - l_j^2) / (r_i^2 - r_j^2) times
    prod of l_i / r_i, for l = lambda + rho and r = rho.

    JohnsonContext certifies dim Q and the constituents of wedge^2 V with it
    on every run.  Test oracle: an independent count against the computed
    Johnson decomposition (acceptance criterion 4)."""
    m = spec.partition_from_fundamental(hw)
    r = spec.rho()
    l = [x + y for x, y in zip(m, r)]
    num, den = 1, 1
    for i in range(spec.rank):
        for j in range(i + 1, spec.rank):
            num *= l[i] ** 2 - l[j] ** 2
            den *= r[i] ** 2 - r[j] ** 2
        num *= l[i]
        den *= r[i]
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("Weyl dimension is not integral")
    return q


def casimir_eigenvalue(spec: LieAlgebraSpec, hw: HighestWeight) -> Fraction:
    lam = spec.partition_from_fundamental(hw)
    rho = spec.rho()
    shifted = tuple(x + 2 * r for x, r in zip(lam, rho))
    return spec.weight_form(lam, shifted)


# ---------------------------------------------------------------------------
# Casimir operator and highest weight vectors
# ---------------------------------------------------------------------------

def _basis_images(actions: list, dm: int, j: int) -> dict:
    """{b: dm x_b e_j} in integers, over the basis elements x_b that do not
    kill e_j; actions and dm as in _casimir_column."""
    return {b: _scaled(cols[j], dm) for b, cols in enumerate(actions) if cols[j]}


def _dual_images(us: dict, dual) -> dict:
    """{a: D dm (dual of x_a) e_j} in integers, over the nonzero ones, from
    us = _basis_images(actions, dm, j) and (dual, D) = _integral_dual."""
    out = {}
    for a, row in enumerate(dual):
        v: dict = {}
        for b, c in row:
            if b in us:
                axpy(v, c, us[b])
        if v:
            out[a] = v
    return out


def _casimir_column(actions: list, dual, dm: int, j: int) -> dict:
    """D * dm^2 times column j of the Casimir, in integers.

    actions holds the columns of each algebra basis element in basis order,
    (dual, D) is _integral_dual, and dm clears every denominator of actions.
    """
    out: dict = {}
    # out += dm x_a v for each v = D dm (dual of x_a) e_j
    for a, v in _dual_images(_basis_images(actions, dm, j), dual).items():
        cols = actions[a]
        for r, x in v.items():
            axpy(out, x, _scaled(cols[r], dm))
    return out


def _wedge_into(out: dict, c: int, u: dict, v: dict, index: dict) -> None:
    """out += c u ^ v for integer vectors u, v of m, out keyed by the
    position index[r, s] (r < s) of e_r ^ e_s in wedge^2 m."""
    for r, x in u.items():
        cx = c * x
        for s, y in v.items():
            if r < s:
                k = index[r, s]
                out[k] = out.get(k, 0) + cx * y
            elif r > s:
                k = index[s, r]
                out[k] = out.get(k, 0) - cx * y


def _wedge2_casimir_columns(actions: list, dual, dm: int, combos: list):
    """t -> D * dm^2 times the Casimir column of the pair combos[t] of
    wedge^2 m, in integers, from the actions of m alone:

        C (e_i ^ e_j) = C e_i ^ e_j + e_i ^ C e_j
                        + 2 sum_a (x_a e_i) ^ ((dual of x_a) e_j),

    the Casimir of a tensor square with D symmetric (Humphreys 6.2)."""
    n = len(actions[0])
    index = {c: t for t, c in enumerate(combos)}
    cas = [_casimir_column(actions, dual, dm, j) for j in range(n)]
    us = [_basis_images(actions, dm, j) for j in range(n)]
    duals = [_dual_images(u, dual) for u in us]

    def column(t: int) -> dict:
        i, j = combos[t]
        out: dict = {}
        _wedge_into(out, 1, cas[i], {j: 1}, index)
        _wedge_into(out, 1, {i: 1}, cas[j], index)
        dj = duals[j]
        for a, u in us[i].items():
            if a in dj:
                _wedge_into(out, 2, u, dj[a], index)
        return {k: x for k, x in out.items() if x}

    return column


def casimir_blocks(m: WeightModule, k: int = 1) -> dict[tuple[int, ...], RationalMatrix]:
    """Sparse Casimir block per weight of wedge^k m (k = 1 or 2), from the
    actions of m; the operator preserves weight spaces.

    Columns are summed in integers scaled by D dm^2 (see _casimir_column,
    and _wedge2_casimir_columns for k = 2), and each entry is divided once.
    """
    actions = [m.actions[label] for label, _cols in _algebra_basis(m.algebra)]
    dual, d = _integral_dual(m.algebra)
    dm = lcm(*{x.denominator for cols in actions for col in cols for x in col.values()})
    scale = d * dm * dm
    if k == 1:
        decomp = m.weight_decomposition()
        column = partial(_casimir_column, actions, dual, dm)
    elif k == 2:
        combos, weights = _wedge_basis(m, 2)
        decomp = _weight_decomposition(weights)
        column = _wedge2_casimir_columns(actions, dual, dm, combos)
    else:
        raise ValueError("the Casimir of wedge^k m is built for k = 1 and 2 only")
    blocks = {}
    for w in sorted(decomp):
        idx = decomp[w]
        pos = {i: t for t, i in enumerate(idx)}
        cols = [column(j) for j in idx]
        if any(col.keys() - pos.keys() for col in cols):
            raise ArithmeticError("Casimir does not preserve weight spaces")
        blocks[w] = RationalMatrix.from_integers(
            len(idx), len(idx),
            {(pos[r], t): x for t, col in enumerate(cols) for r, x in col.items()}, scale)
    return blocks


def highest_weight_vectors(m: WeightModule) -> list[tuple[HighestWeight, Vec]]:
    """Basis of the joint kernel of the simple raising operators, tagged by weight.

    The multiset of returned weights is the irreducible decomposition of m.
    A highest weight is dominant, so only the dominant weight blocks are
    searched.
    """
    spec = m.algebra
    raising = [m.actions[label] for label in spec.raising_labels()]
    decomp = m.weight_decomposition()
    out = []
    for w in sorted(decomp, reverse=True):
        if any(spec.simple_coroot_pairing(w, i) < 0 for i in range(spec.rank)):
            continue
        idx = decomp[w]
        entries = {}
        row_off = 0
        for cols in raising:
            for t, j in enumerate(idx):
                for r, v in cols[j].items():
                    entries[(row_off + r, t)] = v
            row_off += m.dimension
        mat = RationalMatrix(row_off, len(idx), entries)
        for kv in mat.kernel_basis():
            vec = {idx[t]: v for t, v in kv.items()}
            out.append((spec.fundamental_from_weight(w), vec))
    return out


def _dense_block_polynomial(block: RationalMatrix, roots) -> RationalMatrix:
    """Evaluate prod (B - c) over the roots c.

    Fraction-free: with S the lcm of B's denominator and the roots'
    denominators, the integer matrices S B - S c are multiplied as dense
    rows, starting from the first of them, and the product is divided once,
    by S^len(roots).  Entries are emitted column by column, so each row's
    keys come in the order of a RationalMatrix.matmul.
    """
    n = block.rows
    if not roots:
        return RationalMatrix.identity(n)
    s = lcm(block.den, *{c.denominator for c in roots})
    t = s // block.den
    sb = [[0] * n for _ in range(n)]
    for (i, j), x in block.num.items():
        sb[i][j] = x * t

    def shifted(c):
        sc = _times(c, s)
        return [row[:i] + [row[i] - sc] + row[i + 1:] for i, row in enumerate(sb)]

    cols = [list(col) for col in zip(*shifted(roots[0]))]  # the product, by columns
    for c in roots[1:]:
        rows = shifted(c)
        cols = [[sum(map(mul, row, col)) for row in rows] for col in cols]
    return RationalMatrix.from_integers(n, n, {(i, j): x for j, col in enumerate(cols)
                                               for i, x in enumerate(col) if x},
                                        s ** len(roots))
