"""Rational representation theory of sp(2g) and sl(n), by explicit matrices.

Irreducibles are realized concretely: the defining module, wedge powers,
and the fundamental symplectic modules wedge^k H / (theta ^ wedge^(k-2) H).
Basis vectors are weight vectors throughout (weights in the coordinates of
Fulton-Harris), so weight spaces are index sets and everything
Casimir-related block-diagonalizes over weights.

Casimir normalization: dual bases with respect to the trace form of the
defining representation.  The eigenvalue on the irreducible of highest
weight lambda is then <lambda, lambda + 2 rho> for the induced form on
weights (coefficient 1/2 per coordinate for sp, the trace-zero-corrected
Euclidean form for sl).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, lcm, prod
from operator import mul

from .errors import AmbiguousDecompositionError
from .exact_linalg import ONE, ZERO, RationalMatrix, Vec, act_vec, axpy, echelon_basis

ColMat = tuple  # tuple of {row: Fraction} dicts, one per column


# ---------------------------------------------------------------------------
# the two algebra families
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
    family: str  # 'sp' (type C_g) or 'sl' (type A_{n-1})
    rank: int    # g, respectively n

    def __post_init__(self):
        if self.family not in ("sp", "sl"):
            raise ValueError("family must be 'sp' or 'sl'")
        if self.family == "sp" and self.rank < 1:
            raise ValueError("sp rank must be >= 1")
        if self.family == "sl" and self.rank < 2:
            raise ValueError("sl needs n >= 2")

    @property
    def defining_dim(self) -> int:
        return 2 * self.rank if self.family == "sp" else self.rank

    @property
    def num_fundamental(self) -> int:
        return self.rank if self.family == "sp" else self.rank - 1

    # -- structure data -------------------------------------------------------

    def raising_labels(self) -> list[str]:
        if self.family == "sp":
            g = self.rank
            labels = [f"X_{i}_{i+1}" for i in range(g - 1)]
            labels.append(f"U_{g-1}")
            return labels
        n = self.rank
        return [f"E_{i}_{i+1}" for i in range(n - 1)]

    def lowering_labels(self) -> list[str]:
        """The negative simple root vectors, in the order of raising_labels();
        together the two lists generate the algebra."""
        if self.family == "sp":
            g = self.rank
            labels = [f"X_{i+1}_{i}" for i in range(g - 1)]
            labels.append(f"V_{g-1}")
            return labels
        n = self.rank
        return [f"E_{i+1}_{i}" for i in range(n - 1)]

    # -- the Weyl group W(C_g), signed permutations of epsilon coordinates -------

    def _weyl_type_c(self):
        if self.family != "sp":
            raise NotImplementedError("Weyl orbits are implemented for sp (type C) only")

    def dominant(self, w: tuple[int, ...]) -> tuple[int, ...]:
        """The dominant weight (x1 >= ... >= xg >= 0) of the Weyl orbit of w."""
        self._weyl_type_c()
        return tuple(sorted(map(abs, w), reverse=True))

    def orbit_size(self, w: tuple[int, ...]) -> int:
        """|W . w|: g! / prod(multiplicity of each |x_i|)! times 2^(nonzero x_i)."""
        self._weyl_type_c()
        size = factorial(len(w)) << sum(1 for x in w if x)
        for mult in Counter(map(abs, w)).values():
            size //= factorial(mult)
        return size

    def simple_coroot_pairing(self, w: tuple[int, ...], i: int) -> int:
        """<w, alpha_i^vee> for the i-th simple root (0-based)."""
        if self.family == "sp":
            g = self.rank
            if i < g - 1:
                return w[i] - w[i + 1]
            return w[g - 1]
        return w[i] - w[i + 1]

    def fundamental_from_weight(self, w: tuple[int, ...]) -> HighestWeight:
        return HighestWeight(tuple(self.simple_coroot_pairing(w, i)
                                   for i in range(self.num_fundamental)))

    def partition_from_fundamental(self, hw: HighestWeight) -> tuple[int, ...]:
        """Weight in the epsilon coordinates (a partition m_1 >= m_2 >= ...)."""
        n_i = hw.coefficients
        if len(n_i) != self.num_fundamental:
            raise ValueError("wrong number of fundamental coefficients")
        m = []
        for i in range(self.rank):
            m.append(sum(n_i[k] for k in range(i, len(n_i))))
        return tuple(m)

    def rho(self) -> tuple[int, ...]:
        if self.family == "sp":
            g = self.rank
            return tuple(g - i for i in range(g))
        n = self.rank
        return tuple(n - 1 - i for i in range(n))

    def weight_form(self, a, b) -> Fraction:
        """Form on weights induced by the trace form of the defining rep."""
        if self.family == "sp":
            return Fraction(sum(x * y for x, y in zip(a, b)), 2)
        n = self.rank
        dot = sum(x * y for x, y in zip(a, b))
        return Fraction(dot) - Fraction(sum(a) * sum(b), n)

    def defining_weights(self) -> tuple[tuple[int, ...], ...]:
        if self.family == "sp":
            g = self.rank
            eps = [tuple(1 if t == i else 0 for t in range(g)) for i in range(g)]
            return tuple(eps + [tuple(-x for x in e) for e in eps])
        n = self.rank
        return tuple(tuple(1 if t == i else 0 for t in range(n)) for i in range(n))


@lru_cache(maxsize=8)
def _algebra_basis(spec: LieAlgebraSpec) -> tuple[tuple[str, ColMat], ...]:
    d = spec.defining_dim

    def from_terms(terms):
        # sum of c * E_ij; the positions (i, j) within one element are distinct
        cols = [dict() for _ in range(d)]
        for (i, j, c) in terms:
            cols[j][i] = Fraction(c)
        return tuple(cols)

    out: list[tuple[str, ColMat]] = []
    if spec.family == "sp":
        g = spec.rank
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
    else:
        n = spec.rank
        for i in range(n - 1):
            out.append((f"H_{i}", from_terms([(i, i, 1), (i + 1, i + 1, -1)])))
        for i in range(n):
            for j in range(n):
                if i != j:
                    out.append((f"E_{i}_{j}", from_terms([(i, j, 1)])))
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
    actions: dict  # label -> ColMat

    def weight_decomposition(self) -> dict[tuple[int, ...], list[int]]:
        out: dict[tuple[int, ...], list[int]] = {}
        for i, w in enumerate(self.weights):
            out.setdefault(w, []).append(i)
        return out


def defining_module(spec: LieAlgebraSpec) -> WeightModule:
    actions = {label: cols for label, cols in _algebra_basis(spec)}
    return WeightModule(spec, spec.defining_dim, spec.defining_weights(), actions)


def _wedge_parity_and_target(combo: tuple[int, ...], slot: int, j: int):
    """Replace combo[slot] by j inside a sorted wedge monomial: the parity of
    the sorting permutation (1 for a sign change) and the sorted monomial;
    None if it dies."""
    if j in combo and j != combo[slot]:
        return None
    rest = combo[:slot] + combo[slot + 1:]
    inversions = sum(1 for s, c in enumerate(rest)
                     if (c > j and s < slot) or (c < j and s >= slot))
    return inversions % 2, tuple(sorted(rest + (j,)))


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


def sym_act(cols: ColMat, expt: tuple[int, ...]) -> dict:
    """An operator (given by its columns) acting as a derivation on the
    monomial with exponent vector expt; keyed by exponent vectors.  Part of
    the test oracle johnson.equivariance_defect."""
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


def wedge_power(m: WeightModule, k: int) -> WeightModule:
    combos = list(combinations(range(m.dimension), k))
    index = {c: i for i, c in enumerate(combos)}
    weights = tuple(tuple(sum(m.weights[i][t] for i in c) for t in range(len(m.weights[0])))
                    for c in combos)
    actions = {}
    for label, cols in m.actions.items():
        actions[label] = tuple({index[new]: v for new, v in wedge_act(cols, combo).items()}
                               for combo in combos)
    return WeightModule(m.algebra, len(combos), weights, actions)


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
    actions = {label: tuple(act_vec(quotient, cols[i]) for i in pos)
               for label, cols in m.actions.items()}
    return WeightModule(m.algebra, len(pos), weights, actions)


def fundamental_module(spec: LieAlgebraSpec, k: int) -> WeightModule:
    """V(lambda_k): for sp, wedge^k H modulo theta ^ wedge^(k-2) H; for sl, wedge^k."""
    if spec.family == "sp":
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
                # sign of sorting (i, g+i, rest...) - count inversions of the
                # concatenation pair + rest
                seq = list(pair) + list(rest)
                inv = sum(1 for s in range(len(seq)) for t in range(s + 1, len(seq))
                          if seq[s] > seq[t])
                vec[index[merged]] = ONE if inv % 2 == 0 else -ONE
            if vec:
                spanning.append(vec)
        return quotient_module(W, spanning)
    n = spec.rank
    if not (1 <= k <= n - 1):
        raise ValueError(f"k must be in 1..{n - 1}")
    return wedge_power(defining_module(spec), k)


# ---------------------------------------------------------------------------
# Weyl dimension formula and Casimir eigenvalues
# ---------------------------------------------------------------------------

def weyl_dim(spec: LieAlgebraSpec, hw: HighestWeight) -> int:
    """dim of the irreducible of highest weight hw, by the Weyl formula.

    JohnsonContext certifies dim Q and the constituents of wedge^2 V with it
    on every run.  Test oracle: an independent count against the computed
    cokernel dims (acceptance criteria 2 and 4)."""
    m = spec.partition_from_fundamental(hw)
    if spec.family == "sp":
        g = spec.rank
        l = [m[i] + (g - i) for i in range(g)]
        r = [g - i for i in range(g)]
        num, den = 1, 1
        for i in range(g):
            for j in range(i + 1, g):
                num *= l[i] ** 2 - l[j] ** 2
                den *= r[i] ** 2 - r[j] ** 2
            num *= l[i]
            den *= r[i]
        q, rem = divmod(num, den)
        if rem:
            raise ArithmeticError("Weyl dimension is not integral")
        return q
    n = spec.rank
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


def casimir_eigenvalue(spec: LieAlgebraSpec, hw: HighestWeight) -> Fraction:
    lam = spec.partition_from_fundamental(hw)
    rho = spec.rho()
    shifted = tuple(x + 2 * r for x, r in zip(lam, rho))
    return spec.weight_form(lam, shifted)


def chen_module_weight(n: int, q: int) -> HighestWeight:
    """The sl_n highest weight q*lambda_1 + lambda_2 (lambda_2 read as 0 when n = 2).

    Test oracle: names the constituent whose weyl_dim the Chen ranks must
    equal (acceptance criterion 2); no CLI path calls it."""
    if n < 2:
        raise ValueError("n >= 2 required")
    if n == 2:
        return HighestWeight((q,))
    return HighestWeight((q, 1) + (0,) * (n - 3))


# ---------------------------------------------------------------------------
# Casimir operator, highest weight vectors, isotypic projections
# ---------------------------------------------------------------------------

def _casimir_column(actions: list, dual, dm: int, j: int) -> dict:
    """D * dm^2 times column j of the Casimir, in integers.

    actions holds the columns of each algebra basis element in basis order,
    (dual, D) is _integral_dual, and dm clears every denominator of actions.
    """
    # u_b = dm x_b e_j for each basis element that does not kill e_j
    us = {b: _scaled(cols[j], dm) for b, cols in enumerate(actions) if cols[j]}
    out: dict = {}
    for cols, row in zip(actions, dual):
        # v = D dm (dual of x_a) e_j, then out += dm x_a v
        v: dict = {}
        for b, c in row:
            if b in us:
                axpy(v, c, us[b])
        for r, x in v.items():
            axpy(out, x, _scaled(cols[r], dm))
    return out


def casimir_blocks(m: WeightModule) -> dict[tuple[int, ...], RationalMatrix]:
    """Sparse Casimir block per weight; the operator preserves weight spaces.

    Columns are summed in integers scaled by D dm^2 (see _casimir_column),
    and each entry is divided once.
    """
    decomp = m.weight_decomposition()
    actions = [m.actions[label] for label, _cols in _algebra_basis(m.algebra)]
    dual, d = _integral_dual(m.algebra)
    dm = lcm(*{x.denominator for cols in actions for col in cols for x in col.values()})
    scale = d * dm * dm
    blocks = {}
    for w in sorted(decomp):
        idx = decomp[w]
        pos = {i: t for t, i in enumerate(idx)}
        cols = [_casimir_column(actions, dual, dm, j) for j in idx]
        if any(col.keys() - pos.keys() for col in cols):
            raise ArithmeticError("Casimir does not preserve weight spaces")
        blocks[w] = RationalMatrix.from_columns(
            [{pos[r]: Fraction(x, scale) for r, x in col.items()} for col in cols], len(idx))
    return blocks


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
    """The Casimir operator on m.  A test oracle: no CLI path calls it."""
    return _embed_blocks(m, casimir_blocks(m))


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
        if any(spec.simple_coroot_pairing(w, i) < 0 for i in range(spec.num_fundamental)):
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


def shifted_block(block: RationalMatrix, c) -> RationalMatrix:
    """The square block minus c * I.  Part of the test oracle
    casimir_eigenspace."""
    return block - RationalMatrix.identity(block.rows).scale(c)


def _dense_block_polynomial(block: RationalMatrix, roots) -> RationalMatrix:
    """Evaluate prod (B - c) over the roots c.

    Fraction-free: with S the lcm of the denominators of B and of the roots,
    the integer matrices S B - S c are multiplied as dense rows and the
    product is divided once, by S^len(roots).  Entries are emitted column by
    column, the order of a RationalMatrix.matmul.
    """
    n = block.rows
    s = lcm(*{x.denominator for x in block.entries.values()},
            *{c.denominator for c in roots})
    sb = [[0] * n for _ in range(n)]
    for (i, j), x in block.entries.items():
        sb[i][j] = _times(x, s)
    cols = [[int(i == j) for i in range(n)] for j in range(n)]  # the product, by columns
    for c in roots:
        sc = _times(c, s)
        rows = [row[:i] + [row[i] - sc] + row[i + 1:] for i, row in enumerate(sb)]
        cols = [[sum(map(mul, row, col)) for row in rows] for col in cols]
    den = s ** len(roots)
    return RationalMatrix(n, n, {(i, j): Fraction(x, den) for j, col in enumerate(cols)
                                 for i, x in enumerate(col) if x})


def isotypic_projection(m: WeightModule, hw: HighestWeight, *,
                        blocks=None, constituents=None) -> RationalMatrix:
    """Exact idempotent projecting onto the hw-isotypic constituent.

    Requires multiplicity at most one and no Casimir eigenvalue collision
    between hw and a non-isomorphic constituent.  ``blocks`` and
    ``constituents`` accept precomputed Casimir blocks and highest-weight
    data to avoid recomputation.  A test oracle: no CLI path calls it.
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
    norm = ONE / prod(target - c for c in others)
    return _embed_blocks(m, {w: _dense_block_polynomial(block, others).scale(norm)
                             for w, block in blocks.items()})


def casimir_eigenspace(m: WeightModule, eigenvalue: Fraction, *, blocks=None) -> list[Vec]:
    """Echelonized basis of ker(Casimir - eigenvalue), weight block by block.

    A test oracle: no CLI path calls it.
    """
    decomp = m.weight_decomposition()
    if blocks is None:
        blocks = casimir_blocks(m)
    out = []
    for w, block in sorted(blocks.items()):
        idx = decomp[w]
        for kv in shifted_block(block, eigenvalue).kernel_basis():
            out.append({idx[t]: v for t, v in kv.items()})
    return out
