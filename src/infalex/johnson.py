"""The Johnson module M = C (+) coker(q) for a surface of genus g.

Ingredients, all exact:

* H = C^{2g} with the symplectic form, V = wedge^3 H / (theta ^ H);
* the decomposition wedge^2 V = R (+) Q (+) C z, Q the highest-weight
  summand of weight 2 lambda_2 and z spanning the invariant line;
* pi : wedge^2 V ->> Q the equivariant idempotent, realized on an explicit
  eigenspace basis of Q;
* the Sym(V)-linear map q sending f (x) (a0 ^ a1 ^ a2) to the cyclic sum
  f a_i (x) pi(a_{i+1} ^ a_{i+2}); its degree-wise cokernel plus one trivial
  summand in degree zero is the module M.

Instantiated matrices of q are equivariant, hence block diagonal over
weights; ranks are computed per weight block, which is what makes genus 4
affordable.  Results for g < 6 are linear algebra facts about the same maps;
the finiteness guarantee for coker(q) starts at g = 6.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .alex_module import GradedMap, SymbolBlock, coker_dims
from .errors import BudgetExceededError
from .exact_linalg import ONE, RationalMatrix, Vec, act_vec, axpy, solve_membership
from .free_lie import LieElement, bracket
from .quad_lie import LiePresentation, ideal_piece, wedge2_pairs
from .rep_semisimple import (HighestWeight, LieAlgebraSpec,
                             casimir_blocks, casimir_eigenvalue,
                             fundamental_module, highest_weight_vectors,
                             sym_act, wedge_act, wedge_power,
                             _dense_block_polynomial)

MIN_GENUS = 3

# default ceilings; lift with allow_large=True or INFALEX_ALLOW_LARGE=1
_DEGREE_BUDGET = {3: 2, 4: 1}
_GENUS_BUDGET = 4
_CENTRAL_Z_GENUS_BUDGET = 3


def _allow_large(flag: bool) -> bool:
    return flag or os.environ.get("INFALEX_ALLOW_LARGE", "") not in ("", "0")


def _check_budget(g: int, max_degree: int | None, allow_large: bool):
    if _allow_large(allow_large):
        return
    if g > _GENUS_BUDGET:
        raise BudgetExceededError({
            "error": "budget", "what": "genus", "genus": g,
            "limit": _GENUS_BUDGET,
            "hint": "pass allow_large / --allow-large or set INFALEX_ALLOW_LARGE=1"})
    if max_degree is not None and max_degree > _DEGREE_BUDGET.get(g, 0):
        raise BudgetExceededError({
            "error": "budget", "what": "degree", "genus": g,
            "max_degree": max_degree, "limit": _DEGREE_BUDGET.get(g, 0),
            "hint": "pass allow_large / --allow-large or set INFALEX_ALLOW_LARGE=1"})


@dataclass(frozen=True)
class SymplecticSpace:
    g: int
    basis: tuple[str, ...]
    theta: RationalMatrix

    @staticmethod
    def make(g: int) -> "SymplecticSpace":
        if g < MIN_GENUS:
            raise ValueError(f"genus >= {MIN_GENUS} required")
        names = tuple(f"a{i+1}" for i in range(g)) + tuple(f"b{i+1}" for i in range(g))
        entries = {}
        for i in range(g):
            entries[(i, g + i)] = ONE
            entries[(g + i, i)] = -ONE
        return SymplecticSpace(g, names, RationalMatrix(2 * g, 2 * g, entries))


class JohnsonContext:
    """Everything genus-dependent that build_q and the reports share."""

    def __init__(self, g: int):
        if g < MIN_GENUS:
            raise ValueError(f"genus >= {MIN_GENUS} required")
        self.g = g
        self.spec = LieAlgebraSpec("sp", g)
        self.V = fundamental_module(self.spec, 3)
        self.W2 = wedge_power(self.V, 2)
        self.pairs = wedge2_pairs(self.V.dimension)
        self.pair_index = {p: i for i, p in enumerate(self.pairs)}

        self.hw_two_l2 = HighestWeight((0, 2) + (0,) * (g - 2))
        self.hw_zero = HighestWeight((0,) * g)
        self.c_q = casimir_eigenvalue(self.spec, self.hw_two_l2)
        self.c_z = casimir_eigenvalue(self.spec, self.hw_zero)

        self.constituents = highest_weight_vectors(self.W2)
        eigen: dict[Fraction, list[HighestWeight]] = {}
        for hw, _v in self.constituents:
            eigen.setdefault(casimir_eigenvalue(self.spec, hw), []).append(hw)
        self.eigen_map = eigen
        self.eigenvalues = sorted(eigen)
        for c, hws in eigen.items():
            if len(hws) > 1 and c in (self.c_q, self.c_z):
                raise ArithmeticError(f"Casimir eigenvalue collision at {c}: {hws}")

        self.blocks = casimir_blocks(self.W2)
        self._build_q_basis_and_pi()
        self._build_z_and_r()

    # -- Q as an explicit eigenspace basis, pi in Q coordinates -----------------

    def _build_q_basis_and_pi(self):
        decomp = self.W2.weight_decomposition()
        q_basis: list[Vec] = []
        q_free: list[int] = []          # ambient free position per basis vector
        q_weights: list[tuple] = []
        pi_cols: list[Vec] = [dict() for _ in range(self.W2.dimension)]
        for w in sorted(self.blocks):
            idx = decomp[w]
            size = len(idx)
            block = self.blocks[w]
            entries = {}
            for rr in range(size):
                for cc in range(size):
                    v = block[rr][cc] - (self.c_q if rr == cc else 0)
                    if v:
                        entries[(rr, cc)] = v
            kb = RationalMatrix(size, size, entries).kernel_basis_with_free()
            if not kb:
                continue
            pb = _dense_block_polynomial(block, self.eigenvalues, self.c_q)
            start = len(q_basis)
            for f, kv in kb:
                q_basis.append({idx[t]: c for t, c in kv.items()})
                q_free.append(idx[f])
                q_weights.append(w)
            for cc in range(size):
                amb = idx[cc]
                for r, (f, _kv) in enumerate(kb):
                    c = pb[f][cc]
                    if c:
                        pi_cols[amb][start + r] = c
        self.q_basis = q_basis
        self.q_free = q_free
        self.q_dim = len(q_basis)
        self.q_weights = tuple(q_weights)
        self.pi_cols = tuple(pi_cols)  # pi in Q coordinates, one column per pair

    def _build_z_and_r(self):
        zs = [v for hw, v in self.constituents if hw == self.hw_zero]
        if len(zs) != 1:
            raise ArithmeticError("invariant line of wedge^2 V should be unique")
        self.z_vec = zs[0]
        # R = intersection of the kernels of the projections onto Q and onto z
        decomp = self.W2.weight_decomposition()
        r_basis: list[Vec] = []
        for w in sorted(self.blocks):
            idx = decomp[w]
            size = len(idx)
            block = self.blocks[w]
            stacked = {}
            row_off = 0
            for target in (self.c_q, self.c_z):
                pb = _dense_block_polynomial(block, self.eigenvalues, target)
                for rr in range(size):
                    for cc in range(size):
                        if pb[rr][cc]:
                            stacked[(row_off + rr, cc)] = pb[rr][cc]
                row_off += size
            for kv in RationalMatrix(row_off, size, stacked).kernel_basis():
                r_basis.append({idx[t]: c for t, c in kv.items()})
        self.r_basis = r_basis
        self.r_dim = len(r_basis)

    # -- the map q ---------------------------------------------------------------

    def pi_column(self, i: int, j: int) -> Vec:
        """pi(e_i ^ e_j) in Q coordinates, for any i != j."""
        if i == j:
            return {}
        if i < j:
            return self.pi_cols[self.pair_index[(i, j)]]
        return {k: -c for k, c in self.pi_cols[self.pair_index[(j, i)]].items()}

    def q_coordinates(self, ambient: Vec) -> Vec:
        """Coordinates in the Q basis of a vector lying in the Q span."""
        out: Vec = {}
        for r, free_amb in enumerate(self.q_free):
            c = ambient.get(free_amb)
            if c:
                out[r] = c
        return out

    def q_map(self) -> GradedMap:
        n = self.V.dimension
        triples = list(combinations(range(n), 3))
        symbol = []
        for (a, b, c) in triples:
            terms: dict[tuple[int, int], Fraction] = {}
            for var, (s, t) in ((a, (b, c)), (b, (c, a)), (c, (a, b))):
                axpy(terms, 1, {(var, k): coeff for k, coeff in self.pi_column(s, t).items()})
            symbol.append(tuple((i, k, c) for (i, k), c in sorted(terms.items())))
        block = SymbolBlock("wedge3", len(triples), 1, tuple(symbol))
        return GradedMap(n, self.q_dim, (block,))

    def weight_data(self):
        """(base_weights, block_weights, target_weights) for equivariant ranks."""
        vw = self.V.weights
        triples = list(combinations(range(self.V.dimension), 3))
        tri_w = [tuple(vw[a][t] + vw[b][t] + vw[c][t] for t in range(self.g))
                 for (a, b, c) in triples]
        return vw, [tri_w], self.q_weights

    def presentation_with_z(self) -> LiePresentation:
        """L(V) modulo (R + C z): the quadratic presentation whose invariant
        matches coker(q) degree-wise."""
        rels = [{self.pairs[k]: c for k, c in v.items()}
                for v in self.r_basis + [self.z_vec]]
        return LiePresentation.make(self.V.dimension, rels)


_CTX_CACHE: dict[int, JohnsonContext] = {}


def johnson_context(g: int) -> JohnsonContext:
    ctx = _CTX_CACHE.get(g)
    if ctx is None:
        ctx = _CTX_CACHE[g] = JohnsonContext(g)
    return ctx


def build_q(g: int, *, allow_large: bool = False) -> GradedMap:
    """The Sym(V)-linear map f (x) a0^a1^a2 |-> sum over cyclic i of
    f a_i (x) pi(a_{i+1} ^ a_{i+2})."""
    _check_budget(g, None, allow_large)
    return johnson_context(g).q_map()


def decompose_wedge2_V(g: int, *, allow_large: bool = False) -> list[tuple]:
    """[(label-or-weight, dim)] for the three parts R, Q = V(2 lambda_2), V(0)."""
    _check_budget(g, None, allow_large)
    ctx = johnson_context(g)
    return [("R-complement", ctx.r_dim),
            (ctx.hw_two_l2, ctx.q_dim),
            (ctx.hw_zero, 1)]


@dataclass(frozen=True)
class JohnsonModuleReport:
    g: int
    v_dim: int
    q_dim: int
    wedge2_parts: tuple[int, int, int]  # (R, Q, z)
    coker_q: tuple[int, ...]            # degrees 0..N
    m_dims: tuple[int, ...]             # coker_q plus the trivial summand in degree 0

    def to_json_dict(self) -> dict:
        return {
            "genus": self.g,
            "dims": {"V": self.v_dim, "Q": self.q_dim, "wedge2V": list(self.wedge2_parts)},
            "coker_q": list(self.coker_q),
            "M": list(self.m_dims),
        }


def johnson_module_dims(g: int, max_degree: int, *, allow_large: bool = False) -> JohnsonModuleReport:
    _check_budget(g, max_degree, allow_large)
    ctx = johnson_context(g)
    gm = ctx.q_map()
    base_w, block_w, target_w = ctx.weight_data()
    dims = coker_dims(gm, max_degree, base_weights=base_w,
                      block_weights=block_w, target_weights=target_w)
    coker = tuple(dims.dims)
    m_dims = tuple(d + (1 if q == 0 else 0) for q, d in enumerate(coker))
    return JohnsonModuleReport(g, ctx.V.dimension, ctx.q_dim,
                               (ctx.r_dim, ctx.q_dim, 1), coker, m_dims)


def central_z_check(g: int, *, allow_large: bool = False) -> bool:
    """Degree-3 membership [z, V] inside ideal(R): reported literally.

    At g = 3 the decomposition gives R = 0, the quotient is free, and z is a
    nonzero degree-2 element of a free Lie algebra; the check then reports
    whether [z, V] = 0, which is false.  For larger g the relation space is
    big and the membership is a genuine computation.
    """
    if not _allow_large(allow_large) and g > _CENTRAL_Z_GENUS_BUDGET:
        raise BudgetExceededError({
            "error": "budget", "what": "central_z_genus", "genus": g,
            "limit": _CENTRAL_Z_GENUS_BUDGET,
            "hint": "pass allow_large / --allow-large or set INFALEX_ALLOW_LARGE=1"})
    ctx = johnson_context(g)
    n = ctx.V.dimension
    pres = LiePresentation.make(
        n, [{ctx.pairs[k]: c for k, c in v.items()} for v in ctx.r_basis])
    z_elt = LieElement.make(2, {ctx.pairs[k]: c for k, c in ctx.z_vec.items()})
    if not pres.relations:
        # free quotient: membership in the zero ideal means [z, v] vanishes
        return all(bracket(z_elt, LieElement.generator(i)).is_zero() for i in range(n))
    ideal3 = ideal_piece(pres, 3)
    for i in range(n):
        w = bracket(z_elt, LieElement.generator(i))
        if not solve_membership(ideal3, w.to_vec(n)):
            return False
    return True


# ---------------------------------------------------------------------------
# equivariance of q, tested on vectors (no full instantiation needed)
# ---------------------------------------------------------------------------

def source_act(ctx: JohnsonContext, label: str, svec: dict) -> dict:
    """Action on Sym (x) wedge^3 V vectors keyed by (monomial, sorted triple)."""
    vcols = ctx.V.actions[label]
    out: dict = {}
    for (mono, tri), coeff in svec.items():
        axpy(out, coeff, {(m2, tri): c for m2, c in sym_act(vcols, mono).items()})
        axpy(out, coeff, {(mono, t2): c for t2, c in wedge_act(vcols, tri).items()})
    return out


def target_act(ctx: JohnsonContext, label: str, tvec: dict) -> dict:
    """Action on Sym (x) Q vectors keyed by (monomial, Q index)."""
    vcols = ctx.V.actions[label]
    w2cols = ctx.W2.actions[label]
    out: dict = {}
    for (mono, k), coeff in tvec.items():
        axpy(out, coeff, {(m2, k): c for m2, c in sym_act(vcols, mono).items()})
        ambient = act_vec(w2cols, ctx.q_basis[k])
        axpy(out, coeff, {(mono, kk): c for kk, c in ctx.q_coordinates(ambient).items()})
    return out


def apply_q_to_vector(ctx: JohnsonContext, svec: dict) -> dict:
    """Apply the symbol of q to a Sym (x) wedge^3 V vector."""
    out: dict = {}
    for (mono, tri), coeff in svec.items():
        a, b, c = tri
        for var, (s, t) in ((a, (b, c)), (b, (c, a)), (c, (a, b))):
            m2 = list(mono)
            m2[var] += 1
            m2 = tuple(m2)
            axpy(out, coeff, {(m2, k): pc for k, pc in ctx.pi_column(s, t).items()})
    return out


def equivariance_defect(ctx: JohnsonContext, label: str, svec: dict) -> dict:
    """q(x . v) - x . q(v); the empty dict iff equivariance holds on v."""
    lhs = apply_q_to_vector(ctx, source_act(ctx, label, svec))
    axpy(lhs, -1, target_act(ctx, label, apply_q_to_vector(ctx, svec)))
    return lhs
