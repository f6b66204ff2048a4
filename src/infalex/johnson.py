"""The Johnson module M = C (+) coker(q) for a surface of genus g.

Ingredients, all exact:

* H = C^{2g} with the symplectic form, V = wedge^3 H / (theta ^ H);
* the decomposition wedge^2 V = R (+) Q (+) C z, Q the highest-weight
  summand of weight 2 lambda_2 and z spanning the invariant line, so that
  Q = wedge^2 V / (R (+) C z);
* q = nabla-bar of the quadratic Lie algebra L(V)/(R + C z): the
  Sym(V)-linear map sending f (x) (a0 ^ a1 ^ a2) to the cyclic sum
  f a_i (x) [a_{i+1} ^ a_{i+2}], classes taken in Q; its degree-wise
  cokernel plus one trivial summand in degree zero is the module M.

The kernel of wedge^2 V ->> Q is R (+) C z whichever equivariant surjection
is used, so coker(q) does not depend on the coordinates chosen on Q; q
uses those of quad_lie.beta_matrix.  Instantiated matrices of q are
equivariant, hence block diagonal over weights; ranks are computed per
weight block, which is what makes genus 4 affordable.  Results for g < 6
are linear algebra facts about the same maps; the finiteness guarantee for
coker(q) starts at g = 6.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .alex_module import GradedMap, coker_dims, nabla_bar
from .errors import BudgetExceededError, InternalInconsistencyError
from .exact_linalg import ONE, RationalMatrix, Vec, axpy
from .free_lie import LieElement, bracket
from .quad_lie import LiePresentation, _ideal_echelon, quotient_pairs, wedge2_pairs
from .rep_semisimple import (HighestWeight, LieAlgebraSpec, WeightModule,
                             casimir_blocks, casimir_eigenvalue,
                             fundamental_module, highest_weight_vectors,
                             quotient_module, shifted_block, sym_act, wedge_act,
                             wedge_power, _dense_block_polynomial)

MIN_GENUS = 3

# default ceilings; lift with allow_large=True or INFALEX_ALLOW_LARGE=1
_DEGREE_BUDGET = {3: 2, 4: 1}
_GENUS_BUDGET = 4
_CENTRAL_Z_GENUS_BUDGET = 3


def _allow_large(flag: bool) -> bool:
    return flag or os.environ.get("INFALEX_ALLOW_LARGE", "") not in ("", "0")


def _over_budget(what: str, limit: int, **facts) -> BudgetExceededError:
    """The refusal of a run past a default ceiling; facts say what was asked."""
    return BudgetExceededError({
        "error": "budget", "what": what, **facts, "limit": limit,
        "hint": "pass allow_large / --allow-large or set INFALEX_ALLOW_LARGE=1"})


def _check_budget(g: int, max_degree: int | None, allow_large: bool):
    if _allow_large(allow_large):
        return
    if g > _GENUS_BUDGET:
        raise _over_budget("genus", _GENUS_BUDGET, genus=g)
    if max_degree is not None and max_degree > _DEGREE_BUDGET.get(g, 0):
        raise _over_budget("degree", _DEGREE_BUDGET.get(g, 0), genus=g,
                           max_degree=max_degree)


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

        self.hw_two_l2 = HighestWeight((0, 2) + (0,) * (g - 2))
        self.hw_zero = HighestWeight((0,) * g)
        self.c_q = casimir_eigenvalue(self.spec, self.hw_two_l2)
        self.c_z = casimir_eigenvalue(self.spec, self.hw_zero)

        self.constituents = highest_weight_vectors(self.W2)
        eigen_map: dict[Fraction, list[HighestWeight]] = {}
        for hw, _v in self.constituents:
            eigen_map.setdefault(casimir_eigenvalue(self.spec, hw), []).append(hw)
        self.eigenvalues = sorted(eigen_map)
        for c, hws in eigen_map.items():
            if len(hws) > 1 and c in (self.c_q, self.c_z):
                raise InternalInconsistencyError(f"Casimir eigenvalue collision at {c}: {hws}")
        zs = [v for hw, v in self.constituents if hw == self.hw_zero]
        if len(zs) != 1:
            raise InternalInconsistencyError("invariant line of wedge^2 V should be unique")
        self.z_vec = zs[0]

        self.blocks = casimir_blocks(self.W2)
        self._build_r()

    # -- R, and dim Q as the c_q eigenspace -------------------------------------

    def _build_r(self):
        """One pass over the weight blocks.

        A projector's image on a weight block is its eigenspace there, so
        P_Q is evaluated only on blocks where ker(C - c_q) is nonzero and
        P_z only on the block of z; elsewhere each is exactly zero.  R is
        the intersection of their kernels, which is ker(P_Q + P_z) because
        both are idempotents with P_Q P_z = 0.  dim Q is counted from the
        eigenspaces, independently of R.
        """
        decomp = self.W2.weight_decomposition()
        z_weight = self.W2.weights[min(self.z_vec)]
        q_dim = 0
        r_basis: list[Vec] = []
        for w in sorted(self.blocks):
            idx = decomp[w]
            block = self.blocks[w]
            projector = RationalMatrix.zeros(len(idx), len(idx))
            eigen_dim = len(shifted_block(block, self.c_q).kernel_basis())
            if eigen_dim:
                q_dim += eigen_dim
                projector = _dense_block_polynomial(block, self.eigenvalues, self.c_q)
            if w == z_weight:
                projector = projector + _dense_block_polynomial(
                    block, self.eigenvalues, self.c_z)
            for kv in projector.kernel_basis():
                r_basis.append({idx[t]: c for t, c in kv.items()})
        self.q_dim = q_dim
        self.r_basis = r_basis
        self.r_dim = len(r_basis)

    # -- the map q ---------------------------------------------------------------

    @cached_property
    def presentation_with_z(self) -> LiePresentation:
        """L(V) modulo (R + C z); its G_2 is Q."""
        rels = [{self.pairs[k]: c for k, c in v.items()}
                for v in self.r_basis + [self.z_vec]]
        return LiePresentation.make(self.V.dimension, rels)

    def q_map(self) -> GradedMap:
        """nabla-bar of L(V)/(R + C z): the cyclic sum into Sym (x) Q."""
        return nabla_bar(self.presentation_with_z)

    def weight_data(self):
        """The (base, blocks, target) weights of q_map() for coker_dims.

        The target weights are those of the pair positions that survive the
        echelonized R + C z, which index the rows of beta.
        """
        vw = self.V.weights
        triples = list(combinations(range(self.V.dimension), 3))
        tri_w = [tuple(vw[a][t] + vw[b][t] + vw[c][t] for t in range(self.g))
                 for (a, b, c) in triples]
        kept = quotient_pairs(self.presentation_with_z)
        return vw, [tri_w], tuple(self.W2.weights[k] for k in kept)

    # -- the equivariance oracle; johnson_module_dims builds neither -------------

    @cached_property
    def q_module(self) -> WeightModule:
        """Q = wedge^2 V / (R + C z) in the coordinates of the target of q_map();
        building it checks that R + C z is invariant."""
        return quotient_module(self.W2, self.r_basis + [self.z_vec])

    @cached_property
    def q_symbol(self) -> dict:
        """The symbol of q_map(), keyed by sorted triple."""
        triples = combinations(range(self.V.dimension), 3)
        return dict(zip(triples, self.q_map().blocks[0].symbol))


_CTX_CACHE: dict[int, JohnsonContext] = {}


def johnson_context(g: int) -> JohnsonContext:
    ctx = _CTX_CACHE.get(g)
    if ctx is None:
        ctx = _CTX_CACHE[g] = JohnsonContext(g)
    return ctx


def build_q(g: int, *, allow_large: bool = False) -> GradedMap:
    """The Sym(V)-linear map f (x) a0^a1^a2 |-> sum over cyclic i of
    f a_i (x) [a_{i+1} ^ a_{i+2}] in Q = wedge^2 V / (R + C z)."""
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
    dims = coker_dims(gm, max_degree, weights=ctx.weight_data())
    coker = tuple(dims.dims)
    m_dims = tuple(d + (1 if q == 0 else 0) for q, d in enumerate(coker))
    return JohnsonModuleReport(g, ctx.V.dimension, ctx.q_dim,
                               (ctx.r_dim, ctx.q_dim, 1), coker, m_dims)


def central_z_check(g: int, *, allow_large: bool = False) -> bool:
    """Degree-3 membership [z, V] inside ideal(R): reported literally.

    At g = 3 the decomposition gives R = 0, so the ideal is zero and z is a
    nonzero degree-2 element of a free Lie algebra; the check then reports
    whether [z, V] = 0, which is false.  For larger g the relation space is
    big and the membership is a genuine computation.
    """
    if not _allow_large(allow_large) and g > _CENTRAL_Z_GENUS_BUDGET:
        raise _over_budget("central_z_genus", _CENTRAL_Z_GENUS_BUDGET, genus=g)
    ctx = johnson_context(g)
    n = ctx.V.dimension
    pres = LiePresentation.make(
        n, [{ctx.pairs[k]: c for k, c in v.items()} for v in ctx.r_basis])
    ideal3 = _ideal_echelon(pres, 3)
    z_elt = LieElement.make(2, {ctx.pairs[k]: c for k, c in ctx.z_vec.items()})
    return all(ideal3.contains(bracket(z_elt, LieElement.generator(i)).to_vec(n))
               for i in range(n))


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
    qcols = ctx.q_module.actions[label]
    out: dict = {}
    for (mono, k), coeff in tvec.items():
        axpy(out, coeff, {(m2, k): c for m2, c in sym_act(vcols, mono).items()})
        axpy(out, coeff, {(mono, kk): c for kk, c in qcols[k].items()})
    return out


def apply_q_to_vector(ctx: JohnsonContext, svec: dict) -> dict:
    """Apply the symbol of q_map() to a Sym (x) wedge^3 V vector."""
    out: dict = {}
    for (mono, tri), coeff in svec.items():
        terms = {}
        for (i, k, c) in ctx.q_symbol[tri]:
            m2 = list(mono)
            m2[i] += 1
            terms[(tuple(m2), k)] = c
        axpy(out, coeff, terms)
    return out


def equivariance_defect(ctx: JohnsonContext, label: str, svec: dict) -> dict:
    """q(x . v) - x . q(v); the empty dict iff equivariance holds on v."""
    lhs = apply_q_to_vector(ctx, source_act(ctx, label, svec))
    axpy(lhs, -1, target_act(ctx, label, apply_q_to_vector(ctx, svec)))
    return lhs
