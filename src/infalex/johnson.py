"""The Johnson module M = C (+) coker(q) for a surface of genus g.

Ingredients, all exact:

* H = C^{2g} with the symplectic form, V = wedge^3 H / (theta ^ H);
* the decomposition wedge^2 V = R (+) Q (+) C z, Q the highest-weight
  summand of weight 2 lambda_2 and z spanning the invariant line, so that
  Q = wedge^2 V / (R (+) C z); R is the kernel of one integer polynomial in
  the Casimir operator per weight block, and dim Q is certified by the Weyl
  dimension formula;
* q = nabla-bar of the quadratic Lie algebra L(V)/(R + C z): the
  Sym(V)-linear map sending f (x) (a0 ^ a1 ^ a2) to the cyclic sum
  f a_i (x) [a_{i+1} ^ a_{i+2}], classes taken in Q; its degree-wise
  cokernel plus one trivial summand in degree zero is the module M.

The kernel of wedge^2 V ->> Q is R (+) C z whichever equivariant surjection
is used, so coker(q) does not depend on the coordinates chosen on Q; q
uses those of quad_lie.beta_matrix.  Instantiated matrices of q are
equivariant, hence block diagonal over weights, and the rank of a weight
block depends only on the Weyl orbit of its weight: once the sp(2g)
invariance of R + C z is checked, one dominant block per orbit is ranked,
which is what makes genus 4 affordable.  Results for g < 6
are linear algebra facts about the same maps; the finiteness guarantee for
coker(q) starts at g = 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

from .alex_module import GradedMap, coker_dims, nabla_bar
from .errors import BudgetExceededError, InternalInconsistencyError
from .exact_linalg import Vec, act_vec, axpy
from .free_lie import ad_generator_matrix
from .quad_lie import LiePresentation, _ideal_echelon, quotient_pairs, wedge2_pairs
from .rep_semisimple import (HighestWeight, LieAlgebraSpec, WeightModule,
                             casimir_blocks, casimir_eigenvalue,
                             fundamental_module, highest_weight_vectors,
                             quotient_module, sym_act, wedge_act, wedge_power,
                             weyl_dim, _dense_block_polynomial)

MIN_GENUS = 3

# default ceilings, read only by _check_budget; allow_large=True lifts them
_DEGREE_BUDGET = {3: 2, 4: 1}
_GENUS_BUDGET = 4
_CENTRAL_Z_GENUS_BUDGET = 3


def _check_budget(g: int, allow_large: bool, *, max_degree: int | None = None,
                  central_z: bool = False):
    """Refuse a request before any work is done.

    A genus below MIN_GENUS is a usage error whatever else was asked.  Then,
    unless allow_large, the first default ceiling the request passes is
    reported: genus, the degree-3 centrality check, degree."""
    if g < MIN_GENUS:
        raise ValueError(f"genus >= {MIN_GENUS} required")
    if allow_large:
        return
    hint = "pass allow_large / --allow-large"
    if g > _GENUS_BUDGET:
        raise BudgetExceededError("genus", _GENUS_BUDGET, genus=g, hint=hint)
    if central_z and g > _CENTRAL_Z_GENUS_BUDGET:
        raise BudgetExceededError("central_z_genus", _CENTRAL_Z_GENUS_BUDGET,
                                  genus=g, hint=hint)
    if max_degree is not None and max_degree > _DEGREE_BUDGET[g]:
        raise BudgetExceededError("degree", _DEGREE_BUDGET[g], genus=g,
                                  max_degree=max_degree, hint=hint)


class JohnsonContext:
    """Everything genus-dependent that q_map() and the reports share."""

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
        constituents = highest_weight_vectors(self.W2)
        zs = [v for hw, v in constituents if hw == self.hw_zero]
        if len(zs) != 1:
            raise InternalInconsistencyError("invariant line of wedge^2 V should be unique")
        self.z_vec = zs[0]
        self._build_r(constituents)

    # -- R, and dim Q certified by Weyl ------------------------------------------

    def _build_r(self, constituents):
        """R_w = ker f(C_w) on each weight block w, f(x) = prod (x - c) over
        the Casimir eigenvalues of the constituents other than c_q and c_z.

        C is semisimple on wedge^2 V and acts on V(lambda) by the scalar
        <lambda, lambda + 2 rho>, so ker f(C) is the sum of the constituents
        whose eigenvalue is a root of f.  That is R exactly when no other
        constituent shares c_q or c_z and V(2 lambda_2) occurs once; any such
        collision puts a constituent on the wrong side, so dim Q, read off
        as the rest, is checked against the Weyl dimension of 2 lambda_2.
        The Weyl dimensions of the listed constituents must also add up to
        dim wedge^2 V: a constituent listed twice leaves the roots, and so
        ker f(C), unchanged.
        """
        c_q = casimir_eigenvalue(self.spec, self.hw_two_l2)
        c_z = casimir_eigenvalue(self.spec, self.hw_zero)
        eigenvalues = sorted({casimir_eigenvalue(self.spec, hw) for hw, _v in constituents})
        roots = [c for c in eigenvalues if c not in (c_q, c_z)]
        blocks = casimir_blocks(self.W2)
        decomp = self.W2.weight_decomposition()
        r_basis: list[Vec] = []
        for w in sorted(blocks):
            idx = decomp[w]
            for kv in _dense_block_polynomial(blocks[w], roots).kernel_basis():
                r_basis.append({idx[t]: c for t, c in kv.items()})
        self.r_basis = r_basis
        self.r_dim = len(r_basis)
        self.q_dim = self.W2.dimension - self.r_dim - 1
        q_weyl = weyl_dim(self.spec, self.hw_two_l2)
        listed = sum(weyl_dim(self.spec, hw) for hw, _v in constituents)
        if (self.q_dim, listed) != (q_weyl, self.W2.dimension):
            raise InternalInconsistencyError(
                f"dim Q = {self.q_dim} against weyl_dim(2 lambda_2) = {q_weyl}, and "
                f"constituents of total Weyl dimension {listed} against "
                f"dim wedge^2 V = {self.W2.dimension}")

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
        """The (base, target) weights of q_map() for coker_dims.

        The target weights are those of the pair positions that survive the
        echelonized R + C z, which index the rows of beta.
        """
        kept = quotient_pairs(self.presentation_with_z)
        return self.V.weights, tuple(self.W2.weights[k] for k in kept)

    def certify_invariance(self):
        """Check that R + C z is invariant under sp(2g), else
        InternalInconsistencyError.

        The raising and lowering simple root vectors generate sp(2g), so it
        suffices that each maps every vector of R + C z back into its span.
        Then q is sp(2g)-equivariant, the weight multiplicities of its image
        are Weyl invariant, and coker_dims may rank one bucket per orbit.
        """
        span = self.presentation_with_z.relation_span()
        for label in self.spec.raising_labels() + self.spec.lowering_labels():
            cols = self.W2.actions[label]
            for v in self.r_basis + [self.z_vec]:
                if not span.contains(act_vec(cols, v)):
                    raise InternalInconsistencyError(
                        f"R + C z is not invariant under {label}")

    # -- the equivariance oracle; johnson_module_dims builds neither -------------

    @cached_property
    def q_module(self) -> WeightModule:
        """Q = wedge^2 V / (R + C z) in the coordinates of the target of q_map();
        building it checks that R + C z is invariant.  Part of the test
        oracle equivariance_defect."""
        return quotient_module(self.W2, self.r_basis + [self.z_vec])

    @cached_property
    def q_symbol(self) -> dict:
        """The symbol of q_map(), keyed by sorted triple.  Part of the test
        oracle equivariance_defect."""
        triples = combinations(range(self.V.dimension), 3)
        return dict(zip(triples, self.q_map().blocks[0].symbol))


@lru_cache(maxsize=2)
def johnson_context(g: int) -> JohnsonContext:
    """The context of genus g, shared by the commands of one process; a
    long-lived caller keeps at most two."""
    return JohnsonContext(g)


def decompose_wedge2_V(g: int, *, allow_large: bool = False) -> list[tuple]:
    """[(label-or-weight, dim)] for the three parts R, Q = V(2 lambda_2), V(0)."""
    _check_budget(g, allow_large)
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
    _check_budget(g, allow_large, max_degree=max_degree)
    ctx = johnson_context(g)
    ctx.certify_invariance()
    dims = coker_dims(ctx.q_map(), max_degree, weights=ctx.weight_data(), weyl=ctx.spec)
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
    _check_budget(g, allow_large, central_z=True)
    ctx = johnson_context(g)
    n = ctx.V.dimension
    pres = LiePresentation.make(
        n, [{ctx.pairs[k]: c for k, c in v.items()} for v in ctx.r_basis])
    ideal3 = _ideal_echelon(pres, 3)
    # L_2 and wedge^2 V share the pair basis, so z_vec is z in L_2; the
    # matrices give [e_i, z] = -[z, e_i], and membership ignores the sign
    return all(ideal3.contains(ad_generator_matrix(n, i, 2).matvec(ctx.z_vec))
               for i in range(n))


# ---------------------------------------------------------------------------
# equivariance of q, tested on vectors (no full instantiation needed)
# ---------------------------------------------------------------------------

def source_act(ctx: JohnsonContext, label: str, svec: dict) -> dict:
    """Action on Sym (x) wedge^3 V vectors keyed by (monomial, sorted triple).
    Part of the test oracle equivariance_defect."""
    vcols = ctx.V.actions[label]
    out: dict = {}
    for (mono, tri), coeff in svec.items():
        axpy(out, coeff, {(m2, tri): c for m2, c in sym_act(vcols, mono).items()})
        axpy(out, coeff, {(mono, t2): c for t2, c in wedge_act(vcols, tri).items()})
    return out


def target_act(ctx: JohnsonContext, label: str, tvec: dict) -> dict:
    """Action on Sym (x) Q vectors keyed by (monomial, Q index).  Part of the
    test oracle equivariance_defect."""
    vcols = ctx.V.actions[label]
    qcols = ctx.q_module.actions[label]
    out: dict = {}
    for (mono, k), coeff in tvec.items():
        axpy(out, coeff, {(m2, k): c for m2, c in sym_act(vcols, mono).items()})
        axpy(out, coeff, {(mono, kk): c for kk, c in qcols[k].items()})
    return out


def apply_q_to_vector(ctx: JohnsonContext, svec: dict) -> dict:
    """Apply the symbol of q_map() to a Sym (x) wedge^3 V vector.  Part of
    the test oracle equivariance_defect."""
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
    """q(x . v) - x . q(v); the empty dict iff equivariance holds on v.

    Test oracle: checks that q is sp(2g)-equivariant (acceptance criterion
    5), which the weight-bucketed rank in johnson_module_dims relies on; no
    CLI path calls it."""
    lhs = apply_q_to_vector(ctx, source_act(ctx, label, svec))
    axpy(lhs, -1, target_act(ctx, label, apply_q_to_vector(ctx, svec)))
    return lhs
