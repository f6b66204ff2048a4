"""The Johnson module M = C (+) coker(q) for a surface of genus g.

Ingredients, all exact:

* H = C^{2g} with the symplectic form, V = wedge^3 H / (theta ^ H);
* the decomposition wedge^2 V = R (+) Q (+) C z, Q the highest-weight
  summand of weight 2 lambda_2 and z spanning the invariant line, so that
  Q = wedge^2 V / (R (+) C z); R is the kernel of one integer polynomial in
  the Casimir operator per weight block, and dim Q is certified by the Weyl
  dimension formula.  The Casimir of wedge^2 V is assembled from the actions
  of V, and each column of an action on wedge^2 V is built on its first
  read, so a run builds columns of only the 2g simple root operators it
  applies: the g raising ones find the highest-weight vectors, the g
  lowering ones certify R + C z;
* q = nabla-bar of the quadratic Lie algebra L(V)/(R + C z): the
  Sym(V)-linear map sending f (x) (a0 ^ a1 ^ a2) to the cyclic sum
  f a_i (x) [a_{i+1} ^ a_{i+2}], classes taken in Q; its degree-wise
  cokernel plus one trivial summand in degree zero is the module M.

The kernel of wedge^2 V ->> Q is R (+) C z whichever equivariant surjection
is used, so coker(q) does not depend on the coordinates chosen on Q; q is
read off the span of R + C z alone (alex_module.quotient_cyclic_sum), and no
presentation of L(V)/(R + C z) is built.  Instantiated matrices of q are
equivariant, hence block diagonal over weights, and the rank of a weight
block depends only on the Weyl orbit of its weight: once the sp(2g)
invariance of R + C z is certified (from the highest-weight vectors of its
constituents, their Weyl dimensions and the g lowering operators; see
certify_invariance), one dominant block per orbit is ranked,
which is what makes genus 4 affordable.  The generator a0 ^ a1 ^ a2 of q
has the weight of its triple, w_0 + w_1 + w_2, certified once on the
quotient map (every row of its column on a pair has the pair's weight), so the
blocks are counted and formed from weights alone, and the symbol of a
triple is built on its first read: a run builds only the symbols of the
dominant blocks it ranks.  Results for g < 6 are linear algebra facts
about the same maps; the finiteness guarantee for coker(q) starts at
g = 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add

from .alex_module import GradedMap, coker_dims, quotient_cyclic_sum
from .errors import BudgetExceededError, InternalInconsistencyError
from .exact_linalg import EchelonBasis, Vec, act_vec, axpy, echelon_basis
from .free_lie import basis_bracket
from .quad_lie import wedge2_pairs
from .rep_semisimple import (HighestWeight, LieAlgebraSpec, casimir_blocks,
                             casimir_eigenvalue, fundamental_module,
                             highest_weight_vectors, wedge_power, weyl_dim,
                             _dense_block_polynomial)

MIN_GENUS = 3

# default ceilings, read only by _check_budget; allow_large=True lifts them
_DEGREE_BUDGET = {3: 2, 4: 1}
_GENUS_BUDGET = 4


def _check_budget(g: int, allow_large: bool, *, max_degree: int | None = None):
    """Refuse a request before any work is done.

    A genus below MIN_GENUS is a usage error whatever else was asked.  Then,
    unless allow_large, the first default ceiling the request passes is
    reported: genus, then degree."""
    if g < MIN_GENUS:
        raise ValueError(f"genus >= {MIN_GENUS} required")
    if allow_large:
        return
    hint = "pass allow_large / --allow-large"
    if g > _GENUS_BUDGET:
        raise BudgetExceededError("genus", _GENUS_BUDGET, genus=g, hint=hint)
    if max_degree is not None and max_degree > _DEGREE_BUDGET[g]:
        raise BudgetExceededError("degree", _DEGREE_BUDGET[g], genus=g,
                                  max_degree=max_degree, hint=hint)


class JohnsonContext:
    """Everything genus-dependent that q_map() and the reports share."""

    def __init__(self, g: int):
        if g < MIN_GENUS:
            raise ValueError(f"genus >= {MIN_GENUS} required")
        self.g = g
        self.spec = LieAlgebraSpec(g)
        self.V = fundamental_module(self.spec, 3)
        self.W2 = wedge_power(self.V, 2)
        self.pairs = wedge2_pairs(self.V.dimension)

        self.hw_two_l2 = HighestWeight((0, 2) + (0,) * (g - 2))
        self.hw_zero = HighestWeight((0,) * g)
        # (highest weight, vector) per constituent: R, dim Q and the
        # invariance certificate are read off them
        self.constituents = highest_weight_vectors(self.W2)
        zs = [v for hw, v in self.constituents if hw == self.hw_zero]
        if len(zs) != 1:
            raise InternalInconsistencyError("invariant line of wedge^2 V should be unique")
        self.z_vec = zs[0]
        self._build_r()
        self._q_map: GradedMap | None = None

    # -- R, and dim Q certified by Weyl ------------------------------------------

    def _build_r(self):
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

        The blocks of C come from V alone (casimir_blocks(V, 2)): C on
        u ^ w is Cu ^ w + u ^ Cw plus twice the cross term of the dual
        bases, so no action on wedge^2 V is built for them.
        """
        c_q = casimir_eigenvalue(self.spec, self.hw_two_l2)
        c_z = casimir_eigenvalue(self.spec, self.hw_zero)
        eigenvalues = sorted({casimir_eigenvalue(self.spec, hw) for hw, _v in self.constituents})
        roots = [c for c in eigenvalues if c not in (c_q, c_z)]
        blocks = casimir_blocks(self.V, 2)
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
        listed = sum(weyl_dim(self.spec, hw) for hw, _v in self.constituents)
        if (self.q_dim, listed) != (q_weyl, self.W2.dimension):
            raise InternalInconsistencyError(
                f"dim Q = {self.q_dim} against weyl_dim(2 lambda_2) = {q_weyl}, and "
                f"constituents of total Weyl dimension {listed} against "
                f"dim wedge^2 V = {self.W2.dimension}")

    # -- the map q ---------------------------------------------------------------

    @cached_property
    def rz_span(self) -> EchelonBasis:
        """The echelonized span of R + C z: Q = wedge^2 V / rz_span, read by
        q, its weights and the invariance certificate."""
        return echelon_basis(self.r_basis + [self.z_vec])

    def q_map(self) -> GradedMap:
        """nabla-bar of L(V)/(R + C z): the cyclic sum into Sym (x) Q, made
        on the first call and kept with the context."""
        if self._q_map is None:
            self._q_map = quotient_cyclic_sum(self.V.dimension, self.rz_span)
        return self._q_map

    def weight_data(self):
        """The (base, target) weights of q_map() for coker_dims.

        The target weights are those of the pairs that rz_span leaves free,
        which index the rows of q's target.
        """
        kept = self.rz_span.free(len(self.pairs))
        return self.V.weights, tuple(self.W2.weights[k] for k in kept)

    def certify_invariance(self):
        """Check that R + C z is invariant under sp(2g), else
        InternalInconsistencyError.  With v_lambda the highest-weight vectors
        of the constituents of wedge^2 V other than V(2 lambda_2), three
        facts are checked:

        (a) rank(R + C z) is the sum of weyl_dim(lambda);
        (b) every v_lambda lies in R + C z;
        (c) each simple lowering operator f_i maps a basis of R + C z into
            its span.

        Each v_lambda is killed by n+, so U(g) v_lambda = U(n-) v_lambda, a
        copy of V(lambda); the f_i generate n-, so (b) and (c) put the sum
        of the U(g) v_lambda inside R + C z.  That sum is direct, the
        v_lambda being independent highest-weight vectors, and by (a) its
        dimension is the rank of R + C z, so the two are equal and R + C z
        is a submodule (Humphreys, Introduction to Lie Algebras and
        Representation Theory, sections 20-21).  Then q is
        sp(2g)-equivariant, the weight multiplicities of its image are Weyl
        invariant, and coker_dims may rank one bucket per orbit.

        (c) reads the integer rows rz_span stores; run after q_map(), as
        johnson_module_dims does, these are the rows q's quotient
        inter-reduced, and each membership clears its pivots in one pass.
        """
        span = self.rz_span
        others = [(hw, v) for hw, v in self.constituents if hw != self.hw_two_l2]
        expected = sum(weyl_dim(self.spec, hw) for hw, _v in others)
        if span.rank != expected:
            raise InternalInconsistencyError(
                f"R + C z is not invariant: rank {span.rank} against the "
                f"{expected} of its constituents")
        for hw, v in others:
            if not span.contains(v):
                raise InternalInconsistencyError(
                    f"R + C z is not invariant: it misses the highest-weight "
                    f"vector of {hw.coefficients}")
        for label in self.spec.lowering_labels():
            cols = self.W2.actions[label]
            for v in span.rows.values():
                if not span.contains(act_vec(cols, v)):
                    raise InternalInconsistencyError(
                        f"R + C z is not invariant under {label}")


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
    gm = ctx.q_map()   # first: its quotient inter-reduces the span the certificate reads
    ctx.certify_invariance()
    dims = coker_dims(gm, max_degree, weights=ctx.weight_data(), weyl=ctx.spec)
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

    ideal(R)_3 is spanned by the [e_i, r], r in r_basis.  Every r and z is a
    weight vector (checked), and so is every Lyndon word, so the weight-mu
    part of ideal(R)_3 is spanned by the [e_i, r] of weight mu, and each
    [e_j, z] is tested in the block of its own weight; membership ignores
    the sign of [e_j, z] = -[z, e_j].
    """
    _check_budget(g, allow_large)
    ctx = johnson_context(g)
    n, wt = ctx.V.dimension, ctx.V.weights

    def weight(v: Vec) -> tuple:
        weights = {ctx.W2.weights[k] for k in v}
        if len(weights) != 1:
            raise InternalInconsistencyError("R + C z should have a basis of weight vectors")
        return weights.pop()

    def bracket(i: int, v: Vec) -> Vec:
        # [e_i, v] keyed by Lyndon word: the pairs of wedge^2 V are the words of L_2
        out: Vec = {}
        for k, c in v.items():
            axpy(out, c, dict(basis_bracket((i,), ctx.pairs[k])))
        return out

    spanning: dict[tuple, list] = {}
    for r in ctx.r_basis:
        w_r = weight(r)
        for i in range(n):
            spanning.setdefault(tuple(map(add, wt[i], w_r)), []).append((i, r))
    targets: dict[tuple, list[int]] = {}
    w_z = weight(ctx.z_vec)
    for j in range(n):
        targets.setdefault(tuple(map(add, wt[j], w_z)), []).append(j)
    for mu, js in sorted(targets.items()):
        block = echelon_basis(bracket(i, r) for i, r in spanning.get(mu, ()))
        if not all(block.contains(bracket(j, ctx.z_vec)) for j in js):
            return False
    return True
