"""Finite-dimensional modules over Laurent rings with unipotent action, the
nilpotence test, and the exp/log change of rings onto Sym.

A Laurent-side module is a family of commuting invertible matrices T_i; the
augmentation ideal is generated by the T_i - 1 and the module is nilpotent
when the filtration M, I M, I^2 M, ... reaches zero.  For unipotent T_i the
logarithms X_i = log T_i are nilpotent, commute, and satisfy exp X_i = T_i
exactly; annihilator exponents are preserved under the transport.  Log and
exp are one power series from k = 0, whose powers are summed as integer
numerators over one common denominator and divided once; exp's identity is
its constant term on the diagonal of that sum.  T - 1 subtracts T's
denominator on the diagonal of its numerators.  make checks commutation
pair by pair and column by column on the integer numerators, stopping at
the first column that differs, with no product matrix built.

Exponent conventions: the zero module has exponent 0; a nonzero module with
all T_i = 1 has exponent 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from . import documents
from .errors import InternalInconsistencyError
from .exact_linalg import ZERO, EchelonBasis, RationalMatrix, act_vec, axpy


def _check_family(dimension: int, matrices, *, invertible: bool) -> tuple[RationalMatrix, ...]:
    mats = tuple(matrices)
    for m in mats:
        if not isinstance(m, RationalMatrix) or m.rows != dimension or m.cols != dimension:
            raise ValueError(f"expected square {dimension}-dim matrices")
        if invertible and m.rank() != dimension:
            raise ValueError("action matrices must be invertible")
    # X_i X_j = X_j X_i exactly when the integer numerators A_i, A_j of
    # X_i = A_i / d_i and X_j = A_j / d_j commute: column c of A_i A_j is
    # A_i applied to column c of A_j.  A column empty in both is 0 on both sides.
    cols = [m.numerator_columns() for m in mats]
    for i, a in enumerate(cols):
        for b in cols[i + 1:]:
            for ac, bc in zip(a, b):
                if (ac or bc) and act_vec(a, bc) != act_vec(b, ac):
                    raise ValueError("action matrices must commute pairwise")
    return mats


@dataclass(frozen=True)
class FinDimLaurentModule:
    dimension: int
    actions: tuple[RationalMatrix, ...]

    @staticmethod
    def make(dimension: int, matrices) -> "FinDimLaurentModule":
        return FinDimLaurentModule(dimension, _check_family(dimension, matrices, invertible=True))

    @staticmethod
    def from_json(doc) -> "FinDimLaurentModule":
        """Document shape: {"dimension": d, "matrices": [[[entry, ...], ...], ...]},
        entries integers or "p/q" strings."""
        doc = documents.load(doc, "module")
        dim = documents.field(doc, "dimension", documents.integer)
        if dim < 0:
            raise ValueError(f"field dimension must be >= 0, got {dim}")
        mats = []
        for k, m in enumerate(documents.field(doc, "matrices", documents.array)):
            rows = documents.array(m, f"matrices[{k}]")
            mats.append(RationalMatrix.from_rows([
                [documents.rational(x, f"matrices[{k}][{i}][{j}]")
                 for j, x in enumerate(documents.array(row, f"matrices[{k}][{i}]"))]
                for i, row in enumerate(rows)]))
        return FinDimLaurentModule.make(dim, mats)


@dataclass(frozen=True)
class FinDimSymModule:
    dimension: int
    actions: tuple[RationalMatrix, ...]

    @staticmethod
    def make(dimension: int, matrices) -> "FinDimSymModule":
        return FinDimSymModule(dimension, _check_family(dimension, matrices, invertible=False))


def _annihilator_exponent(dimension: int, steps) -> int | None:
    """Least q with I^q M = 0 for the ideal I the steps N_1, ..., N_k
    generate, or None when the filtration M, I M, I^2 M, ... stabilizes
    above zero.  The steps must commute.

    Then I^(q+1) M is the sum over k of N_k S_k, where S_k is spanned by
    the products N^a v with |a| = q whose steps are all <= k: each monomial
    of degree q + 1 is written once, with its largest step applied last.
    One echelon basis per level takes the images step by step, and right
    after step k its rows span S_k of the next level.  A step is applied as
    its integer numerator: scaling a step by a positive constant leaves
    every I^q M unchanged, so the spans stay integer throughout.  A vector
    whose support misses every nonzero column of a step has image zero and
    is skipped."""
    cols = [m.numerator_columns() for m in steps]
    supports = [{j for j, c in enumerate(col) if c} for col in cols]
    # each S_k of M is M, of whose unit vectors only those in step k's
    # support have a nonzero image
    spans = [[{i: 1} for i in sorted(s)] for s in supports]
    rank, q = dimension, 0
    while rank:
        eb = EchelonBasis()
        for k, (col, support) in enumerate(zip(cols, supports)):
            for v in spans[k]:
                if not support.isdisjoint(v):
                    eb.add(act_vec(col, v))
            spans[k] = list(eb.rows.values())
        if eb.rank == rank:
            return None
        rank, q = eb.rank, q + 1
    return q


def is_nilpotent(m: FinDimLaurentModule) -> tuple[bool, int | None]:
    """Whether the ideal (T_i - 1) is nilpotent on m; the least q with
    I^q M = 0 when it is (0 for the zero module, 1 for trivial nonzero).
    The T_i must commute, so that the steps T_i - 1 do: make checks it, and
    exp_transport gives commuting T_i by construction."""
    q = _annihilator_exponent(m.dimension, [_minus_identity(t) for t in m.actions])
    return q is not None, q


def _minus_identity(t: RationalMatrix) -> RationalMatrix:
    """T - 1 over T's own denominator: den is subtracted on the diagonal of
    T's numerators, and no identity matrix is built.  The numerators stay
    coprime to den (an entry that becomes 0 was den itself), so nothing is
    divided out."""
    num, den = dict(t.num), t.den
    for i in range(t.rows):
        x = num.get((i, i), 0) - den
        if x:
            num[i, i] = x
        else:
            del num[i, i]
    return RationalMatrix.from_integers(t.rows, t.cols, num, den)


def _nilpotent_series(x: RationalMatrix, coeff, kind: str):
    """sum_{k>=0} coeff(k) X^k, with X^0 = 1; ValueError when X^k != 0 for
    some k > n, i.e. when X is not nilpotent.  The powers are summed as
    integer numerators over one common denominator and divided once; the
    constant term goes on the diagonal of that sum, so no identity matrix
    is built."""
    n = x.rows
    terms = []
    power, k = x, 1
    while not power.is_zero():
        if k > n:
            raise ValueError(f"matrix is not {kind}")
        terms.append((coeff(k), power))
        power = x.matmul(power)
        k += 1
    c0 = coeff(0)
    den = lcm(c0.denominator, *[c.denominator * p.den for c, p in terms])
    d0 = c0.numerator * (den // c0.denominator)
    num = {(i, i): d0 for i in range(n)} if d0 else {}
    for c, p in terms:
        axpy(num, c.numerator * (den // (c.denominator * p.den)), p.num)
    return RationalMatrix.from_integers(n, n, num, den)


def _nilpotent_log(t: RationalMatrix) -> RationalMatrix:
    return _nilpotent_series(_minus_identity(t),
                             lambda k: Fraction((-1) ** (k + 1), k) if k else ZERO,
                             "unipotent")


def matrix_exp_nilpotent(x: RationalMatrix) -> RationalMatrix:
    return _nilpotent_series(x, lambda k: Fraction(1, factorial(k)), "nilpotent")


def log_transport(m: FinDimLaurentModule) -> FinDimSymModule:
    """X_i = log T_i for a unipotent family; exp X_i = T_i holds exactly.

    The T_i commute (make checks it), so the ideal (T_i - 1) is nilpotent
    exactly when each T_i - 1 is, and the log series itself rejects a family
    that is not unipotent with ValueError.  Each X_i is a polynomial in T_i,
    so the X_i commute too and the result needs none of make's checks."""
    xs = []
    for t in m.actions:
        x = _nilpotent_log(t)
        if matrix_exp_nilpotent(x) != t:
            raise InternalInconsistencyError("exp(log T) != T")
        xs.append(x)
    return FinDimSymModule(m.dimension, tuple(xs))


def exp_transport(m: FinDimSymModule) -> FinDimLaurentModule:
    """T_i = exp X_i for a commuting nilpotent family (make checks it).

    Each T_i is a polynomial in X_i, so the T_i commute, and each is
    unipotent, hence invertible: the result needs none of make's checks."""
    return FinDimLaurentModule(m.dimension,
                               tuple(matrix_exp_nilpotent(x) for x in m.actions))


@dataclass(frozen=True)
class AnnihilatorMatch:
    matched: bool
    vacuous: bool
    laurent_exponent: int | None     # least q with I^q M = 0, None if beyond range
    dims_first_zero: int | None      # least degree with vanishing cokernel dim


def annihilator_exponent_match(m: FinDimLaurentModule, dims) -> AnnihilatorMatch:
    """Compare the annihilator exponent of m against the first vanishing
    degree of a graded dimension table (degrees 0..N).

    Vanishing beyond both ranges is reported as a vacuous match.  A module
    annihilated within range while the table never vanishes is inconsistent
    data and raises.
    """
    dims = list(dims)
    n_max = len(dims) - 1
    nilpotent, q_l = is_nilpotent(m)
    first_zero = next((q for q, d in enumerate(dims) if d == 0), None)
    in_range = nilpotent and q_l is not None and q_l <= n_max
    if first_zero is None:
        if in_range:
            raise InternalInconsistencyError(
                f"module annihilated at exponent {q_l} but dims {dims} never vanish")
        return AnnihilatorMatch(True, True, q_l if nilpotent else None, None)
    if not in_range:
        return AnnihilatorMatch(False, False, q_l if nilpotent else None, first_zero)
    return AnnihilatorMatch(q_l == first_zero, False, q_l, first_zero)
