"""Finite-dimensional modules over Laurent rings with unipotent action, the
nilpotence test, and the exp/log change of rings onto Sym.

A Laurent-side module is a family of commuting invertible matrices T_i; the
augmentation ideal is generated by the T_i - 1 and the module is nilpotent
when the filtration M, I M, I^2 M, ... reaches zero.  For unipotent T_i the
logarithms X_i = log T_i are nilpotent, commute, and satisfy exp X_i = T_i
exactly; annihilator exponents are preserved under the transport.

Exponent conventions: the zero module has exponent 0; a nonzero module with
all T_i = 1 has exponent 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import documents
from .errors import InternalInconsistencyError
from .exact_linalg import EchelonBasis, RationalMatrix


def _check_family(dimension: int, matrices, *, invertible: bool) -> tuple[RationalMatrix, ...]:
    mats = tuple(matrices)
    for m in mats:
        if not isinstance(m, RationalMatrix) or m.rows != dimension or m.cols != dimension:
            raise ValueError(f"expected square {dimension}-dim matrices")
        if invertible and m.rank() != dimension:
            raise ValueError("action matrices must be invertible")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if mats[i].matmul(mats[j]) != mats[j].matmul(mats[i]):
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


def _augmentation_filtration(dimension: int, step_mats: list[RationalMatrix]) -> list[int]:
    """Dimensions of M, I M, I^2 M, ... until stable (I generated by the steps)."""
    current = EchelonBasis()
    for i in range(dimension):
        current.add({i: Fraction(1)})
    dims = [current.rank]
    while True:
        nxt = EchelonBasis()
        for v in current.rows.values():
            for m in step_mats:
                nxt.add(m.matvec(v))
        dims.append(nxt.rank)
        if nxt.rank == current.rank:
            break
        current = nxt
        if nxt.rank == 0:
            break
    return dims


def is_nilpotent(m: FinDimLaurentModule) -> tuple[bool, int | None]:
    """Whether the ideal (T_i - 1) is nilpotent on m; the least q with
    I^q M = 0 when it is (0 for the zero module, 1 for trivial nonzero)."""
    steps = [t - RationalMatrix.identity(m.dimension) for t in m.actions]
    dims = _augmentation_filtration(m.dimension, steps)
    if dims[-1] != 0:
        return False, None
    return True, dims.index(0)


def _nilpotent_log(t: RationalMatrix) -> RationalMatrix:
    n = t.rows
    nmat = t - RationalMatrix.identity(n)
    out = RationalMatrix.zeros(n, n)
    power = nmat
    k = 1
    while not power.is_zero():
        if k > n:
            raise ValueError("matrix is not unipotent")
        out = out + power.scale(Fraction((-1) ** (k + 1), k))
        power = power.matmul(nmat)
        k += 1
    return out


def matrix_exp_nilpotent(x: RationalMatrix) -> RationalMatrix:
    n = x.rows
    out = RationalMatrix.identity(n)
    power = RationalMatrix.identity(n)
    k = 1
    while True:
        power = power.matmul(x)
        if power.is_zero():
            break
        if k > n:
            raise ValueError("matrix is not nilpotent")
        out = out + power.scale(Fraction(1, factorial(k)))
        k += 1
    return out


def log_transport(m: FinDimLaurentModule) -> FinDimSymModule:
    """X_i = log T_i for a unipotent family; exp X_i = T_i holds exactly."""
    nilpotent, _q = is_nilpotent(m)
    if not nilpotent:
        raise ValueError("log transport requires a unipotent (nilpotent) module")
    xs = []
    for t in m.actions:
        x = _nilpotent_log(t)
        if matrix_exp_nilpotent(x) != t:
            raise InternalInconsistencyError("exp(log T) != T")
        xs.append(x)
    return FinDimSymModule.make(m.dimension, xs)


def exp_transport(m: FinDimSymModule) -> FinDimLaurentModule:
    """T_i = exp X_i for a commuting nilpotent family."""
    return FinDimLaurentModule.make(m.dimension, [matrix_exp_nilpotent(x) for x in m.actions])


def sym_annihilator_exponent(m: FinDimSymModule) -> int | None:
    """Least q with (X_1, ..., X_k)^q M = 0, or None when not nilpotent."""
    dims = _augmentation_filtration(m.dimension, list(m.actions))
    if dims[-1] != 0:
        return None
    return dims.index(0)


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
