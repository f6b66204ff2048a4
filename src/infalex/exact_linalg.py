"""Exact sparse linear algebra over Q and over cyclotomic extensions Q(zeta_m).

Everything here is exact: scalars are ``fractions.Fraction`` or
:class:`CyclotomicScalar`, and matrices are sparse dicts.  Elimination over
Q is fraction-free: rows are primitive integer vectors, and a pivot is
cleared by integer multiples of both rows (Bareiss, Math. Comp. 22, 1968).
Over Q(zeta_m) it is pivoted Gaussian elimination over the field.  No
floating point anywhere; ranks and kernels are therefore deterministic and
reproducible bit for bit.

Vectors are sparse dicts ``{index: scalar}`` with no stored zeros.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

from . import documents

Scalar = Union[Fraction, "CyclotomicScalar"]

ZERO = Fraction(0)
ONE = Fraction(1)


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return documents.fraction(x, "a scalar")
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


# ---------------------------------------------------------------------------
# cyclotomic arithmetic
# ---------------------------------------------------------------------------

# the largest cyclotomic order: each order keeps an m x phi(m) power table
MAX_CYCLOTOMIC_ORDER = 1000


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (low degree first, monic) of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ValueError("order must be >= 1")
    if m > MAX_CYCLOTOMIC_ORDER:
        raise ValueError(f"cyclotomic order must be at most {MAX_CYCLOTOMIC_ORDER}, got {m}")
    # x^m - 1 divided by the product of Phi_d over proper divisors d of m
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _polydiv_exact_int(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _polydiv_exact_int(num: list[int], den: list[int]) -> list[int]:
    # exact division of integer polynomials, den monic
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        out[k] = c
        if c:
            for i, dv in enumerate(den):
                num[k + i] -= c * dv
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def _phi_degree(m: int) -> int:
    return len(cyclotomic_polynomial(m)) - 1


@lru_cache(maxsize=None)
def _power_reductions(m: int) -> tuple[tuple[Fraction, ...], ...]:
    """x^k mod Phi_m for k in 0..m-1, each as a coefficient tuple of length
    deg.  Since x^m = 1 modulo Phi_m, x^k reduces to row k % m."""
    deg = _phi_degree(m)
    phi = cyclotomic_polynomial(m)
    rows: list[tuple[Fraction, ...]] = []
    cur = [ZERO] * deg
    cur[0] = ONE
    rows.append(tuple(cur))
    for _ in range(m - 1):
        nxt = [ZERO] + cur[:]
        lead = nxt.pop()
        if lead:
            for i in range(deg):
                nxt[i] -= lead * phi[i]
        cur = nxt
        rows.append(tuple(cur))
    return tuple(rows)


class CyclotomicScalar:
    """An element of Q(zeta_m) stored as a vector of rationals modulo Phi_m."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence[Fraction]):
        deg = _phi_degree(order)
        cs = [_to_fraction(c) for c in coeffs]
        if len(cs) > deg:
            raise ValueError("coefficient vector too long")
        cs += [ZERO] * (deg - len(cs))
        self.order = order
        self.coeffs = tuple(cs)

    @staticmethod
    def from_rational(order: int, value) -> "CyclotomicScalar":
        return CyclotomicScalar(order, [_to_fraction(value)])

    @staticmethod
    def zeta(order: int, power: int = 1) -> "CyclotomicScalar":
        """zeta_m^power, reduced modulo Phi_m."""
        return CyclotomicScalar(order, list(_power_reductions(order)[power % order]))

    # -- ring structure -----------------------------------------------------

    def _coerce(self, other) -> "CyclotomicScalar":
        if isinstance(other, CyclotomicScalar):
            if other.order != self.order:
                raise ValueError("mixed cyclotomic orders")
            return other
        return CyclotomicScalar.from_rational(self.order, other)

    def __add__(self, other):
        o = self._coerce(other)
        return CyclotomicScalar(self.order, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicScalar(self.order, [-a for a in self.coeffs])

    def __mul__(self, other):
        o = self._coerce(other)
        deg = len(self.coeffs)
        conv = [ZERO] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    conv[i + j] += a * b
        return CyclotomicScalar(self.order, _reduce_mod_phi(conv, self.order))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicScalar":
        if not self:
            raise ZeroDivisionError("cyclotomic division by zero")
        # extended Euclid in Q[x] against Phi_m (irreducible over Q),
        # tracking r_k = s_k * self mod Phi
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, s0 = phi, [ZERO]
        r1, s1 = _trim(list(self.coeffs)), [ONE]
        while len(r1) > 1:
            q, r = _polydivmod_q(r0, r1)
            r0, s0, r1, s1 = r1, s1, _trim(r), _trim(_polysub_q(s0, _polymul_q(q, s1)))
        if not r1[0]:
            raise ArithmeticError("gcd with cyclotomic polynomial is not a unit")
        inv = [x / r1[0] for x in s1]
        return CyclotomicScalar(self.order, _reduce_mod_phi(inv, self.order))

    def __truediv__(self, other):
        o = self._coerce(other)
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = CyclotomicScalar.from_rational(self.order, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparisons ---------------------------------------------------------

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, CyclotomicScalar):
            if self.order == other.order:
                return self.coeffs == other.coeffs
            # across orders only rational values can be equal, by value
            return not any(other.coeffs[1:]) and self == other.coeffs[0]
        if isinstance(other, (int, Fraction)):
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        return NotImplemented

    def __hash__(self):
        # a rational value must hash like the Fraction it equals
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"Cyc({self.order}, {[str(c) for c in self.coeffs]})"


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
    n = max(len(a), len(b))
    out = [ZERO] * n
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


def _reduce_mod_phi(coeffs: list[Fraction], order: int) -> list[Fraction]:
    """The polynomial with these coefficients (low degree first) modulo Phi_order."""
    table = _power_reductions(order)
    out = [ZERO] * _phi_degree(order)
    for k, c in enumerate(coeffs):
        if c:
            for i, x in enumerate(table[k % order]):
                if x:
                    out[i] += c * x
    return out


def promote(value, order: int | None):
    """Lift a rational into Q(zeta_order); identity when order is None."""
    if order is None:
        return _to_fraction(value)
    if isinstance(value, CyclotomicScalar):
        if value.order != order:
            raise ValueError("mixed cyclotomic orders")
        return value
    return CyclotomicScalar.from_rational(order, value)


# ---------------------------------------------------------------------------
# sparse echelon machinery
# ---------------------------------------------------------------------------

Vec = dict  # {index: scalar}


def axpy(target: Vec, c, source: Mapping) -> None:
    """target += c * source, in place; entries that cancel are removed.

    The one sparse-accumulate step of the package: works on any hashable
    keys and any exact scalars (``Fraction``, ``CyclotomicScalar``, int).
    Multiplying by c is skipped when c == 1.
    """
    scale = c != 1
    for k, x in source.items():
        if scale:
            x = c * x
        cur = target.get(k)
        nv = x if cur is None else cur + x
        if nv:
            target[k] = nv
        elif cur is not None:
            del target[k]


def _lift(v: Mapping) -> tuple[Vec, int]:
    """(r, d) with r = d * v and no zeros: a rational v is scaled by d, the
    lcm of its denominators, to integers.  A vector with a cyclotomic entry
    is promoted to its Q(zeta_m), with d = 1."""
    r = {k: x for k, x in v.items() if x}
    cyc = next((x for x in r.values() if isinstance(x, CyclotomicScalar)), None)
    if cyc is not None:
        return {k: promote(x, cyc.order) for k, x in r.items()}, 1
    d = lcm(*[x.denominator for x in r.values()])
    return {k: x.numerator * (d // x.denominator) for k, x in r.items()}, d


def _clear(r: Vec, p, row: Vec) -> int:
    """Clear position p of r against the row with lead p, in place: r <- s*r - t*row
    with s = b/g, t = r[p]/g, g = gcd(r[p], b) for lead b; returns s.  A row
    with lead 1, such as every cyclotomic row, gives s = 1 and t = r[p]."""
    a, b = r[p], row[p]
    if b == 1:
        axpy(r, -a, row)
        return 1
    g = gcd(a, b)
    s = b // g
    if s != 1:
        for k in r:
            r[k] *= s
    axpy(r, -(a // g), row)
    return s


def _normalize(r: Vec, lead) -> Vec:
    """r as a stored row: an integer row divided by its content, signed so
    that the lead is positive; a cyclotomic row scaled to lead 1."""
    pivot = r[lead]
    if isinstance(pivot, int):
        g = gcd(*r.values())
        if pivot < 0:
            g = -g
        return r if g == 1 else {k: x // g for k, x in r.items()}
    if pivot != 1:   # one inverse per row: a cyclotomic one runs extended Euclid
        inv = ONE / pivot
        return {k: x * inv for k, x in r.items()}
    return r


def _over(x, d: int):
    """x / d for an integer x, as a Fraction; a cyclotomic x has d = 1."""
    return Fraction(x, d) if isinstance(x, int) else x


class EchelonBasis:
    """Echelon basis of a span of sparse vectors, grown one vector at a time.

    Rows are keyed by their lead (least index) and never mutated in place.
    One basis holds one kind of scalar, as a RationalMatrix does.  A rational
    row is stored as a primitive integer vector with a positive lead, a
    cyclotomic row normalized to 1 at its lead; one elimination step,
    ``_clear``, serves both, and every value read out is a ``Fraction`` or a
    ``CyclotomicScalar``.  Callers that only need a spanning set of the span
    (``_ideal_echelon``, ``nilpotent_transport``) read ``rows.values()``
    directly, which scaled rows still are.

    rank, free and contains need only the leads, so add does no back-reduction;
    vectors, coordinates and kernel_coefficients read inter-reduced rows.
    """

    def __init__(self):
        self.rows: dict[int, Vec] = {}            # lead index -> stored row
        self._reduced = True                      # no row carries another lead

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: Mapping, *, scaled: bool = False):
        """The canonical representative of v modulo the span: the one supported
        on non-pivot positions.  With scaled=True, the pair (d * it, d), whose
        entries are integers for a rational v: add and contains read that form
        and skip the division.  A row with lead p only touches positions above
        p, so pivots are eliminated in increasing order, through a heap."""
        r, d = _lift(v)
        rows, fill = self.rows, not self._reduced
        heap = [k for k in r if k in rows]
        heapify(heap)
        while heap:
            p = heappop(heap)
            if p in r:
                if fill:  # a row not yet inter-reduced can bring in later pivots
                    for k in (rows[p].keys() & rows.keys()) - r.keys():
                        heappush(heap, k)
                d *= _clear(r, p, rows[p])
        if scaled:
            return r, d
        return {k: _over(x, d) for k, x in r.items()}

    def add(self, v: Mapping) -> bool:
        """Insert v; returns True when the rank grew."""
        r, _d = self.reduce(v, scaled=True)
        if not r:
            return False
        lead = min(r)
        self.rows[lead] = _normalize(r, lead)
        self._reduced = False
        return True

    def _inter_reduce(self) -> None:
        """Clear every row of the other leads, once after any add.  Rows go by
        descending lead, so each is cleared against reduced rows in one pass."""
        if not self._reduced:
            rows = self.rows
            for lead in sorted(rows, reverse=True):
                row = rows[lead]
                hits = [k for k in row if k != lead and k in rows]
                if hits:
                    new = dict(row)
                    for k in hits:
                        _clear(new, k, rows[k])
                    rows[lead] = _normalize(new, lead)
            self._reduced = True

    def copy(self) -> "EchelonBasis":
        """A basis of the same span that grows on its own.  The rows are
        shared, which is safe because no stored row is mutated in place."""
        eb = EchelonBasis()
        eb.rows, eb._reduced = dict(self.rows), self._reduced
        return eb

    def contains(self, v: Mapping) -> bool:
        return not self.reduce(v, scaled=True)[0]

    def free(self, n: int) -> dict[int, int]:
        """The quotient of positions 0..n-1 by the span: each non-pivot
        position, in increasing order, mapped to its index in the quotient
        basis."""
        rows = self.rows
        return {k: t for t, k in enumerate(k for k in range(n) if k not in rows)}

    def coordinates(self, v: Mapping, pos: Mapping[int, int]) -> Vec:
        """Coordinates of the class of v in the quotient basis pos = free(n).

        The reduced representative is supported on non-pivot positions only,
        so the coordinates are its entries renumbered by pos.
        """
        self._inter_reduce()
        return {pos[k]: x for k, x in self.reduce(v).items()}

    def vectors(self) -> list[Vec]:
        """The reduced row echelon form: inter-reduced rows with lead 1."""
        self._inter_reduce()
        return [{k: _over(x, row[l]) for k, x in row.items()}
                for l, row in sorted(self.rows.items())]

    def kernel_coefficients(self, free_col: int) -> Vec:
        """Kernel vector of the row span carrying 1 at the given free column.

        The result is supported on the free column and pivot columns only;
        with inter-reduced rows this is direct read-off.
        """
        self._inter_reduce()
        v: Vec = {free_col: ONE}
        for l, row in self.rows.items():
            c = row.get(free_col)
            if c:
                v[l] = _over(-c, row[l])
        return v


def echelon_basis(vectors: Iterable[Mapping]) -> EchelonBasis:
    eb = EchelonBasis()
    for v in vectors:
        eb.add(v)
    return eb


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class RationalMatrix:
    """Sparse exact matrix; homogeneous scalar kind (rational or one Q(zeta_m))."""

    __slots__ = ("rows", "cols", "entries", "_columns")

    def __init__(self, rows: int, cols: int, entries: Mapping | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.rows = rows
        self.cols = cols
        cleaned: dict[tuple[int, int], Scalar] = {}
        order = None
        seen_rational = False
        for (i, j), v in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i},{j}) out of bounds for {rows}x{cols}")
            if isinstance(v, CyclotomicScalar):
                if order is None:
                    order = v.order
                elif order != v.order:
                    raise ValueError("mixed cyclotomic orders in one matrix")
            else:
                v = _to_fraction(v)
                seen_rational = True
            if v:
                cleaned[(i, j)] = v
        if order is not None and seen_rational:
            cleaned = {k: promote(v, order) for k, v in cleaned.items()}
        self.entries = cleaned
        self._columns = None   # column_vectors(), kept by matvec and matmul

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_rows(data: Sequence[Sequence]) -> "RationalMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                vv = v if isinstance(v, CyclotomicScalar) else _to_fraction(v)
                if vv:
                    entries[(i, j)] = vv
        return RationalMatrix(rows, cols, entries)

    @staticmethod
    def from_columns(columns: Sequence[Mapping], rows: int) -> "RationalMatrix":
        entries = {}
        for j, col in enumerate(columns):
            for i, v in col.items():
                if v:
                    entries[(i, j)] = v
        return RationalMatrix(rows, len(columns), entries)

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix(n, n, {(i, i): ONE for i in range(n)})

    @staticmethod
    def zeros(rows: int, cols: int) -> "RationalMatrix":
        return RationalMatrix(rows, cols, {})

    # -- access ----------------------------------------------------------------

    def row_vectors(self) -> list[Vec]:
        out: list[Vec] = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def column_vectors(self) -> list[Vec]:
        out: list[Vec] = [dict() for _ in range(self.cols)]
        for (i, j), v in self.entries.items():
            out[j][i] = v
        return out

    def transpose(self) -> "RationalMatrix":
        """Test oracle: rank(m) == rank(m.transpose()) checks the echelon
        code on both orientations; no CLI path transposes."""
        return RationalMatrix(self.cols, self.rows,
                              {(j, i): v for (i, j), v in self.entries.items()})

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, RationalMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        entries = dict(self.entries)
        axpy(entries, 1, other.entries)
        return RationalMatrix(self.rows, self.cols, entries)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + other.scale(-1)

    def scale(self, c) -> "RationalMatrix":
        if not c:
            return RationalMatrix.zeros(self.rows, self.cols)
        return RationalMatrix(self.rows, self.cols,
                              {k: c * v for k, v in self.entries.items()})

    def _cached_columns(self) -> list[Vec]:
        # entries never change after construction, so the columns are built once
        if self._columns is None:
            self._columns = self.column_vectors()
        return self._columns

    def matvec(self, v: Mapping) -> Vec:
        return act_vec(self._cached_columns(), v)

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        left_cols = self._cached_columns()
        entries: dict[tuple[int, int], Scalar] = {}
        for j, col in enumerate(other.column_vectors()):
            for i, x in act_vec(left_cols, col).items():
                entries[(i, j)] = x
        return RationalMatrix(self.rows, other.cols, entries)

    # -- rank / kernel / membership ------------------------------------------------

    def rank(self) -> int:
        # echelonize whichever orientation has fewer vectors
        if self.cols <= self.rows:
            vecs = self.column_vectors()
        else:
            vecs = self.row_vectors()
        return echelon_basis(vecs).rank

    def kernel_basis(self) -> list[Vec]:
        """Exact basis of the right kernel, canonical (RREF) form.

        Free coordinates carry 1; basis vectors are ordered by free column.
        """
        return [v for _f, v in self.kernel_basis_with_free()]

    def kernel_basis_with_free(self) -> list[tuple[int, Vec]]:
        """Kernel basis together with each vector's own free column.

        Basis vector for free column f has coefficient 1 at f and 0 at every
        other free column, so coordinates of a kernel element are read off at
        the free positions.
        """
        # stacked operators leave most rows empty, and those span nothing
        eb = echelon_basis(v for v in self.row_vectors() if v)
        return [(f, eb.kernel_coefficients(f)) for f in eb.free(self.cols)]

    def column_span(self) -> EchelonBasis:
        return echelon_basis(self.column_vectors())


def act_vec(cols: Sequence[Mapping], v: Mapping) -> Vec:
    """sum_j v[j] * cols[j]: the matrix with sparse columns cols applied to v."""
    out: Vec = {}
    for j, c in v.items():
        if c:
            axpy(out, c, cols[j])
    return out
