"""Exact sparse linear algebra over Q and over cyclotomic extensions Q(zeta_m).

Everything here is exact: scalars are ``fractions.Fraction`` or
:class:`CyclotomicScalar`, matrices are sparse dicts, and elimination is
plain pivoted Gaussian elimination over the field.  No floating point
anywhere; ranks and kernels are therefore deterministic and reproducible
bit for bit.

Vectors are sparse dicts ``{index: scalar}`` with no stored zeros.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[Fraction, "CyclotomicScalar"]

ZERO = Fraction(0)
ONE = Fraction(1)


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


# ---------------------------------------------------------------------------
# cyclotomic arithmetic
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (low degree first, monic) of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ValueError("order must be >= 1")
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
def _power_reductions(m: int, upto: int) -> tuple[tuple[Fraction, ...], ...]:
    """x^k mod Phi_m for k in 0..upto, each as a coefficient tuple of length deg."""
    deg = _phi_degree(m)
    phi = cyclotomic_polynomial(m)
    rows: list[tuple[Fraction, ...]] = []
    cur = [ZERO] * deg
    cur[0] = ONE
    rows.append(tuple(cur))
    for _ in range(upto):
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
        power %= order
        deg = _phi_degree(order)
        table = _power_reductions(order, max(power, 2 * deg))
        return CyclotomicScalar(order, list(table[power]))

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

    def __sub__(self, other):
        o = self._coerce(other)
        return CyclotomicScalar(self.order, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        return self._coerce(other) - self

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
        table = _power_reductions(self.order, 2 * deg - 2)
        out = [ZERO] * deg
        for k, c in enumerate(conv):
            if c:
                row = table[k]
                for i in range(deg):
                    if row[i]:
                        out[i] += c * row[i]
        return CyclotomicScalar(self.order, out)

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
    deg = _phi_degree(order)
    table = _power_reductions(order, len(coeffs) - 1)
    out = [ZERO] * deg
    for k, c in enumerate(coeffs):
        if c:
            for i in range(deg):
                if table[k][i]:
                    out[i] += c * table[k][i]
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


class EchelonBasis:
    """Incrementally maintained reduced echelon basis of a span of sparse vectors.

    Rows are normalized to leading coefficient 1 and fully inter-reduced, so
    reduction of a vector is a single pass over the pivot positions it
    carries and reduced representatives are canonical.  A column-to-rows
    index keeps the back-reduction on insert proportional to the rows that
    actually contain the new pivot.
    """

    def __init__(self):
        self.rows: dict[int, Vec] = {}            # lead index -> normalized row
        self._touch: dict[int, set[int]] = {}     # column -> leads of rows using it

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: Mapping) -> Vec:
        """Return the canonical representative of v modulo the span.

        Rows are inter-reduced: a stored row carries no other row's pivot,
        so each pivot position present in v is eliminated exactly once.
        """
        r = {k: x for k, x in v.items() if x}
        for p in sorted(r.keys() & self.rows.keys()):
            c = r.get(p)
            if c:
                axpy(r, -c, self.rows[p])
        return r

    def _axpy_indexed(self, l: int, target: Vec, c, row: Vec):
        touch = self._touch
        for k, x in row.items():
            cur = target.get(k)
            nv = c * x if cur is None else cur + c * x
            if nv:
                if cur is None:
                    touch.setdefault(k, set()).add(l)
                target[k] = nv
            elif cur is not None:
                del target[k]
                touch[k].discard(l)

    def add(self, v: Mapping) -> bool:
        """Insert v; returns True when the rank grew."""
        r = self.reduce(v)
        if not r:
            return False
        lead = min(r)
        pivot = r[lead]
        row = {k: x / pivot for k, x in r.items()}
        # clear the new pivot column from the rows that contain it
        for l in list(self._touch.get(lead, ())):
            existing = self.rows[l]
            c = existing.get(lead)
            if c:
                self._axpy_indexed(l, existing, -c, row)
        self.rows[lead] = row
        touch = self._touch
        for k in row:
            touch.setdefault(k, set()).add(lead)
        return True

    def contains(self, v: Mapping) -> bool:
        return not self.reduce(v)

    def leads(self) -> list[int]:
        return sorted(self.rows)

    def vectors(self) -> list[Vec]:
        return [dict(self.rows[l]) for l in sorted(self.rows)]

    def kernel_coefficients(self, free_col: int, cols: int) -> Vec:
        """Kernel vector of the row span carrying 1 at the given free column.

        The result is supported on the free column and pivot columns only;
        with inter-reduced rows this is direct read-off.
        """
        v: Vec = {free_col: ONE}
        for l, row in self.rows.items():
            c = row.get(free_col)
            if c:
                v[l] = -c
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

    __slots__ = ("rows", "cols", "entries")

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

    def entry(self, i: int, j: int):
        return self.entries.get((i, j), ZERO)

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

    def matvec(self, v: Mapping) -> Vec:
        return act_vec(self.column_vectors(), v)

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        left_cols = self.column_vectors()
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
        pivot_set = set(eb.rows)
        return [(f, eb.kernel_coefficients(f, self.cols))
                for f in range(self.cols) if f not in pivot_set]

    def column_span(self) -> EchelonBasis:
        return echelon_basis(self.column_vectors())


def act_vec(cols: Sequence[Mapping], v: Mapping) -> Vec:
    """sum_j v[j] * cols[j]: the matrix with sparse columns cols applied to v."""
    out: Vec = {}
    for j, c in v.items():
        if c:
            axpy(out, c, cols[j])
    return out


def solve_membership(m: RationalMatrix, v: Mapping) -> bool:
    """True iff v lies in the column span of m."""
    for i in v:
        if not (0 <= i < m.rows):
            raise ValueError(f"vector coordinate {i} out of range for {m.rows} rows")
    return m.column_span().contains(v)
