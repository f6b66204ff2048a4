"""Exact sparse linear algebra over Q and over cyclotomic extensions Q(zeta_m).

Everything here is exact: scalars enter as ``int``, ``fractions.Fraction``
or :class:`CyclotomicScalar`, an integer vector modulo Phi_m over one
denominator whose arithmetic runs on ints (text becomes a rational in
``documents`` only).  A :class:`RationalMatrix` holds rationals only, stored
the same way, as a sparse dict of integer numerators over one positive
denominator in lowest terms: its products run on ints and divide once.
Q(zeta_m) lives in scalars, sparse vectors and the rows of an
:class:`EchelonBasis`.
Elimination over Q is fraction-free: rows are primitive integer vectors,
and a pivot is cleared by integer multiples of both rows (Bareiss, Math.
Comp. 22, 1968), so ``reduce`` returns the remainder only up to a
positive factor.  Over Q(zeta_m) it is pivoted Gaussian elimination over
the field: rows keep lead 1, with one integer inverse per stored row.
``axpy`` is the one accumulate step, of maps and vectors alike, and
``_clear`` the one elimination step: it clears a pivot in one pass over the
row and queues the pivots that row brings in, so ``reduce`` has one path.
A matrix's rank reads its column span, whatever its shape.  Its empty
columns are all the one read-only ``EMPTY`` mapping, a product skips the
empty columns of its right factor, and ``act_vec`` the entries of v whose
column is empty.  :class:`LazyColumns` is a sequence, such as the columns
of one operator, whose entry j is built on its first read and kept, so a
caller that reads a few entries builds only those.  No floating point
anywhere; ranks and kernels are therefore deterministic and reproducible
bit for bit.

Vectors are sparse dicts ``{index: scalar}`` with no stored zeros.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from types import MappingProxyType

ZERO = Fraction(0)
ONE = Fraction(1)
EMPTY: Mapping = MappingProxyType({})   # the one empty column, shared and read-only
_INTS = frozenset((int,))   # _INTS.issuperset(map(type, xs)): all int, in one C-level scan


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


# ---------------------------------------------------------------------------
# cyclotomic arithmetic
# ---------------------------------------------------------------------------

# the largest cyclotomic order: each order keeps an m x phi(m) power table
MAX_CYCLOTOMIC_ORDER = 1000


@lru_cache(maxsize=64)
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


def _phi_degree(m: int) -> int:
    return len(cyclotomic_polynomial(m)) - 1


@lru_cache(maxsize=64)
def _power_reductions(m: int) -> tuple[tuple[int, ...], ...]:
    """x^k mod Phi_m for k in 0..m-1, each as an integer coefficient tuple of
    length deg (Phi_m is monic and integral).  Since x^m = 1 modulo Phi_m,
    x^k reduces to row k % m."""
    deg = _phi_degree(m)
    phi = cyclotomic_polynomial(m)
    cur = [1] + [0] * (deg - 1)
    rows = [tuple(cur)]
    for _ in range(m - 1):
        cur = [0] + cur
        lead = cur.pop()
        if lead:
            for i in range(deg):
                cur[i] -= lead * phi[i]
        rows.append(tuple(cur))
    return tuple(rows)


def _polymul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int], int]:
    """(q, r, s) with s * a = q * b + r and deg r < deg b, for integer
    polynomials (low degree first, b with a nonzero lead).  Each step scales
    by only the part of b's lead that the coefficient it clears lacks."""
    db, lead = len(b) - 1, b[-1]
    r, q, s = list(a), [0] * (len(a) - db), 1
    for k in range(len(a) - db - 1, -1, -1):
        c = r[k + db]
        if c:
            g = gcd(c, lead)
            u, t = lead // g, c // g
            if u != 1:
                r = [x * u for x in r[:k + db + 1]]
                q = [x * u for x in q]
                s *= u
            q[k] = t
            for i, y in enumerate(b, k):
                r[i] -= t * y
    r = r[:db]
    while len(r) > 1 and not r[-1]:
        r.pop()
    return q, r, s


@lru_cache(maxsize=256)
def _unit_cofactor(order: int, num: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(s, c) with num * s = c mod Phi_order and c > 0, so 1/(num/d) = d * s / c:
    extended Euclid in Z[x] against Phi_m (irreducible over Q) by
    pseudo-remainders, keeping r_k = s_k * num mod Phi_m with the content of
    (r_k, s_k) taken out jointly (Cohen, GTM 138, 3.3).  Cached by value:
    the eliminations a torsion sweep runs over Q(zeta_m), one per member
    orbit, meet the same pivots again (53 of the 72 inverses in three depth-1
    sweeps of F_2 x F_2 at m = 5 are repeats)."""
    r0, s0, r1, s1 = list(cyclotomic_polynomial(order)), [0], list(num), [1]
    while len(r1) > 1 and not r1[-1]:
        r1.pop()
    while len(r1) > 1:
        q, r, s = _pseudo_divmod(r0, r1)
        t = _polymul(q, s1)
        t = [-x for x in t] + [0] * (len(s0) - len(t))
        for i, x in enumerate(s0):
            t[i] += s * x
        g = gcd(*r, *t)
        if g != 1:
            r, t = [x // g for x in r], [x // g for x in t]
        r0, s0, r1, s1 = r1, s1, r, t
    c = r1[0]
    if not c:
        raise ArithmeticError("gcd with cyclotomic polynomial is not a unit")
    return (tuple(s1), c) if c > 0 else (tuple(-x for x in s1), -c)


class CyclotomicScalar:
    """An element of Q(zeta_m): an integer coefficient vector num modulo Phi_m
    over one positive denominator den, in lowest terms (gcd(den, *num) == 1,
    zero is all zeros over 1), so that equal values are stored alike.  Ring
    operations run on ints and divide by one gcd."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs: Sequence[Fraction]):
        deg = _phi_degree(order)
        cs = [_to_fraction(c) for c in coeffs]
        if len(cs) > deg:
            raise ValueError("coefficient vector too long")
        den = lcm(*[c.denominator for c in cs])
        num = [c.numerator * (den // c.denominator) for c in cs]
        self.order, self.num, self.den = order, tuple(num + [0] * (deg - len(num))), den

    @staticmethod
    def _lowest(order: int, num: Sequence[int], den: int) -> "CyclotomicScalar":
        """num / den for den > 0, divided by gcd(den, *num)."""
        g = gcd(den, *num)
        if g != 1:
            num, den = [x // g for x in num], den // g
        out = object.__new__(CyclotomicScalar)
        out.order, out.num, out.den = order, tuple(num), den
        return out

    @staticmethod
    def from_polynomial(order: int, poly: Sequence[int], den: int = 1) -> "CyclotomicScalar":
        """sum_k poly[k] zeta_m^k / den for integers poly[k] and den > 0,
        reduced modulo Phi_m once through the table of x^k mod Phi_m."""
        deg = _phi_degree(order)
        num = list(poly[:deg])
        num += [0] * (deg - len(num))
        table = _power_reductions(order)
        for k in range(deg, len(poly)):
            c = poly[k]
            if c:
                for i, x in enumerate(table[k % order]):
                    if x:
                        num[i] += c * x
        return CyclotomicScalar._lowest(order, num, den)

    @staticmethod
    def from_rational(order: int, value) -> "CyclotomicScalar":
        return CyclotomicScalar(order, [value])

    @staticmethod
    def zeta(order: int, power: int = 1) -> "CyclotomicScalar":
        """zeta_m^power, reduced modulo Phi_m."""
        return CyclotomicScalar._lowest(order, _power_reductions(order)[power % order], 1)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficient vector modulo Phi_m."""
        return tuple(Fraction(x, self.den) for x in self.num)

    # -- ring structure -----------------------------------------------------

    def __add__(self, other):
        o = promote(other, self.order)
        d, e = self.den, o.den
        u, v = e // gcd(d, e), d // gcd(d, e)   # d * u = e * v = lcm(d, e)
        return CyclotomicScalar._lowest(self.order,
                                        [a * u + b * v for a, b in zip(self.num, o.num)], d * u)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicScalar._lowest(self.order, [-a for a in self.num], self.den)

    def __mul__(self, other):
        o = promote(other, self.order)
        return CyclotomicScalar.from_polynomial(self.order, _polymul(self.num, o.num),
                                                self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicScalar":
        if not self:
            raise ZeroDivisionError("cyclotomic division by zero")
        s, c = _unit_cofactor(self.order, self.num)
        return CyclotomicScalar.from_polynomial(self.order, [self.den * x for x in s], c)

    def __truediv__(self, other):
        return self * promote(other, self.order).inverse()

    def __rtruediv__(self, other):
        return promote(other, self.order) * self.inverse()

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

    def _rational(self) -> bool:
        return not any(self.num[1:])

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, CyclotomicScalar):
            if self.order == other.order:
                return self.num == other.num and self.den == other.den
            # across orders only rational values can be equal, by value
            return (self._rational() and other._rational()
                    and self.num[0] == other.num[0] and self.den == other.den)
        if isinstance(other, (int, Fraction)):
            return (self.num[0] == other.numerator and self.den == other.denominator
                    and self._rational())
        return NotImplemented

    def __hash__(self):
        # a rational value must hash like the Fraction it equals
        if self._rational():
            return hash(Fraction(self.num[0], self.den))
        return hash((self.order, self.num, self.den))

    def __repr__(self):
        return f"Cyc({self.order}, {[str(c) for c in self.coeffs]})"


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


def _lift(v: Mapping) -> Vec:
    """v without zeros as a new dict that reduce may mutate: an all-int v is
    copied as it is; a rational v is scaled to integers by the lcm of its
    denominators.  A vector with a cyclotomic entry is promoted to its
    Q(zeta_m)."""
    if _INTS.issuperset(map(type, v.values())):
        # both scans and the copy run in C when v has no zero
        return {k: x for k, x in v.items() if x} if 0 in v.values() else dict(v)
    r = {k: x for k, x in v.items() if x}
    if CyclotomicScalar in set(map(type, r.values())):
        order = next(x for x in r.values() if type(x) is CyclotomicScalar).order
        return {k: promote(x, order) for k, x in r.items()}
    d = lcm(*[x.denominator for x in r.values()])
    return {k: x.numerator * (d // x.denominator) for k, x in r.items()}


def _clear(r: Vec, p, row: Vec, rows: Mapping, heap: list) -> None:
    """Clear position p of r against the row with lead p, in place: r <- s*r - t*row
    with s = b/g, t = r[p]/g, g = gcd(r[p], b) for lead b, so s > 0.  A row
    with lead 1, such as every cyclotomic row, gives s = 1 and t = r[p].

    The one elimination step: one pass over row adds -t*row, drops the
    entries that cancel and pushes onto heap each position that is new to r
    and a lead of rows, the pivots a row not yet inter-reduced brings in."""
    a, b = r[p], row[p]
    if b == 1:
        s, t = 1, a
    else:
        g = gcd(a, b)
        s, t = b // g, a // g
        if s != 1:
            for k in r:
                r[k] *= s
    u = -t
    for k, x in row.items():
        cur = r.get(k)
        if cur is None:
            r[k] = u * x
            if k in rows:
                heappush(heap, k)
        else:
            nv = cur + u * x
            if nv:
                r[k] = nv
            else:
                del r[k]


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
        inv = pivot.inverse()
        return {k: x * inv for k, x in r.items()}
    return r


def _over(x, d: int):
    """x / d for an integer x, as a Fraction; a cyclotomic x has d = 1."""
    return Fraction(x, d) if isinstance(x, int) else x


class EchelonBasis:
    """Echelon basis of a span of sparse vectors, grown one vector at a time.

    Rows are keyed by their lead (least index) and never mutated in place.
    One basis holds one kind of scalar: rationals, or one Q(zeta_m).  A rational
    row is stored as a primitive integer vector with a positive lead, a
    cyclotomic row normalized to 1 at its lead.  Input that is already all
    int, as integer columns and products are, enters as it is; other
    rational input is first scaled to integers by ``_lift``.  One elimination step,
    ``_clear``, serves both, and every value read out is a ``Fraction`` or a
    ``CyclotomicScalar``.  Callers that only need a spanning set of the span
    (``_ideal_echelon``, ``nilpotent_transport``, ``quotient_module``, the
    Johnson certificate) read ``rows.values()``, which scaled rows still are.
    Callers that need a linear map read ``quotient``: the cyclic sum, the
    multiplication action on a cokernel, ``quotient_module`` and the
    projected ad_{e_i} on L / L'' of ``quad_lie``.

    rank, free and contains need only the leads, so add does no back-reduction;
    vectors, quotient and kernel read inter-reduced rows.
    """

    def __init__(self):
        self.rows: dict[int, Vec] = {}            # lead index -> stored row
        self._reduced = True                      # no row carries another lead

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: Mapping) -> Vec:
        """The remainder of v modulo the span: a positive multiple of the
        canonical representative, the one supported on non-pivot positions,
        with integer entries for a rational v (over Q(zeta_m) the multiple
        is 1).  A row with lead p only touches positions above p, so pivots
        are eliminated in increasing order, through a heap; ``_clear`` queues
        the later pivots a row not yet inter-reduced brings in, and an
        inter-reduced row brings in none."""
        r = _lift(v)
        rows = self.rows
        heap = [k for k in r if k in rows]
        heapify(heap)
        while heap:
            p = heappop(heap)
            if p in r:
                _clear(r, p, rows[p], rows, heap)
        return r

    def add(self, v: Mapping) -> bool:
        """Insert v; returns True when the rank grew."""
        r = self.reduce(v)
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
                    for k in hits:   # rows[k] is reduced: it brings in no lead
                        _clear(new, k, rows[k], {}, [])
                    rows[lead] = _normalize(new, lead)
            self._reduced = True

    def contains(self, v: Mapping) -> bool:
        return not self.reduce(v)

    def free(self, n: int) -> dict[int, int]:
        """The quotient of positions 0..n-1 by the span: each non-pivot
        position, in increasing order, mapped to its index in the quotient
        basis."""
        rows = self.rows
        return {k: t for t, k in enumerate(k for k in range(n) if k not in rows)}

    def quotient(self, n: int) -> "RationalMatrix":
        """The quotient map of positions 0..n-1 onto the basis free(n), as a
        (n - rank) x n matrix over Q: quotient.matvec(v) is the class of v.

        A free position is its own basis vector.  Inter-reduced, the row with
        lead l carries free positions only besides l, so e_l is minus the rest
        of that row over its lead, modulo the span.  The numerators are taken
        over the lcm of the leads, column by column.
        """
        self._inter_reduce()
        pos, rows = self.free(n), self.rows
        den = lcm(*{row[k] for k, row in rows.items()})
        num: dict = {}
        for k in range(n):
            row = rows.get(k)
            if row is None:
                num[pos[k], k] = den
            else:
                s = den // row[k]
                for f, x in row.items():
                    if f != k:
                        num[pos[f], k] = -x * s
        return RationalMatrix.from_integers(len(pos), n, num, den)

    def vectors(self) -> list[Vec]:
        """The reduced row echelon form: inter-reduced rows with lead 1."""
        self._inter_reduce()
        return [{k: _over(x, row[l]) for k, x in row.items()}
                for l, row in sorted(self.rows.items())]

    def kernel(self, n: int) -> dict[int, Vec]:
        """The kernel of the rows on positions 0..n-1, one vector per free
        column f: 1 at f, 0 at every other free column, and supported on f
        and the pivots.  Inter-reduced rows give each pivot's entry directly,
        so one pass over the rows fills every vector."""
        self._inter_reduce()
        out: dict[int, Vec] = {f: {f: ONE} for f in self.free(n)}
        for l, row in self.rows.items():
            for f, x in row.items():
                if f != l:
                    out[f][l] = _over(-x, row[l])
        return out


def echelon_basis(vectors: Iterable[Mapping], eb: EchelonBasis | None = None) -> EchelonBasis:
    """eb, or a new basis, grown by the vectors in order."""
    if eb is None:
        eb = EchelonBasis()
    for v in vectors:
        eb.add(v)
    return eb


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class RationalMatrix:
    """Sparse exact matrix over Q: integer numerators over one denominator.

    num maps (i, j) to a nonzero int and den > 0, in lowest terms
    (gcd(den, *num) == 1), so equal matrices are stored alike.  Products
    run on the numerators and divide once, by one gcd; ``entries`` is read
    out as ``Fraction``s.  A matrix over Q(zeta_m) is a list of sparse
    columns, ranked by ``echelon_basis``.
    """

    __slots__ = ("rows", "cols", "num", "den", "_columns", "_span", "_seed")

    def __init__(self, rows: int, cols: int, entries: Mapping | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        cleaned: dict[tuple[int, int], int | Fraction] = {}
        for (i, j), v in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i},{j}) out of bounds for {rows}x{cols}")
            if type(v) is not int:
                v = _to_fraction(v)
            if v:
                cleaned[(i, j)] = v
        # each value is in lowest terms, so over the lcm of their
        # denominators the numerators share no factor with it
        den = lcm(*{v.denominator for v in cleaned.values()})
        num = {k: v.numerator * (den // v.denominator) for k, v in cleaned.items()}
        self.rows, self.cols, self.num, self.den = rows, cols, num, den
        self._columns = self._span = self._seed = None   # built once, on first use

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_integers(rows: int, cols: int, num: dict, den: int = 1,
                      columns: list | None = None) -> "RationalMatrix":
        """num / den for nonzero int numerators num {(i, j): int} inside the
        shape and den > 0, divided by gcd(den, *num); num is kept, not
        copied.  columns, when given, are the columns of num as
        numerator_columns() lists them, built by the caller in the pass
        that filled num: they are kept as they are when nothing is divided
        out, and dropped otherwise, for numerator_columns to transpose."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num, den, columns = {k: x // g for k, x in num.items()}, den // g, None
        out = object.__new__(RationalMatrix)
        out.rows, out.cols, out.num, out.den = rows, cols, num, den
        out._columns, out._span, out._seed = columns, None, None
        return out

    @staticmethod
    def from_rows(data: Sequence[Sequence]) -> "RationalMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        return RationalMatrix(rows, cols, {(i, j): v for i, row in enumerate(data)
                                           for j, v in enumerate(row)})

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix.from_integers(n, n, {(i, i): 1 for i in range(n)})

    # -- access ----------------------------------------------------------------

    def _fractions(self, vec: Mapping) -> Vec:
        """vec / den as Fractions, for a vector of numerators."""
        den = self.den
        return {k: Fraction(x, den) for k, x in vec.items()}

    @property
    def entries(self) -> dict:
        """{(i, j): value} with Fraction values, a view built on each read."""
        return self._fractions(self.num)

    def numerator_columns(self) -> list[Mapping]:
        """The columns of den * self as sparse vectors, built once and shared
        by every caller: num never changes after construction, and no caller
        mutates the list or its vectors.  Every empty column is the one
        read-only ``EMPTY`` mapping, so a sparse matrix allocates only the
        columns it fills.  A matrix built column by column (an instantiated
        graded map, a product) is handed its columns by from_integers and
        transposes nothing; any other transposes num on the first call."""
        if self._columns is None:
            out: list[Mapping] = [EMPTY] * self.cols
            for (i, j), x in self.num.items():
                col = out[j]
                if col is EMPTY:
                    col = out[j] = {}
                col[i] = x
            self._columns = out
        return self._columns

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix) or (self.rows, self.cols) != (other.rows,
                                                                             other.cols):
            return False
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.num)))

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols}, nnz={len(self.num)})"

    # -- arithmetic --------------------------------------------------------------

    def matvec(self, v: Mapping) -> Vec:
        """self applied to v, summed over the numerator columns and divided
        once: an integral matrix applied to an int vector gives ints, and
        every other product is read out as Fractions (act_vec leaves the
        int numerators of a column that v takes with coefficient 1)."""
        out = act_vec(self.numerator_columns(), v)
        if self.den == 1 and _INTS.issuperset(map(type, v.values())):
            return out
        return self._fractions(out)

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        """self * other, one column at a time: column j of the product is
        self applied to column j of other (act_vec on the numerators), and
        an empty column of other gives an empty one.  The product keeps the
        columns it was built from (from_integers), so the next product with
        it as the right factor, as a power series takes, transposes nothing
        unless a common factor was divided out."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        left_cols = self.numerator_columns()
        num: dict = {}
        columns: list[Mapping] = [EMPTY] * other.cols
        for j, col in enumerate(other.numerator_columns()):
            if col:   # an empty column of other is an empty column of the product
                out = act_vec(left_cols, col)
                if out:
                    columns[j] = out
                    for i, x in out.items():
                        num[i, j] = x
        return RationalMatrix.from_integers(self.rows, other.cols, num, self.den * other.den,
                                            columns)

    # -- rank / kernel / membership ------------------------------------------------
    # den * self has the rank, kernel and column span of self, so each of them
    # echelonizes the numerators

    def rank(self) -> int:
        return self.column_span().rank

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
        rows: list[Vec] = [dict() for _ in range(self.rows)]
        for (i, j), x in self.num.items():
            rows[i][j] = x
        # stacked operators leave most rows empty, and those span nothing
        eb = echelon_basis(v for v in rows if v)
        return list(eb.kernel(self.cols).items())

    def column_span(self) -> EchelonBasis:
        """The span of the columns, built once and shared with rank(): its
        callers read it and add nothing to it.  The columns are added in
        order, to a seed (seed_span) when one was given."""
        if self._span is None:
            self._span = echelon_basis(self.numerator_columns(), self._seed)
            self._seed = None
        return self._span

    def seed_span(self, span: EchelonBasis) -> None:
        """Add the columns to span, not to an empty basis: column_span and
        rank are then those of the columns beside span's rows.  A caller
        whose own columns are only part of a map seeds the span of the rest
        (alex_module.GradedMap.matrix builds it by shifting); a span already
        built is kept."""
        if self._span is None:
            self._seed = span


class LazyColumns(Sequence):
    """A sequence of n entries, entry j made by build(j) on its first read
    and kept in a dict keyed by j, so a caller that reads a few entries
    builds and holds only those.  Indices and slices read as on a tuple,
    and an index past the end raises IndexError, which ends iteration.  Its
    repr is that of the tuple of all its entries."""

    def __init__(self, n: int, build):
        self._n, self._build = n, build
        self._built: dict = {}

    def __getitem__(self, j):
        if type(j) is int and 0 <= j < self._n:
            entry = self._built.get(j)
            if entry is None:
                entry = self._built[j] = self._build(j)
            return entry
        if isinstance(j, slice):
            return tuple(self[i] for i in range(self._n)[j])
        return self[range(self._n)[j]]   # a negative index, or a tuple's IndexError

    def __len__(self):
        return self._n

    def __repr__(self):
        return repr(tuple(self))


def act_vec(cols: Sequence[Mapping], v: Mapping) -> Vec:
    """sum_j v[j] * cols[j]: the matrix with sparse columns cols applied to
    v.  An entry of v whose column is empty adds nothing and is skipped."""
    out: Vec = {}
    for j, c in v.items():
        if c:
            col = cols[j]
            if col:
                axpy(out, c, col)
    return out
