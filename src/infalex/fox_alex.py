"""Fox calculus on finitely presented groups, Alexander matrices over
Laurent polynomials, twisted first homology, and point tests on
characteristic varieties.

Words are tuples of nonzero signed integers, +-(i+1) standing for the i-th
generator or its inverse; they are freely reduced on ingestion.  Characters
take values in Q* or in roots of unity mu_m (cyclotomic arithmetic); no
floating point is ever used.

The twisted homology of the presentation 2-complex: for a character rho != 1
the first homology has dimension (n - 1) - rank A(rho), with A the
abelianized Fox Jacobian; at rho = 1 it is the first Betti number
n - rank A(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import gcd, log2

from . import documents
from .errors import BudgetExceededError
from .exact_linalg import (ZERO, CyclotomicScalar, RationalMatrix, _reduce_mod_phi, axpy,
                           promote)

Word = tuple[int, ...]
GroupRingElt = dict  # {freely reduced word: Fraction}
LaurentPoly = dict   # {exponent tuple: Fraction}


def free_reduce(word) -> Word:
    out: list[int] = []
    for x in word:
        x = int(x)
        if x == 0:
            raise ValueError("letter 0 is not a generator")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class GroupPresentation:
    num_generators: int
    relators: tuple[Word, ...]

    @staticmethod
    def make(num_generators: int, relators) -> "GroupPresentation":
        if num_generators < 0:
            raise ValueError("negative generator count")
        rels = []
        for r in relators:
            w = free_reduce(r)
            for x in w:
                if abs(x) > num_generators:
                    raise ValueError(f"letter {x} out of range")
            rels.append(w)
        return GroupPresentation(num_generators, tuple(rels))

    @staticmethod
    def from_json(doc) -> "GroupPresentation":
        """Document shape: {"generators": n, "relators": [[1, 2, -1, -2], ...]}."""
        doc = documents.load(doc, "group presentation")
        n = documents.field(doc, "generators", documents.integer)
        relators = documents.field(doc, "relators", documents.array, default=[])
        return GroupPresentation.make(n, [
            tuple(documents.integer(x, f"relators[{r}][{t}]")
                  for t, x in enumerate(documents.array(rel, f"relators[{r}]")))
            for r, rel in enumerate(relators)])

    def abelianized_relator(self, r: Word) -> tuple[int, ...]:
        return _exponents(r, self.num_generators)

    def relator_exponent_matrix(self) -> list[tuple[int, ...]]:
        return [self.abelianized_relator(r) for r in self.relators]

    @cached_property
    def alexander(self) -> "LaurentMatrix":
        """The Alexander matrix, built by Fox calculus once per presentation."""
        return alexander_matrix(self)


# ---------------------------------------------------------------------------
# group ring and Fox derivatives
# ---------------------------------------------------------------------------

def _exponents(word: Word, n: int) -> tuple[int, ...]:
    """Image of a word in the abelianization Z^n."""
    e = [0] * n
    for x in word:
        e[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(e)


def gr_mul(a: GroupRingElt, b: GroupRingElt) -> GroupRingElt:
    """The product in the group ring.  Part of the test oracle
    fox_identity_defect."""
    out: GroupRingElt = {}
    for wa, ca in a.items():
        # distinct reduced words wb give distinct products wa wb
        axpy(out, ca, {free_reduce(wa + wb): cb for wb, cb in b.items()})
    return out


def fox_derivative(word, j: int) -> GroupRingElt:
    """d(word)/dx_j with the Leibniz rule d(uv) = du + u dv.

    ``j`` is 0-based; the word must freely reduce to itself (it is reduced
    defensively here).
    """
    w = free_reduce(word)
    out: GroupRingElt = {}
    prefix: list[int] = []
    for x in w:
        if abs(x) - 1 == j:
            if x > 0:
                term = {tuple(prefix): Fraction(1)}
            else:
                term = {tuple(prefix + [x]): Fraction(-1)}
            axpy(out, 1, term)
        prefix.append(x)
    return out


def fox_identity_defect(word, n: int) -> GroupRingElt:
    """sum_j d(w)/dx_j (x_j - 1) - (w - 1); zero for every word.

    Test oracle: the fundamental formula of Fox calculus (acceptance
    criterion 8) checks fox_derivative, which alexander_matrix runs; no CLI
    path calls it."""
    w = free_reduce(word)
    total: GroupRingElt = {}
    for j in range(n):
        x_j_minus_1 = {(j + 1,): Fraction(1), (): Fraction(-1)}
        axpy(total, 1, gr_mul(fox_derivative(w, j), x_j_minus_1))
    if w:
        axpy(total, -1, {w: Fraction(1), (): Fraction(-1)})
    return total


# ---------------------------------------------------------------------------
# Laurent matrices
# ---------------------------------------------------------------------------

def _abelianize_gr(elt: GroupRingElt, n: int) -> LaurentPoly:
    out: LaurentPoly = {}
    for w, c in elt.items():
        axpy(out, 1, {_exponents(w, n): c})
    return out


@dataclass(frozen=True)
class LaurentMatrix:
    rows: int
    cols: int
    entries: dict  # (r, c) -> LaurentPoly

    def entry(self, r: int, c: int) -> LaurentPoly:
        return self.entries.get((r, c), {})

    def evaluate(self, rho: "Character") -> RationalMatrix:
        """The matrix at the point rho of the character torus.

        When rho = zeta_m^a (every value a power of zeta_m), the monomial t^e
        takes the value zeta_m^<a, e>.  So each entry's coefficients are
        summed into m bins, at index <a, e> mod m, and the bins are reduced
        modulo Phi_m once: no cyclotomic multiply or inverse.  At any other
        character each monomial is evaluated by evaluate_exponent."""
        order = rho.cyclotomic_order()
        exps = rho.torsion_exponents()
        ent = {}
        for (r, c), poly in self.entries.items():
            if exps is not None:
                bins = [ZERO] * order
                for e, coeff in poly.items():
                    bins[sum(a * k for a, k in zip(exps, e)) % order] += coeff
                val = CyclotomicScalar(order, _reduce_mod_phi(bins, order))
            else:
                val = promote(0, order)
                for e, coeff in poly.items():
                    val = val + promote(coeff, order) * rho.evaluate_exponent(e)
            if val:
                ent[(r, c)] = val
        return RationalMatrix(self.rows, self.cols, ent)


def alexander_matrix(p: GroupPresentation) -> LaurentMatrix:
    """Fox Jacobian of the relators pushed down to the abelianization."""
    n = p.num_generators
    entries = {}
    for r, rel in enumerate(p.relators):
        for j in range(n):
            poly = _abelianize_gr(fox_derivative(rel, j), n)
            if poly:
                entries[(r, j)] = poly
    return LaurentMatrix(len(p.relators), n, entries)


# generic rank over the fraction field Q(t_1..t_n): fraction-free elimination,
# a test oracle with its polynomial helpers

def _poly_mul(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Part of the test oracle generic_rank."""
    out: LaurentPoly = {}
    for ea, ca in a.items():
        axpy(out, ca, {tuple(x + y for x, y in zip(ea, eb)): cb for eb, cb in b.items()})
    return out


def _poly_sub(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Part of the test oracle generic_rank."""
    out = dict(a)
    axpy(out, -1, b)
    return out


def _poly_divide_exact(f: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Exact division of multivariate polynomials (lex leading terms).  Part
    of the test oracle generic_rank."""
    if not d:
        raise ZeroDivisionError
    out: LaurentPoly = {}
    lead_d = max(d)
    f = dict(f)
    while f:
        lead_f = max(f)
        e = tuple(x - y for x, y in zip(lead_f, lead_d))
        if any(x < 0 for x in e):
            raise ArithmeticError("non-exact polynomial division")
        c = f[lead_f] / d[lead_d]
        out[e] = c
        f = _poly_sub(f, _poly_mul({e: c}, d))
    return out


def generic_rank(m: LaurentMatrix) -> int:
    """Rank over the fraction field, treating each t_i as an indeterminate.

    Rows are shifted by monomial units so all entries become polynomials;
    then Bareiss fraction-free elimination with exact divisions.

    Test oracle: it bounds the rank of evaluate(rho) at every character rho,
    so it checks the special ranks that the cv command computes; no CLI path
    calls it.
    """
    if m.rows == 0 or m.cols == 0:
        return 0
    rows: list[list[LaurentPoly]] = []
    for r in range(m.rows):
        row = [dict(m.entry(r, c)) for c in range(m.cols)]
        mins = None
        for poly in row:
            for e in poly:
                mins = list(e) if mins is None else [min(a, b) for a, b in zip(mins, e)]
        if mins is not None and any(x < 0 for x in mins):
            shift = tuple(-min(x, 0) for x in mins)
            row = [{tuple(a + s for a, s in zip(e, shift)): c for e, c in poly.items()}
                   for poly in row]
        rows.append(row)
    rank = 0
    prev_pivot: LaurentPoly = {}
    col = 0
    ncols = m.cols
    while rank < len(rows) and col < ncols:
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if not any(rows[r][c] for c in range(col, ncols)):
                continue
            for c in range(ncols - 1, col - 1, -1):
                num = _poly_sub(_poly_mul(pivot, rows[r][c]),
                                _poly_mul(rows[r][col], rows[rank][c]))
                rows[r][c] = _poly_divide_exact(num, prev_pivot) if prev_pivot else num
        prev_pivot = pivot
        rank += 1
        col += 1
    return rank


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

class CharacterError(ValueError):
    """The supplied values do not define a character of the group."""


@lru_cache(maxsize=64)
def _zeta_table(order: int) -> tuple[tuple[CyclotomicScalar, ...], dict]:
    """(zeta_order^k for k in 0..order-1, the map from their coefficient
    vectors back to k)."""
    powers = tuple(CyclotomicScalar.zeta(order, k) for k in range(order))
    return powers, {z.coeffs: k for k, z in enumerate(powers)}


@dataclass(frozen=True)
class Character:
    """A point of the character torus: one nonzero scalar per generator."""

    values: tuple  # Fraction or CyclotomicScalar, homogeneous

    @staticmethod
    def rational(values) -> "Character":
        vals = tuple(Fraction(v) if not isinstance(v, Fraction) else v for v in values)
        if any(v == 0 for v in vals):
            raise ValueError("character values must be nonzero")
        return Character(vals)

    @staticmethod
    def torsion(order: int, exponents) -> "Character":
        powers = _zeta_table(order)[0]
        return Character(tuple(powers[e % order] for e in exponents))

    @staticmethod
    def parse(text: str) -> "Character":
        """Comma-separated values; each a rational like '3/2' or a token
        'zeta_m^j'."""
        parts = [t.strip() for t in text.split(",") if t.strip()]
        order = None
        raw = []
        for t in parts:
            if t.startswith("zeta_"):
                body = t[len("zeta_"):]
                if "^" in body:
                    m_str, j_str = body.split("^", 1)
                else:
                    m_str, j_str = body, "1"
                try:
                    m, j = int(m_str), int(j_str)
                except ValueError:
                    raise CharacterError(f"malformed token {t!r}: expected zeta_m or "
                                         f"zeta_m^j with integers m and j") from None
                if m < 1:
                    raise CharacterError(f"cyclotomic order must be >= 1 in {t!r}")
                if order is None:
                    order = m
                elif order != m:
                    raise ValueError("mixed cyclotomic orders in character")
                raw.append(("zeta", j))
            else:
                raw.append(("q", documents.fraction(t, "character value")))
        if order is None:
            return Character.rational([v for _k, v in raw])
        vals = []
        for kind, v in raw:
            if kind == "zeta":
                vals.append(CyclotomicScalar.zeta(order, v))
            else:
                if v == 0:
                    raise ValueError("character values must be nonzero")
                vals.append(CyclotomicScalar.from_rational(order, v))
        return Character(tuple(vals))

    def cyclotomic_order(self) -> int | None:
        for v in self.values:
            if isinstance(v, CyclotomicScalar):
                return v.order
        return None

    @cached_property
    def _torsion_exponents(self) -> tuple[int, ...] | None:
        order = self.cyclotomic_order()
        if order is None:
            return None
        index = _zeta_table(order)[1]
        exps = tuple(index.get(v.coeffs)
                     if isinstance(v, CyclotomicScalar) and v.order == order else None
                     for v in self.values)
        return None if None in exps else exps

    def torsion_exponents(self) -> tuple[int, ...] | None:
        """The exponent vector a with rho = zeta_m^a when every value is a
        power of zeta_m (one table lookup per value), else None."""
        return self._torsion_exponents

    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.values)

    def evaluate_exponent(self, e) -> object:
        """The monomial t^e at rho: a zeta table lookup when rho = zeta_m^a,
        else the product of the value powers, exact for negative e too."""
        order = self.cyclotomic_order()
        exps = self.torsion_exponents()
        if exps is not None:
            return _zeta_table(order)[0][sum(a * k for a, k in zip(exps, e)) % order]
        out = promote(1, order)
        for v, k in zip(self.values, e):
            if k:
                out = out * promote(v ** k, order)
        return out


def _check_character(p: GroupPresentation, rho: Character):
    if len(rho.values) != p.num_generators:
        raise CharacterError("one value per generator required")
    for r in p.relators:
        e = p.abelianized_relator(r)
        if rho.evaluate_exponent(e) != 1:
            raise CharacterError(f"relator {r} not respected by the character")


# ---------------------------------------------------------------------------
# twisted homology and characteristic-variety membership
# ---------------------------------------------------------------------------

def betti_one(p: GroupPresentation) -> int:
    return p.num_generators - RationalMatrix.from_rows(p.relator_exponent_matrix()).rank()


def twisted_h1_dim(p: GroupPresentation, rho: Character) -> int:
    """dim H_1 of the presentation 2-complex with coefficients twisted by rho."""
    _check_character(p, rho)
    if rho.is_trivial():
        return betti_one(p)
    a = p.alexander.evaluate(rho)
    return (p.num_generators - 1) - a.rank()


def factors_through_free_part(p: GroupPresentation, rho: Character) -> bool:
    """Whether rho kills the saturation of the relator lattice, i.e. lies on
    the identity component of the character torus."""
    _check_character(p, rho)
    sat = saturated_relator_lattice(p)
    return all(rho.evaluate_exponent(v) == 1 for v in sat)


def cv_membership(p: GroupPresentation, rho: Character, k: int, *,
                  restricted: bool = False) -> bool:
    """Whether dim H_1(G, C_rho) >= k; the restricted variant additionally
    requires rho to factor through the maximal torsion-free quotient."""
    if k < 1:
        raise ValueError("depth k >= 1 required")
    if restricted and not factors_through_free_part(p, rho):
        raise CharacterError("character does not factor through the free part")
    return twisted_h1_dim(p, rho) >= k


# the default bound on the points of a torsion sweep (cv --budget)
SWEEP_BUDGET = 100_000


def torsion_sweep(p: GroupPresentation, order: int, k: int, *,
                  budget: int = SWEEP_BUDGET) -> list[Character]:
    """All characters with coordinates in mu_order lying on the depth-k
    characteristic variety, in lexicographic order of exponent vectors.

    One rank per Galois orbit, which is exact: the automorphism sigma_u
    (zeta -> zeta^u, u a unit mod order) of Q(zeta_order) maps A(rho) to
    A(rho^u) entrywise, so it keeps the rank, and sigma_u(x) = 1 exactly
    when x = 1, so rho^u is a character, and is trivial, exactly when rho
    is.  Membership is therefore constant on each orbit {u e mod order} of
    exponent vectors.  Each point is keyed by the lex-min of its orbit; the
    lexicographic walk meets that point first, so it is the one tested."""
    if order < 1:
        raise ValueError("order >= 1 required")
    n = p.num_generators
    # order ** n is built only as far as the budget: it may have any size
    total, factors = 1, 0
    while total <= budget and factors < n:
        total, factors = total * order, factors + 1
    if total > budget:
        facts = ({"points": order ** n} if n * log2(order) <= 256
                 else {"generators": n, "order": order})
        raise BudgetExceededError("torsion_sweep", budget, **facts)
    units = [u for u in range(order) if gcd(u, order) == 1]
    member: dict[tuple[int, ...], bool] = {}   # orbit key -> membership
    out = []
    for exps in product(range(order), repeat=n):
        key = min(tuple(u * x % order for x in exps) for u in units)
        if key not in member:
            try:
                member[key] = cv_membership(p, Character.torsion(order, key), k)
            except CharacterError:
                member[key] = False
        if member[key]:
            out.append(Character.torsion(order, exps))
    return out


# ---------------------------------------------------------------------------
# integer lattice saturation (for the identity-component test only)
# ---------------------------------------------------------------------------

def _row_hnf(rows) -> list[list[int]]:
    """Integer row echelon form by gcd steps; returns a Z-basis of the row
    lattice, each pivot positive."""
    rows = [list(r) for r in rows if any(r)]
    basis: list[list[int]] = []
    for col in range(len(rows[0]) if rows else 0):
        live = [r for r in rows if r[col]]
        while len(live) > 1:   # Euclid on the column, one remainder per row
            piv = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not piv:
                    f = r[col] // piv[col]
                    r[:] = [x - f * y for x, y in zip(r, piv)]
            live = [r for r in live if r[col]]
        if live:
            piv = live[0]
            basis.append([-x for x in piv] if piv[col] < 0 else piv)
            rows = [r for r in rows if r is not piv and any(r)]
    return basis


def _integer_kernel(rows, n: int) -> list[list[int]]:
    """Z-basis of {x in Z^n : r . x = 0 for every row r}.

    Echelonizes [rows^T | I] over Z; the rows whose first part vanishes span
    the kernel lattice, and their second parts are its basis."""
    k = len(rows)
    aug = [[r[j] for r in rows] + [int(i == j) for i in range(n)] for j in range(n)]
    return [row[k:] for row in _row_hnf(aug) if not any(row[:k])]


def saturated_relator_lattice(p: GroupPresentation) -> list[tuple[int, ...]]:
    """Z-basis of the saturation of the relator lattice L inside Z^n.

    Sat(L) = Z^n cap span_Q(L) is the integer kernel of the integer kernel
    of the relator exponent matrix.
    """
    n = p.num_generators
    kernel = _integer_kernel(p.relator_exponent_matrix(), n)
    return [tuple(r) for r in _row_hnf(_integer_kernel(kernel, n))]
