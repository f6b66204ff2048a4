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
from itertools import product

from . import documents
from .errors import BudgetExceededError
from .exact_linalg import CyclotomicScalar, RationalMatrix, axpy, promote

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


def word_inverse(word: Word) -> Word:
    return tuple(-x for x in reversed(word))


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


# ---------------------------------------------------------------------------
# group ring and Fox derivatives
# ---------------------------------------------------------------------------

def _exponents(word: Word, n: int) -> tuple[int, ...]:
    """Image of a word in the abelianization Z^n."""
    e = [0] * n
    for x in word:
        e[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(e)


def gr_add(a: GroupRingElt, b: GroupRingElt) -> GroupRingElt:
    out = dict(a)
    axpy(out, 1, b)
    return out


def gr_scale(a: GroupRingElt, c: Fraction) -> GroupRingElt:
    if not c:
        return {}
    return {w: c * v for w, v in a.items()}


def gr_mul(a: GroupRingElt, b: GroupRingElt) -> GroupRingElt:
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
            out = gr_add(out, term)
        prefix.append(x)
    return out


def fox_identity_defect(word, n: int) -> GroupRingElt:
    """sum_j d(w)/dx_j (x_j - 1) - (w - 1); zero for every word."""
    w = free_reduce(word)
    total: GroupRingElt = {}
    for j in range(n):
        dw = fox_derivative(w, j)
        total = gr_add(total, gr_mul(dw, {(j + 1,): Fraction(1), (): Fraction(-1)}))
    rhs = {w: Fraction(1), (): Fraction(-1)}
    if w == ():
        rhs = {}
    return gr_add(total, gr_scale(rhs, Fraction(-1)))


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
        order = rho.cyclotomic_order()
        ent = {}
        for (r, c), poly in self.entries.items():
            val = promote(0, order)
            for e, coeff in poly.items():
                term = promote(coeff, order)
                for i, k in enumerate(e):
                    if k:
                        term = term * rho.value_power(i, k)
                val = val + term
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


# generic rank over the fraction field Q(t_1..t_n): fraction-free elimination

def _poly_mul(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    out: LaurentPoly = {}
    for ea, ca in a.items():
        axpy(out, ca, {tuple(x + y for x, y in zip(ea, eb)): cb for eb, cb in b.items()})
    return out


def _poly_sub(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    out = dict(a)
    axpy(out, -1, b)
    return out


def _poly_divide_exact(f: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Exact division of multivariate polynomials (lex leading terms)."""
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
        return Character(tuple(CyclotomicScalar.zeta(order, e) for e in exponents))

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
                m, j = int(m_str), int(j_str)
                if m < 1:
                    raise CharacterError(f"cyclotomic order must be >= 1 in {t!r}")
                if order is None:
                    order = m
                elif order != m:
                    raise ValueError("mixed cyclotomic orders in character")
                raw.append(("zeta", j))
            else:
                try:
                    raw.append(("q", Fraction(t)))
                except ZeroDivisionError:
                    raise CharacterError(f"zero denominator in {t!r}") from None
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

    def value_power(self, i: int, k: int):
        return self.values[i] ** k  # exact for negative k as well

    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.values)

    def evaluate_exponent(self, e) -> object:
        order = self.cyclotomic_order()
        out = promote(1, order)
        for i, k in enumerate(e):
            if k:
                out = out * promote(self.value_power(i, k), order)
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
    rows = p.relator_exponent_matrix()
    entries = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                entries[(i, j)] = Fraction(v)
    return p.num_generators - RationalMatrix(len(rows), p.num_generators, entries).rank()


def twisted_h1_dim(p: GroupPresentation, rho: Character) -> int:
    """dim H_1 of the presentation 2-complex with coefficients twisted by rho."""
    _check_character(p, rho)
    if rho.is_trivial():
        return betti_one(p)
    a = alexander_matrix(p).evaluate(rho)
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


def torsion_sweep(p: GroupPresentation, order: int, k: int, *,
                  budget: int = 100_000) -> list[Character]:
    """All characters with coordinates in mu_order lying on the depth-k
    characteristic variety, by exhaustive cyclotomic evaluation."""
    if order < 1:
        raise ValueError("order >= 1 required")
    n = p.num_generators
    total = order ** n
    if total > budget:
        raise BudgetExceededError({
            "error": "budget", "what": "torsion_sweep", "points": total,
            "limit": budget})
    out = []
    for exps in product(range(order), repeat=n):
        rho = Character.torsion(order, exps)
        try:
            if cv_membership(p, rho, k):
                out.append(rho)
        except CharacterError:
            continue
    return out


# ---------------------------------------------------------------------------
# integer lattice saturation (for the identity-component test only)
# ---------------------------------------------------------------------------

def _row_hnf(rows: list[list[int]]) -> list[list[int]]:
    """Hermite-style integer row reduction; returns a Z-basis of the row lattice."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    basis: list[list[int]] = []
    col = 0
    while rows and col < ncols:
        live = [r for r in rows if r[col] != 0]
        if not live:
            col += 1
            continue
        # gcd-reduce the column
        while True:
            live.sort(key=lambda r: abs(r[col]))
            piv = live[0]
            done = True
            for r in live[1:]:
                f = r[col] // piv[col]
                if f:
                    for c in range(ncols):
                        r[c] -= f * piv[c]
                if r[col]:
                    done = False
            live = [r for r in live if r[col] != 0]
            if done or len(live) <= 1:
                break
        piv = live[0]
        basis.append([-x for x in piv] if piv[col] < 0 else list(piv))
        rows = [r for r in rows if r is not piv and any(r)]
        col += 1
    return basis


def _left_kernel_mod_p(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of {c in F_p^k : c . rows == 0 mod p}, coefficients lifted to 0..p-1.

    Solves rows^T c = 0 by Gaussian elimination over F_p.
    """
    k = len(rows)
    if k == 0:
        return []
    ncols = len(rows[0])
    mat = [[rows[r][c] % p for r in range(k)] for c in range(ncols)]
    pivot_cols = []
    rr = 0
    for cc in range(k):
        piv = next((i for i in range(rr, ncols) if mat[i][cc] % p), None)
        if piv is None:
            continue
        mat[rr], mat[piv] = mat[piv], mat[rr]
        inv = pow(mat[rr][cc], -1, p)
        mat[rr] = [(x * inv) % p for x in mat[rr]]
        for i in range(ncols):
            if i != rr and mat[i][cc] % p:
                f = mat[i][cc]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[rr])]
        pivot_cols.append(cc)
        rr += 1
    free = [c for c in range(k) if c not in pivot_cols]
    kernel = []
    for f in free:
        v = [0] * k
        v[f] = 1
        for row_i, pc in enumerate(pivot_cols):
            val = mat[row_i][f] % p
            if val:
                v[pc] = (-val) % p
        kernel.append(v)
    return kernel


def saturated_relator_lattice(p: GroupPresentation) -> list[tuple[int, ...]]:
    """Z-basis of the saturation of the relator lattice inside Z^n.

    Primes that can divide the index are exactly the primes dividing the
    pivot product of the Hermite basis; the lattice is p-saturated for each
    until the mod-p left kernel is trivial.
    """
    basis = _row_hnf([list(r) for r in p.relator_exponent_matrix()])
    if not basis:
        return []

    def pivot_product(b):
        prod = 1
        for row in b:
            prod *= next(v for v in row if v)
        return abs(prod)

    d = pivot_product(basis)
    primes = []
    dd = d
    f = 2
    while f * f <= dd:
        if dd % f == 0:
            primes.append(f)
            while dd % f == 0:
                dd //= f
        f += 1
    if dd > 1:
        primes.append(dd)
    for prime in primes:
        while True:
            kernel = _left_kernel_mod_p(basis, prime)
            new_rows = []
            for c in kernel:
                v = [sum(c[i] * basis[i][t] for i in range(len(basis)))
                     for t in range(len(basis[0]))]
                if any(x % prime for x in v):
                    raise AssertionError("mod-p kernel did not divide")
                v = [x // prime for x in v]
                if any(v):
                    new_rows.append(v)
            if not new_rows:
                break
            basis = _row_hnf(basis + new_rows)
    return [tuple(r) for r in basis]
