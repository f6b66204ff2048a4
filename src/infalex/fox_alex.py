"""Fox calculus on finitely presented groups, Alexander matrices over
Laurent polynomials, twisted first homology, and point tests on
characteristic varieties.

Words are tuples of nonzero signed integers, +-(i+1) standing for the i-th
generator or its inverse; they are freely reduced on ingestion.  The
Alexander matrix is read in one pass per relator, with integer
coefficients.  Characters take values in Q* or in roots of unity mu_m
(cyclotomic arithmetic); no floating point is ever used.

The twisted homology of the presentation 2-complex: for a character rho != 1
the first homology has dimension (n - 1) - rank A(rho), with A the
abelianized Fox Jacobian; at rho = 1 it is the first Betti number
n - rank A(1).  Fox's formula bounds rank A(rho) by n - 1, so at a torsion
character a rank of n - 1 modulo one prime p = 1 mod m, where zeta_m
goes to a root of unity of order m, is a certificate that H_1 vanishes;
only below it is A(rho) ranked over Q(zeta_m).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from math import gcd, isqrt, log2
from operator import mul

from . import documents
from .errors import BudgetExceededError
from .exact_linalg import (CyclotomicScalar, RationalMatrix, Vec, _to_fraction, axpy,
                           echelon_basis, promote)

Word = tuple[int, ...]
LaurentPoly = dict   # {exponent tuple: nonzero int}


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

    @cached_property
    def relator_exponents(self) -> tuple[tuple[int, ...], ...]:
        """Each relator's image in the abelianization Z^n."""
        out = []
        for r in self.relators:
            e = [0] * self.num_generators
            for x in r:
                e[abs(x) - 1] += 1 if x > 0 else -1
            out.append(tuple(e))
        return tuple(out)

    @cached_property
    def alexander(self) -> "LaurentMatrix":
        """The Alexander matrix, built by Fox calculus once per presentation."""
        return alexander_matrix(self)


# ---------------------------------------------------------------------------
# Laurent matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaurentMatrix:
    rows: int
    cols: int
    entries: dict  # (r, c) -> LaurentPoly, nonzero entries only

    def evaluate(self, rho: "Character") -> list[Vec]:
        """The matrix at the point rho of the character torus, as its sparse
        columns: one {row: value} dict per column, values in Q or in
        Q(zeta_m), the input of ``echelon_basis``.

        When rho = zeta_m^a (every value a power of zeta_m), the monomial t^e
        takes the value zeta_m^<a, e>.  So each entry's integer coefficients
        are summed into m bins at index <a, e> mod m (``_bins``), and the
        bins are reduced modulo Phi_m once: no cyclotomic multiply or
        inverse.  At any other character each monomial is evaluated by
        evaluate_exponent."""
        order = rho.cyclotomic_order()
        exps = rho.torsion_exponents
        cols: list[Vec] = [{} for _ in range(self.cols)]
        for (r, c), poly in self.entries.items():
            if exps is not None:
                val = CyclotomicScalar.from_polynomial(order, _bins(poly, exps, order))
            else:
                val = promote(0, order)
                for e, coeff in poly.items():
                    val = val + promote(coeff, order) * rho.evaluate_exponent(e)
            if val:
                cols[c][r] = val
        return cols

    def rank_mod_p(self, exps, order: int) -> int:
        """The rank over F_p of the matrix at zeta_m^a with zeta_m sent to
        omega, (p, omega) = _modular_root(m): each entry is sum_k bins[k]
        omega^k mod p, and the dense matrix is eliminated on ints below p.
        A lower bound for the rank over Q(zeta_m) (see twisted_h1_dim)."""
        p, omega = _modular_root(order)
        powers = [pow(omega, k, p) for k in range(order)]
        rows = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), poly in self.entries.items():
            rows[r][c] = sum(map(mul, _bins(poly, exps, order), powers)) % p
        return _rank_mod(rows, p)


def _bins(poly: LaurentPoly, exps, order: int) -> list[int]:
    """The integer coefficients of poly summed into ``order`` bins at index
    <a, e> mod order: poly at zeta_m^a is sum_k bins[k] zeta_m^k."""
    bins = [0] * order
    for e, coeff in poly.items():
        bins[sum(map(mul, exps, e)) % order] += coeff
    return bins


def _rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank over F_p of dense rows of ints in [0, p): each pivot row clears
    its lead column from the rows left, and leaves them."""
    rank = 0
    rows = [r for r in rows if any(r)]
    while rows:
        pivot = rows.pop()
        c = next(j for j, x in enumerate(pivot) if x)
        inv = pow(pivot[c], -1, p)
        rank += 1
        left = []
        for r in rows:
            if r[c]:
                f = r[c] * inv % p
                r = [(x - f * y) % p for x, y in zip(r, pivot)]
            if any(r):
                left.append(r)
        rows = left
    return rank


@lru_cache(maxsize=64)
def _modular_root(order: int) -> tuple[int, int]:
    """(p, omega): the least prime p > 2^24 with p = 1 mod order, each
    candidate tested by trial division up to sqrt(p), and omega =
    g^((p - 1)/order) for the least g >= 2 that gives omega exact order
    ``order`` in F_p^*.  Then p does not divide order, the roots of
    x^order - 1 in F_p are distinct, and omega is a root of Phi_order."""
    p = (1 << 24) + (1 - (1 << 24)) % order
    while not all(p % d for d in range(2, isqrt(p) + 1)):
        p += order
    g = 2
    while True:
        omega = pow(g, (p - 1) // order, p)
        if all(pow(omega, d, p) != 1 for d in range(1, order) if order % d == 0):
            return p, omega
        g += 1


def alexander_matrix(p: GroupPresentation) -> LaurentMatrix:
    """Fox Jacobian of the relators pushed down to the abelianization, read
    in one pass per relator.

    The pass carries the exponent vector e of the prefix read so far.  Since
    d(u x_j)/dx_j = du + u and d(u x_j^-1)/dx_j = du - u x_j^-1, a letter x_j
    adds t^e to entry (r, j) and then raises e_j, and a letter x_j^-1 first
    lowers e_j and then subtracts t^e.  A cancelling pair x x^-1 adds and
    removes the same t^e, so the words need not be freely reduced."""
    n = p.num_generators
    entries = {}
    for r, rel in enumerate(p.relators):
        e = [0] * n
        for x in rel:
            j = abs(x) - 1
            if x > 0:
                axpy(entries.setdefault((r, j), {}), 1, {tuple(e): 1})
                e[j] += 1
            else:
                e[j] -= 1
                axpy(entries.setdefault((r, j), {}), -1, {tuple(e): 1})
    return LaurentMatrix(len(p.relators), n, {k: poly for k, poly in entries.items() if poly})


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

class CharacterError(ValueError):
    """The supplied values do not define a character of the group."""


@lru_cache(maxsize=64)
def _zeta_table(order: int) -> tuple[tuple[CyclotomicScalar, ...], dict]:
    """(zeta_order^k for k in 0..order-1, the map from their stored integer
    vectors back to k; a root of unity has denominator 1)."""
    powers = tuple(CyclotomicScalar.zeta(order, k) for k in range(order))
    return powers, {z.num: k for k, z in enumerate(powers)}


@dataclass(frozen=True)
class Character:
    """A point of the character torus: one nonzero scalar per generator."""

    values: tuple  # Fraction or CyclotomicScalar, homogeneous

    @staticmethod
    def rational(values) -> "Character":
        vals = tuple(map(_to_fraction, values))
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
    def torsion_exponents(self) -> tuple[int, ...] | None:
        """The exponent vector a with rho = zeta_m^a when every value is a
        power of zeta_m (one table lookup per value), else None."""
        order = self.cyclotomic_order()
        if order is None:
            return None
        index = _zeta_table(order)[1]
        exps = tuple(index.get(v.num) if isinstance(v, CyclotomicScalar)
                     and v.order == order and v.den == 1 else None
                     for v in self.values)
        return None if None in exps else exps

    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.values)

    def evaluate_exponent(self, e) -> object:
        """The monomial t^e at rho: a zeta table lookup when rho = zeta_m^a,
        else the product of the value powers, exact for negative e too."""
        order = self.cyclotomic_order()
        exps = self.torsion_exponents
        if exps is not None:
            return _zeta_table(order)[0][sum(map(mul, exps, e)) % order]
        out = promote(1, order)
        for v, k in zip(self.values, e):
            if k:
                out = out * promote(v ** k, order)
        return out


def _check_character(p: GroupPresentation, rho: Character):
    """Raise CharacterError unless rho has one value per generator and
    respects every relator.  rho = zeta_m^a respects r exactly when
    <a, e_r> = 0 mod m, as zeta_m is primitive: an integer congruence."""
    if len(rho.values) != p.num_generators:
        raise CharacterError("one value per generator required")
    exps, order = rho.torsion_exponents, rho.cyclotomic_order()
    for r, e in zip(p.relators, p.relator_exponents):
        if (sum(map(mul, exps, e)) % order if exps is not None
                else rho.evaluate_exponent(e) != 1):
            raise CharacterError(f"relator {r} not respected by the character")


# ---------------------------------------------------------------------------
# twisted homology and characteristic-variety membership
# ---------------------------------------------------------------------------

def betti_one(p: GroupPresentation) -> int:
    return p.num_generators - RationalMatrix.from_rows(p.relator_exponents).rank()


def twisted_h1_dim(p: GroupPresentation, rho: Character) -> int:
    """dim H_1 of the presentation 2-complex with coefficients twisted by rho.

    At rho = zeta_m^a != 1 the rank of A(rho) is first taken mod p
    (``LaurentMatrix.rank_mod_p``), and when it is n - 1 the answer is 0
    with no elimination over Q(zeta_m).  That is exact:
    - lower bound: zeta_m -> omega is a ring map Z[zeta_m] -> F_p, since
      omega has exact order m, p does not divide m and so Phi_m(omega) = 0;
      a minor nonzero mod p is nonzero over Q(zeta_m), so rank >= rank_p;
    - upper bound: rho respects the relators and rho != 1, so by Fox's
      formula sum_j rho(dr/dx_j) (rho(x_j) - 1) = rho(r) - 1 = 0 for each
      relator r, the nonzero vector (rho(x_j) - 1)_j lies in the kernel of
      A(rho), and rank <= n - 1.
    A lower rank mod p proves nothing (p may divide a minor), so there the
    rank is the exact one over Q(zeta_m) or Q."""
    _check_character(p, rho)
    if rho.is_trivial():
        return betti_one(p)
    n, exps = p.num_generators, rho.torsion_exponents
    if exps is not None and p.alexander.rank_mod_p(exps, rho.cyclotomic_order()) == n - 1:
        return 0
    return (n - 1) - echelon_basis(p.alexander.evaluate(rho)).rank


def factors_through_free_part(p: GroupPresentation, rho: Character) -> bool:
    """Whether rho kills the saturation of the relator lattice, i.e. lies on
    the identity component of the character torus."""
    _check_character(p, rho)
    sat = saturated_relator_lattice(p)
    return all(rho.evaluate_exponent(v) == 1 for v in sat)


def require_free_part(p: GroupPresentation, rho: Character) -> None:
    """The refusal of the restricted variant: CharacterError unless rho
    factors through the maximal torsion-free quotient."""
    if not factors_through_free_part(p, rho):
        raise CharacterError("character does not factor through the free part")


def cv_membership(p: GroupPresentation, rho: Character, k: int, *,
                  restricted: bool = False) -> bool:
    """Whether dim H_1(G, C_rho) >= k; the restricted variant additionally
    requires rho to factor through the maximal torsion-free quotient."""
    if k < 1:
        raise ValueError("depth k >= 1 required")
    if restricted:
        require_free_part(p, rho)
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
    kernel = _integer_kernel(p.relator_exponents, n)
    return [tuple(r) for r in _row_hnf(_integer_kernel(kernel, n))]
