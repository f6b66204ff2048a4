"""The four benchmark workloads: input generation, the timed computation and
the correctness check of each item.

Inputs are plain data (ints, tuples, lists) drawn from a seeded
``random.Random``; infalex only ever sees those generated inputs.  Each
workload is a triple of functions:

* ``generate(rng, seconds) -> [item, ...]`` builds every input up front, so
  it counts as set-up, not as measured work;
* ``compute(item) -> result`` is the timed call into infalex's public API;
* ``check(item, result) -> (canonical_output, problems)`` compares the
  result with a reference that does not come from the route being timed,
  and returns a JSON-able canonical form of the answer for the output hash.

Infalex modules are called through their module objects (``quad_lie.bb_direct``
and not a name bound at import time) so that the traced run's wrappers see
every call.
"""

from __future__ import annotations

from itertools import product
from math import comb

from infalex import alex_module, fox_alex, johnson, nilpotent_transport, quad_lie
from infalex.exact_linalg import CyclotomicScalar

# Work per run is fixed by (seed, seconds): a whole number of rounds, one
# draw per cell in each round, so every seed measures the same mix of shapes.
# The rates were set so that one run takes about --seconds on a 2-core x86
# machine with CPython 3.11.


def _rounds(seconds: float, rounds_per_second: float) -> int:
    return max(1, round(seconds * rounds_per_second))


def _random_relations(rng, n: int, count: int) -> list:
    """``count`` nonzero elements of wedge^2 V, coefficients in [-2, 2],
    drawn as in acceptance criterion 3; each is a list of (i, j, c)."""
    rels = []
    while len(rels) < count:
        rel = [(i, j, rng.randint(-2, 2)) for i in range(n) for j in range(i + 1, n)]
        rel = [t for t in rel if t[2]]
        if rel:
            rels.append(rel)
    return rels


def _presentation(item) -> quad_lie.LiePresentation:
    return quad_lie.LiePresentation.make(
        item["n"], [{(i, j): c for i, j, c in rel} for rel in item["relations"]])


def _chen_rank(n: int, q: int) -> int:
    return comb(q + n, q + 2) * (q + 1)


# ---------------------------------------------------------------------------
# johnson-g4: the paper's headline case
# ---------------------------------------------------------------------------

JOHNSON_G4_REFERENCE = {
    "genus": 4,
    "dims": {"V": 48, "Q": 308, "wedge2V": [819, 308, 1]},
    "coker_q": [308, 1232],
    "M": [309, 1232],
}


def johnson_generate(rng, seconds):
    # a single item whatever the seed or run length: it takes ~35-45 s
    return [{"genus": 4, "max_degree": 1}]


def johnson_compute(item):
    return johnson.johnson_module_dims(item["genus"], item["max_degree"],
                                       allow_large=True).to_json_dict()


def johnson_check(item, result):
    problems = [] if result == JOHNSON_G4_REFERENCE else [
        f"johnson dims {result} != reference {JOHNSON_G4_REFERENCE}"]
    return result, problems


# ---------------------------------------------------------------------------
# bb-direct: the brute-force Lie-algebra route, nabla as the oracle
# ---------------------------------------------------------------------------

# Criterion 3 draws n in {2,3,4} with up to 4 relations and checks q <= 4.
# n = 2 is left out: a draw there costs ~1 ms and measures nothing but
# overhead.  At n = 4 the direct route costs 5-23 s per draw at q = 4 and
# 0.07-1 s at q = 3, and one draw's cost varies by a third or more with its
# coefficients; a run needs hundreds of items for its total to be steady
# from seed to seed, so n = 4 stops at q = 2 (~15 ms per draw).
BB_DIRECT_MAX_DEGREE = {3: 4, 4: 2}
BB_DIRECT_CELLS = [(n, r) for n in (3, 4) for r in range(5)]
BB_DIRECT_ROUNDS_PER_SECOND = 5.0


def bb_direct_generate(rng, seconds):
    items = []
    for _ in range(_rounds(seconds, BB_DIRECT_ROUNDS_PER_SECOND)):
        for n, r in BB_DIRECT_CELLS:
            items.append({"n": n, "max_degree": BB_DIRECT_MAX_DEGREE[n],
                          "relations": _random_relations(rng, n, r)})
    return items


def bb_direct_compute(item):
    p = _presentation(item)
    return p, [quad_lie.bb_direct(p, q)[0] for q in range(item["max_degree"] + 1)]


def bb_direct_check(item, result):
    p, direct = result
    oracle = list(alex_module.coker_dims(alex_module.nabla(p), item["max_degree"]).dims)
    problems = [] if direct == oracle else [f"direct {direct} != nabla {oracle}"]
    return {"direct": direct}, problems


# ---------------------------------------------------------------------------
# bb-nabla: the presentation routes plus the exp/log transport
# ---------------------------------------------------------------------------

# q <= 2 keeps one item under ~2 s; at q = 3 the transport alone takes up
# to 7.5 s per draw and a run would hold only a handful of items.
BB_NABLA_MAX_DEGREE = 2
BB_NABLA_CELLS = [(5, 0), (5, 1), (5, 2), (5, 4), (5, 6), (6, 0), (6, 1)]
BB_NABLA_ROUNDS_PER_SECOND = 0.3


def bb_nabla_generate(rng, seconds):
    items = []
    for _ in range(_rounds(seconds, BB_NABLA_ROUNDS_PER_SECOND)):
        for n, r in BB_NABLA_CELLS:
            items.append({"n": n, "max_degree": BB_NABLA_MAX_DEGREE,
                          "relations": _random_relations(rng, n, r)})
    return items


def bb_nabla_compute(item):
    q_max = item["max_degree"]
    p = _presentation(item)
    gm = alex_module.nabla(p)
    dims = list(alex_module.coker_dims(gm, q_max).dims)
    dims_bar = list(alex_module.coker_dims(alex_module.nabla_bar(p), q_max).dims)
    total, mats = alex_module.coker_multiplication_action(gm, q_max)
    sym = nilpotent_transport.FinDimSymModule.make(total, mats)
    lau = nilpotent_transport.exp_transport(sym)
    match = nilpotent_transport.annihilator_exponent_match(lau, dims)
    back = nilpotent_transport.log_transport(lau) if total else sym
    return dims, dims_bar, total, match, sym, back


def bb_nabla_check(item, result):
    dims, dims_bar, total, match, sym, back = result
    n = item["n"]
    problems = []
    if dims != dims_bar:
        problems.append(f"nabla {dims} != nabla-bar {dims_bar}")
    if not item["relations"]:
        chen = [_chen_rank(n, q) for q in range(item["max_degree"] + 1)]
        if dims != chen:
            problems.append(f"free n={n}: {dims} != Chen ranks {chen}")
    if total != sum(dims):
        problems.append(f"action dimension {total} != sum of dims {sum(dims)}")
    if not match.matched:
        problems.append(f"annihilator exponents disagree: {match}")
    if back.actions != sym.actions:
        problems.append("log(exp(X)) != X")
    canonical = {"dims": dims, "total": total,
                 "laurent_exponent": match.laurent_exponent,
                 "first_zero": match.dims_first_zero}
    return canonical, problems


# ---------------------------------------------------------------------------
# cv-torsion: torsion sweeps over products of free groups
# ---------------------------------------------------------------------------

# F_2 x F_2 at m = 5 (phi(m) = 4): 625 characters, 3-4 s per sweep.  Larger
# factors or orders make one sweep longer than a run (F_2 x F_2 at m = 7:
# 2,401 characters, 12 s; F_2 x F_3 at m = 5: 3,125 characters).
CV_FACTORS = (2, 2)
CV_ORDER = 5
CV_SWEEPS_PER_SECOND = 0.25


def _commutator_relator(rng, x: int, y: int, letters: list[int]) -> list[int]:
    """A random but equivalent way to write [x, y]: either orientation, any
    cyclic rotation, conjugated by one letter that does not cancel, so every
    relator has length 6 and every sweep does the same amount of work."""
    word = [x, y, -x, -y] if rng.random() < 0.5 else [y, x, -y, -x]
    k = rng.randrange(4)
    word = word[k:] + word[:k]
    c = rng.choice([c for c in letters if c not in (-word[0], word[-1])])
    return [c] + word + [-c]


def cv_generate(rng, seconds):
    a, b = CV_FACTORS
    items = []
    for _ in range(_rounds(seconds, CV_SWEEPS_PER_SECOND)):
        labels = list(range(1, a + b + 1))
        rng.shuffle(labels)
        xs, ys = labels[:a], labels[a:]
        letters = labels + [-x for x in labels]
        relators = [_commutator_relator(rng, x, y, letters) for x in xs for y in ys]
        rng.shuffle(relators)
        items.append({"generators": a + b, "x_letters": xs, "y_letters": ys,
                      "order": CV_ORDER, "relators": relators})
    return items


def cv_compute(item):
    p = fox_alex.GroupPresentation.make(item["generators"], item["relators"])
    return fox_alex.torsion_sweep(p, item["order"], 1,
                                  budget=item["order"] ** item["generators"])


def cv_reference(item) -> set[tuple[int, ...]]:
    """Depth-1 members of F_a x F_b at m-torsion, by the Kunneth formula:
    H_1 with rank-one coefficients vanishes unless the character is trivial
    on one factor, and is nonzero when it is (both factors have rank >= 2)."""
    m, n = item["order"], item["generators"]
    xs = [x - 1 for x in item["x_letters"]]
    ys = [y - 1 for y in item["y_letters"]]
    return {e for e in product(range(m), repeat=n)
            if not any(e[i] for i in xs) or not any(e[j] for j in ys)}


def cv_check(item, result):
    m = item["order"]
    exponent_of = {CyclotomicScalar.zeta(m, k).coeffs: k for k in range(m)}
    found = sorted(tuple(exponent_of[v.coeffs] for v in rho.values) for rho in result)
    expected = sorted(cv_reference(item))
    problems = [] if found == expected else [
        f"{len(found)} members != {len(expected)} expected "
        f"(first differences {sorted(set(found) ^ set(expected))[:3]})"]
    return {"members": found}, problems


WORKLOADS = {
    "johnson-g4": (johnson_generate, johnson_compute, johnson_check),
    "bb-direct": (bb_direct_generate, bb_direct_compute, bb_direct_check),
    "bb-nabla": (bb_nabla_generate, bb_nabla_compute, bb_nabla_check),
    "cv-torsion": (cv_generate, cv_compute, cv_check),
}
