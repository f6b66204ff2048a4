"""Weight modules built only as test inputs: symmetric powers and tensor
products of the modules that infalex.rep_semisimple constructs."""

from itertools import combinations_with_replacement, permutations, product

from infalex.exact_linalg import Vec, axpy
from infalex.rep_semisimple import WeightModule, sym_act


def sym_power(m: WeightModule, k: int) -> WeightModule:
    monos = sorted(tuple(sorted(c)) for c in combinations_with_replacement(range(m.dimension), k))
    expts = []
    for mono in monos:
        e = [0] * m.dimension
        for i in mono:
            e[i] += 1
        expts.append(tuple(e))
    index = {e: i for i, e in enumerate(expts)}
    weights = tuple(tuple(sum(e[i] * m.weights[i][t] for i in range(m.dimension))
                          for t in range(len(m.weights[0]))) for e in expts)
    actions = {}
    for label, cols in m.actions.items():
        actions[label] = tuple({index[t]: v for t, v in sym_act(cols, e).items()}
                               for e in expts)
    return WeightModule(m.algebra, len(expts), weights, actions)


def tensor_product(a: WeightModule, b: WeightModule) -> WeightModule:
    if a.algebra != b.algebra:
        raise ValueError("mismatched algebras")
    dim = a.dimension * b.dimension
    weights = tuple(tuple(x + y for x, y in zip(a.weights[i], b.weights[j]))
                    for i in range(a.dimension) for j in range(b.dimension))
    actions = {}
    for label in a.actions:
        ca, cb = a.actions[label], b.actions[label]
        new_cols = []
        for i in range(a.dimension):
            for j in range(b.dimension):
                col: Vec = {r * b.dimension + j: v for r, v in ca[i].items()}
                axpy(col, 1, {i * b.dimension + r: v for r, v in cb[j].items()})
                new_cols.append(col)
        actions[label] = tuple(new_cols)
    return WeightModule(a.algebra, dim, weights, actions)


def weyl_orbit(w: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The orbit of a weight under W(C_g), by enumerating every signed
    permutation of its epsilon coordinates."""
    return {tuple(s * x for s, x in zip(signs, perm))
            for perm in permutations(w) for signs in product((1, -1), repeat=len(w))}
