"""Acceptance suite: the exit criteria, one test per criterion.

Every comparison here is exact (rational arithmetic throughout); there are
no numeric tolerances to calibrate.  Each test prints a single PASS line;
run with `pytest tests/test_acceptance.py -v -s` to see them.
"""

import itertools
import json
import random
from fractions import Fraction
from math import comb

import pytest

from infalex.alex_module import (coker_dims, coker_multiplication_action,
                                 delta3, monomial_index, nabla, nabla_bar)
from infalex.cli import main as cli_main
from infalex.fox_alex import Character, GroupPresentation, cv_membership, torsion_sweep
from infalex.johnson import johnson_context, johnson_module_dims
from infalex.nilpotent_transport import (FinDimSymModule,
                                         annihilator_exponent_match,
                                         exp_transport, log_transport)
from infalex.quad_lie import LiePresentation, bb_direct, wedge2_index
from infalex.rep_semisimple import (HighestWeight, LieAlgebraSpec, casimir_blocks,
                                    casimir_eigenvalue,
                                    highest_weight_vectors, weyl_dim)

from module_builders import (alexander_row_defect, casimir_eigenspace, chen_module_weight,
                             equivariance_defect, fox_identity_defect, sl_weyl_dim)

PASS = "PASS criterion {}: {}"


def _random_presentation(rng, n, max_rel):
    rels = []
    for _ in range(rng.randint(0, max_rel)):
        rel = {(i, j): rng.randint(-2, 2) for i in range(n) for j in range(i + 1, n)}
        rel = {k: v for k, v in rel.items() if v}
        if rel:
            rels.append(rel)
    return LiePresentation.make(n, rels)


def test_criterion_1_chen_koszul_dimensions():
    for n in (2, 3, 4):
        dims = coker_dims(delta3(n), 5)
        for q in range(6):
            assert dims[q] == comb(q + n, q + 2) * (q + 1), (n, q)
    print(PASS.format(1, "coker(delta3) degree dims equal (q+n choose q+2)(q+1) "
                         "for n in {2,3,4}, q in 0..5"))


def test_criterion_2_highest_weight_identification():
    for n in (2, 3, 4):
        d3 = delta3(n)
        dims = coker_dims(d3, 5)
        pair_idx = wedge2_index(n)[(0, 1)]
        for q in range(6):
            assert sl_weyl_dim(n, chen_module_weight(n, q)) == dims[q], (n, q)
            # the vector e1^q (x) (e1 ^ e2) survives in the cokernel
            mono = tuple(q if t == 0 else 0 for t in range(n))
            row = monomial_index(n, q)[mono] * d3.target_dim + pair_idx
            mat = d3.instantiate(q)
            assert not mat.column_span().contains({row: Fraction(1)}), (n, q)
    print(PASS.format(2, "sl_weyl_dim(n, q*l1+l2) matches and e1^q(x)(e1^e2) "
                         "has nonzero image in the cokernel"))


def test_criterion_3_presentation_oracle_equivalence():
    rng = random.Random(20240917)
    sizes = [2] * 20 + [3] * 20 + [4] * 14
    checked = 0
    for trial, n in enumerate(sizes):
        p = _random_presentation(rng, n, 4)
        a = list(coker_dims(nabla(p), 4).dims)
        b = list(coker_dims(nabla_bar(p), 4).dims)
        c = [bb_direct(p, q)[0] for q in range(5)]
        assert a == b == c, (trial, n, p.relations, a, b, c)
        checked += 1
    assert checked >= 50
    print(PASS.format(3, f"coker(nabla) = coker(nabla-bar) = direct dims for "
                         f"{checked} random presentations, q <= 4"))


def test_criterion_4_johnson_decomposition():
    # genus 3
    ctx3 = johnson_context(3)
    assert ctx3.V.dimension == 14
    assert (ctx3.r_dim, ctx3.q_dim, 1) == (0, 90, 1)
    assert ctx3.r_dim + ctx3.q_dim + 1 == 91
    # cross-check: Casimir eigenspace dims against the Weyl formula
    sp3 = LieAlgebraSpec(3)
    assert ctx3.q_dim == weyl_dim(sp3, HighestWeight((0, 2, 0)))
    blocks3 = casimir_blocks(ctx3.W2)
    c_q3, c_z3 = (casimir_eigenvalue(sp3, hw) for hw in (ctx3.hw_two_l2, ctx3.hw_zero))
    assert len(casimir_eigenspace(ctx3.W2, c_q3, blocks=blocks3)) == 90
    assert len(casimir_eigenspace(ctx3.W2, c_z3, blocks=blocks3)) == 1
    # genus 4
    ctx4 = johnson_context(4)
    sp4 = LieAlgebraSpec(4)
    parts = (ctx4.r_dim, ctx4.q_dim, 1)
    assert sum(parts) == comb(48, 2) == 1128
    assert parts[2] == 1
    assert ctx4.q_dim == weyl_dim(sp4, HighestWeight((0, 2, 0, 0))) == 308
    blocks4 = casimir_blocks(ctx4.W2)
    c_q4, c_z4 = (casimir_eigenvalue(sp4, hw) for hw in (ctx4.hw_two_l2, ctx4.hw_zero))
    assert len(casimir_eigenspace(ctx4.W2, c_q4, blocks=blocks4)) == 308
    assert len(casimir_eigenspace(ctx4.W2, c_z4, blocks=blocks4)) == 1
    # the complement matches the Weyl dims of the remaining constituents
    rest = [hw for hw, _v in highest_weight_vectors(ctx4.W2)
            if hw not in (ctx4.hw_two_l2, ctx4.hw_zero)]
    assert ctx4.r_dim == sum(weyl_dim(sp4, hw) for hw in rest) == 819
    print(PASS.format(4, "wedge^2 V(l3): g=3 gives (0, 90, 1) with dim V = 14; "
                         "g=4 gives three summands summing to 1128, V(0) = 1, "
                         "Q = weyl_dim(sp_8, 2*l2) = 308; Weyl and Casimir "
                         "paths agree"))


def test_criterion_5_johnson_module_degree0_and_equivariance():
    rng = random.Random(5150)
    for g in (3, 4):
        spec = LieAlgebraSpec(g)
        rep = johnson_module_dims(g, 0)
        expected = 1 + weyl_dim(spec, HighestWeight((0, 2) + (0,) * (g - 2)))
        assert rep.m_dims[0] == expected, g
        ctx = johnson_context(g)
        labels = list(ctx.V.actions)
        n = ctx.V.dimension
        triples = list(itertools.combinations(range(n), 3))
        for _ in range(20):
            label = rng.choice(labels)
            svec = {}
            for _ in range(rng.randint(1, 2)):
                mono = [0] * n
                for _ in range(rng.randint(0, 2)):
                    mono[rng.randrange(n)] += 1
                svec[(tuple(mono), rng.choice(triples))] = Fraction(rng.randint(-3, 3))
            svec = {k: v for k, v in svec.items() if v}
            assert equivariance_defect(ctx, label, svec) == {}, (g, label)
    print(PASS.format(5, "M degree 0 = 1 + weyl_dim(sp_2g, 2*l2) for g in {3,4}; "
                         "q equivariant on 20 random generator/vector pairs per genus"))


def test_criterion_6_nilpotence_equivalence():
    rng = random.Random(808)
    heisenberg = [{(0, 1): 1}, {(0, 3): 1}, {(1, 2): 1}, {(2, 3): 1},
                  {(0, 2): 1, (1, 3): -1}]
    fixed = [
        LiePresentation.make(2, [{(0, 1): 1}]),                   # abelian
        LiePresentation.make(3, [{(i, j): 1} for i in range(3)
                                 for j in range(i + 1, 3)]),      # abelian
        LiePresentation.make(4, heisenberg),                      # exponent 1
        LiePresentation.make(2, []),                              # vacuous
        LiePresentation.make(3, []),                              # vacuous
    ]
    pairs = 0
    roundtrips = 0
    presentations = list(fixed)
    while len(presentations) < 22:
        n = rng.choice([2, 3, 3, 4])
        presentations.append(_random_presentation(rng, n, comb(n, 2)))
    for p in presentations:
        n_deg = 4
        gm = nabla(p)
        dims = list(coker_dims(gm, n_deg).dims)
        total, mats = coker_multiplication_action(gm, n_deg)
        sym = FinDimSymModule.make(total, mats)
        lau = exp_transport(sym)
        back = log_transport(lau) if total else sym
        assert all(x == y for x, y in zip(back.actions, sym.actions))
        roundtrips += 1
        res = annihilator_exponent_match(lau, dims)
        assert res.matched, (p.dim_v, p.relations, dims, res)
        pairs += 1
    assert pairs >= 20
    print(PASS.format(6, f"annihilator exponents agree on {pairs} synthetic "
                         f"module/presentation pairs; {roundtrips} exact "
                         f"log/exp round trips"))


def test_criterion_7_characteristic_variety_point_tests():
    rng = random.Random(31337)
    z2 = GroupPresentation.make(2, [(1, 2, -1, -2)])
    tested = 0
    while tested < 100:
        n = rng.choice([2, 3, 4])
        fn = GroupPresentation.make(n, [])
        if rng.random() < 0.5:
            vals = [Fraction(rng.choice([-3, -2, -1, 2, 3, Fraction(1, 2)]))
                    for _ in range(n)]
            rho = Character.rational(vals)
        else:
            m = rng.choice([2, 3, 4, 5])
            rho = Character.torsion(m, [rng.randrange(m) for _ in range(n)])
        if rho.is_trivial():
            continue
        assert cv_membership(fn, rho, 1), (n, rho)
        tested += 1
    assert tested == 100
    # Z^2: no nontrivial character is a member
    for _ in range(40):
        vals = [Fraction(rng.choice([-2, -1, 1, 2, 3])) for _ in range(2)]
        rho = Character.rational(vals)
        if rho.is_trivial():
            continue
        assert not cv_membership(z2, rho, 1)
    for m in (2, 3, 4):
        found = torsion_sweep(z2, m, 1)
        assert len(found) == 1 and found[0].is_trivial(), m
    print(PASS.format(7, f"free-group membership true for {tested} nontrivial "
                         f"characters; Z^2 membership false off 1; torsion "
                         f"sweeps m=2..4 return only the trivial character"))


def test_criterion_8_fox_identity():
    rng = random.Random(777)
    for _ in range(200):
        n = rng.randint(1, 4)
        letters = [s * (i + 1) for i in range(n) for s in (1, -1)]
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 20)))
        assert fox_identity_defect(w, n) == {}, w
        # the same identity on the running matrix, over Z[Z^n]
        p = GroupPresentation.make(n, [w])
        assert alexander_row_defect(p.alexander, 0, p.relator_exponents[0]) == {}, w
    print(PASS.format(8, "sum_j dw/dx_j (x_j - 1) = w - 1 for 200 random words, "
                         "and sum_j A_j (t_j - 1) = t^e - 1 on their Alexander rows"))


def test_criterion_9_cli_determinism(tmp_path, capsys):
    pres = tmp_path / "p.json"
    pres.write_text(json.dumps({"dim_v": 3,
                                "relations": [[{"i": 0, "j": 1, "c": "1"}]]}))
    grp = tmp_path / "g.json"
    grp.write_text(json.dumps({"generators": 2, "relators": [[1, 2, -1, -2]]}))
    mod = tmp_path / "m.json"
    mod.write_text(json.dumps({"dimension": 2, "matrices": [[[1, 1], [0, 1]]]}))
    commands = [
        ["witt", "-n", "2", "-q", "4"],
        ["chen", "-n", "3", "-q", "2"],
        ["bb", "--presentation", str(pres), "--max-degree", "3",
         "--method", "direct"],
        ["johnson", "--genus", "3", "--max-degree", "1"],
        ["decompose", "--genus", "3", "--central-z"],
        ["fox", "--presentation", str(grp)],
        ["cv", "--presentation", str(grp), "--torsion", "3", "--depth", "1"],
        ["cv", "--presentation", str(grp), "--character=-1,1"],
        ["nilpotence", "--module", str(mod)],
        ["oracle-check", "--trials", "4"],
        ["--csv", "johnson", "--genus", "3", "--max-degree", "0"],
    ]
    for argv in commands:
        code1 = cli_main(argv)
        out1 = capsys.readouterr().out
        code2 = cli_main(argv)
        out2 = capsys.readouterr().out
        assert (code1, out1.encode()) == (code2, out2.encode()), argv
        assert code1 == 0
    print(PASS.format(9, f"{len(commands)} CLI invocations byte-identical "
                         f"across repeated runs"))
