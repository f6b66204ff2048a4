"""Wrong versions of the shortcuts the answers rest on, each patched in to
show that a committed cross-check or certificate catches it.

A mutant test adds to the check it exercises and never replaces it: the
check itself stays in its own test file, and here it must fail."""

import json

import pytest

from infalex import rep_semisimple
from infalex.cli import main
from infalex.errors import InternalInconsistencyError
from infalex.johnson import JohnsonContext
from infalex.rep_semisimple import (LieAlgebraSpec, casimir_blocks, fundamental_module,
                                    wedge_power)


@pytest.fixture
def cross_term_without_its_factor_2(monkeypatch):
    """The Casimir of wedge^2 V assembled with sum_a x_a e_i ^ x^a e_j once
    instead of twice: the other terms are those of the right operator."""
    wedge_into = rep_semisimple._wedge_into

    def mutant(out, c, u, v, index):
        wedge_into(out, 1 if c == 2 else c, u, v, index)

    monkeypatch.setattr(rep_semisimple, "_wedge_into", mutant)


def test_cross_term_mutant_fails_the_wedge_square_cross_check(cross_term_without_its_factor_2):
    v = fundamental_module(LieAlgebraSpec("sp", 3), 3)
    assembled = casimir_blocks(v, 2)
    square = casimir_blocks(wedge_power(v, 2))
    assert any(assembled[w] != block for w, block in square.items())


def test_cross_term_mutant_fails_the_weyl_certificate_g4(cross_term_without_its_factor_2):
    # at g = 4 the kernel of f(C) shrinks to nothing: dim Q reads 1127
    with pytest.raises(InternalInconsistencyError,
                       match=r"dim Q = 1127 against weyl_dim\(2 lambda_2\) = 308"):
        JohnsonContext(4)


def test_cross_term_mutant_exits_4(capsys, fresh_contexts, cross_term_without_its_factor_2):
    code = main(["johnson", "--genus", "4", "--max-degree", "1"])
    assert code == 4
    assert json.loads(capsys.readouterr().out)["error"] == "inconsistency"
