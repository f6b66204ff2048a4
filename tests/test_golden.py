"""Byte-identity guard for the CLI: replay a fixed command list and compare
stdout with the outputs recorded in ``tests/golden/``.

The recorded outputs are the contract, so a change that alters any byte of
them has to say so by re-recording.  A refusal is recorded with its exit
code as well.  To re-record after a deliberate change:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from infalex.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> argv, or (argv, exit code) for a run that must fail that way;
# "@file.json" names an input document in tests/golden/
COMMANDS = {
    "witt": ["witt", "-n", "3", "-q", "6"],
    "chen": ["chen", "-n", "3", "-q", "3"],
    "bb_nabla": ["bb", "--presentation", "@presentation.json", "--max-degree", "3",
                 "--method", "nabla"],
    "bb_nabla_bar": ["bb", "--presentation", "@presentation.json", "--max-degree", "3",
                     "--method", "nabla-bar"],
    "bb_direct": ["bb", "--presentation", "@presentation.json", "--max-degree", "3",
                  "--method", "direct"],
    "bb_direct_filled": ["bb", "--presentation", "@presentation_filled.json",
                         "--max-degree", "4", "--method", "direct"],
    "johnson_g3": ["johnson", "--genus", "3", "--max-degree", "1"],
    "johnson_g3_deg2": ["johnson", "--genus", "3", "--max-degree", "2"],
    "johnson_g4": ["johnson", "--genus", "4", "--max-degree", "1", "--allow-large"],
    "decompose_g3_central_z": ["decompose", "--genus", "3", "--central-z"],
    "decompose_g4": ["decompose", "--genus", "4", "--allow-large"],
    "decompose_g4_central_z": ["decompose", "--genus", "4", "--central-z"],
    "fox_z2": ["fox", "--presentation", "@group_z2.json"],
    "fox_f2xz": ["fox", "--presentation", "@group_f2xz.json"],
    "cv_character": ["cv", "--presentation", "@group_f2xz.json", "--character=zeta_3,-1,1"],
    "cv_character_restricted": ["cv", "--presentation", "@group_f2xz.json",
                                "--character=zeta_3,1/2,1", "--restricted"],
    "cv_torsion3": ["cv", "--presentation", "@group_f2xz.json", "--torsion", "3"],
    "cv_torsion3_depth2": ["cv", "--presentation", "@group_f2xz.json", "--torsion", "3",
                           "--depth", "2"],
    "cv_torsion5": ["cv", "--presentation", "@group_f2xz.json", "--torsion", "5"],
    "cv_torsion6_depth2": ["cv", "--presentation", "@group_f2xz.json", "--torsion", "6",
                           "--depth", "2"],
    "nilpotence_unipotent": ["nilpotence", "--module", "@module_unipotent.json"],
    "nilpotence_scaling": ["nilpotence", "--module", "@module_scaling.json"],
    "oracle_check": ["oracle-check", "--trials", "3"],
    "csv_decompose_g3": ["--csv", "decompose", "--genus", "3"],
    "csv_bb_direct": ["--csv", "bb", "--presentation", "@presentation.json",
                      "--max-degree", "2", "--method", "direct"],
    "refuse_johnson_g9": (["johnson", "--genus", "9", "--max-degree", "0"], 3),
    "refuse_johnson_g4_deg2": (["johnson", "--genus", "4", "--max-degree", "2"], 3),
    "refuse_cv_torsion9_budget5": (["cv", "--presentation", "@group_f2xz.json",
                                    "--torsion", "9", "--budget", "5"], 3),
}


def _command(name: str) -> tuple[list[str], int]:
    entry = COMMANDS[name]
    argv, code = entry if isinstance(entry, tuple) else (entry, 0)
    return [str(GOLDEN / a[1:]) if a.startswith("@") else a for a in argv], code


def _stdout(name: str) -> tuple[int, bytes]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(_command(name)[0])
    return code, buf.getvalue().encode()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_stdout(name):
    code, out = _stdout(name)
    assert code == _command(name)[1]
    assert out == (GOLDEN / f"{name}.out").read_bytes()


# one command per layer whose output could follow set or dict iteration order
HASH_SEED_COMMANDS = ["johnson_g3", "decompose_g3_central_z", "bb_direct", "bb_direct_filled",
                      "fox_f2xz", "cv_torsion5"]


@pytest.mark.parametrize("name", HASH_SEED_COMMANDS)
def test_golden_stdout_under_two_hash_seeds(name):
    # string hashing is randomized per process: run each command in a fresh
    # interpreter under two fixed seeds, and both must print the golden
    src = Path(__file__).resolve().parent.parent / "src"
    argv, code = _command(name)
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-m", "infalex.cli"] + argv,
                              capture_output=True, env=env)
        assert proc.returncode == code, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    for name in sorted(COMMANDS):
        code, out = _stdout(name)
        if code != _command(name)[1]:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN / f"{name}.out").write_bytes(out)
        print(f"wrote {name}.out ({len(out)} bytes)")
