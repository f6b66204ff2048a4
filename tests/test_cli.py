import json

import pytest

from infalex.cli import main

PRES = {"dim_v": 3, "relations": [[{"i": 0, "j": 1, "c": "1"}]]}
GROUP_Z2 = {"generators": 2, "relators": [[1, 2, -1, -2]]}
GROUP_F2 = {"generators": 2, "relators": []}
MODULE = {"dimension": 2, "matrices": [[[1, 1], [0, 1]]]}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, doc in [("pres", PRES), ("z2", GROUP_Z2), ("f2", GROUP_F2),
                      ("mod", MODULE)]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_witt(capsys):
    code, out = run(capsys, ["witt", "-n", "2", "-q", "4"])
    assert code == 0
    assert json.loads(out) == {"n": 2, "q": 4, "count": 3}


def test_chen(capsys):
    code, out = run(capsys, ["chen", "-n", "2", "-q", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["closed_form"] == 4 and doc["computed"] == 4 and doc["match"]


def test_bb_methods_agree(capsys, files):
    outs = []
    for method in ("nabla", "nabla-bar", "direct"):
        code, out = run(capsys, ["bb", "--presentation", files["pres"],
                                 "--max-degree", "3", "--method", method])
        assert code == 0
        outs.append(json.loads(out)["dims"])
    assert outs[0] == outs[1] == outs[2]


def test_johnson_degree0(capsys):
    code, out = run(capsys, ["johnson", "--genus", "3", "--max-degree", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["coker_q"] == [90]
    assert doc["M"] == [91]


def test_decompose(capsys):
    code, out = run(capsys, ["decompose", "--genus", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 91
    assert [p["dim"] for p in doc["parts"]] == [0, 90, 1]


def test_fox(capsys, files):
    code, out = run(capsys, ["fox", "--presentation", files["z2"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["generators"] == 2
    assert len(doc["alexander_matrix"]) == 2


def test_cv_character(capsys, files):
    code, out = run(capsys, ["cv", "--presentation", files["z2"],
                             "--character=-1,1", "--depth", "1"])
    assert code == 0
    assert json.loads(out)["member"] is False
    code, out = run(capsys, ["cv", "--presentation", files["f2"],
                             "--character=2,1", "--depth", "1"])
    assert code == 0
    assert json.loads(out)["member"] is True


def test_cv_torsion_sweep(capsys, files):
    code, out = run(capsys, ["cv", "--presentation", files["z2"],
                             "--torsion", "2", "--depth", "1"])
    assert code == 0
    assert json.loads(out)["members"] == [[0, 0]]


def test_nilpotence(capsys, files):
    code, out = run(capsys, ["nilpotence", "--module", files["mod"]])
    assert code == 0
    assert json.loads(out) == {"dimension": 2, "nilpotent": True, "exponent": 2}


def test_oracle_check(capsys):
    code, out = run(capsys, ["oracle-check", "--trials", "4", "--seed", "7"])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["witt", "-n", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_budget_exit_code(capsys):
    code, out = run(capsys, ["johnson", "--genus", "9", "--max-degree", "0"])
    assert code == 3
    assert json.loads(out)["error"] == "budget"


def test_missing_file_usage(capsys):
    code, _ = run(capsys, ["bb", "--presentation", "/nonexistent.json",
                           "--max-degree", "1"])
    assert code == 2


def test_csv_output(capsys):
    code, out = run(capsys, ["--csv", "witt", "-n", "2", "-q", "3"])
    assert code == 0
    header, values = out.strip().split("\n")
    assert header.split(",") == ["count", "n", "q"]
    assert values.split(",") == ["2", "2", "3"]


def test_csv_flag_after_subcommand(capsys):
    code, out = run(capsys, ["witt", "-n", "2", "-q", "3", "--csv"])
    assert code == 0
    assert out.startswith("count,n,q")


def test_csv_quotes_commas(capsys):
    import csv as csv_mod
    import io
    code, out = run(capsys, ["decompose", "--genus", "3", "--csv"])
    assert code == 0
    rows = list(csv_mod.reader(io.StringIO(out)))
    assert len(rows[0]) == len(rows[1])
    assert "V(0,2,0)" in rows[1]


def test_determinism_all_commands(capsys, files):
    commands = [
        ["witt", "-n", "3", "-q", "5"],
        ["chen", "-n", "3", "-q", "2"],
        ["bb", "--presentation", files["pres"], "--max-degree", "2",
         "--method", "nabla"],
        ["johnson", "--genus", "3", "--max-degree", "1"],
        ["decompose", "--genus", "3"],
        ["fox", "--presentation", files["z2"]],
        ["cv", "--presentation", files["z2"], "--torsion", "4", "--depth", "1"],
        ["cv", "--presentation", files["f2"], "--character=2,1"],
        ["nilpotence", "--module", files["mod"]],
        ["oracle-check", "--trials", "3"],
    ]
    for argv in commands:
        first = run(capsys, argv)
        second = run(capsys, argv)
        assert first == second, argv


# malformed documents: (subcommand, document, text the error must contain)
MALFORMED = [
    ("bb", {"relations": []}, "dim_v"),
    ("bb", [], "JSON object"),
    ("bb", {"dim_v": "3"}, "dim_v"),
    ("bb", {"dim_v": 3, "relations": {"i": 0}}, "relations"),
    ("bb", {"dim_v": 3, "relations": [5]}, "relations[0]"),
    ("bb", {"dim_v": 3, "relations": [[5]]}, "relations[0][0]"),
    ("bb", {"dim_v": 3, "relations": [[{"i": 0, "j": 1}]]}, "relations[0][0].c"),
    ("bb", {"dim_v": 3, "relations": [[{"i": 0, "j": [1], "c": 1}]]}, "relations[0][0].j"),
    ("bb", {"dim_v": 3, "relations": [[{"i": 0, "j": 1, "c": "1/0"}]]}, "relations[0][0].c"),
    ("bb", {"dim_v": 3, "relations": [[{"i": 0, "j": 7, "c": 1}]]}, "out of range"),
    ("fox", {"relators": []}, "generators"),
    ("fox", "F2", "JSON object"),
    ("fox", {"generators": 2, "relators": 7}, "relators"),
    ("fox", {"generators": 2, "relators": [[1, "x"]]}, "relators[0][1]"),
    ("fox", {"generators": 2, "relators": [[1, 3]]}, "out of range"),
    ("cv", None, "JSON object"),
    ("cv", {"generators": 2.5}, "generators"),
    ("cv", {"generators": 2, "relators": [1, 2]}, "relators[0]"),
    ("nilpotence", {"dimension": 2}, "matrices"),
    ("nilpotence", {"matrices": []}, "dimension"),
    ("nilpotence", {"dimension": True, "matrices": []}, "dimension"),
    ("nilpotence", {"dimension": -1, "matrices": []}, "dimension"),
    ("nilpotence", {"dimension": 2, "matrices": [[1, 2]]}, "matrices[0][0]"),
    ("nilpotence", {"dimension": 2, "matrices": [[[1, "a"], [0, 1]]]}, "matrices[0][0][1]"),
    ("nilpotence", {"dimension": 2, "matrices": [[[1, 0]]]}, "2-dim"),
]

ARGV = {
    "bb": ["bb", "--max-degree", "1", "--presentation"],
    "fox": ["fox", "--presentation"],
    "cv": ["cv", "--character=1,1", "--presentation"],
    "nilpotence": ["nilpotence", "--module"],
}


@pytest.mark.parametrize("argv,needle", [
    (["cv", "--character", "1/0,1"], "'1/0'"),
    (["cv", "--character", "zeta_0^1,zeta_0^1"], "'zeta_0^1'"),
    (["chen", "-n", "2", "-q", "-1"], "-1"),
    (["bb", "--max-degree", "-1"], "--max-degree"),
    (["johnson", "--genus", "3", "--max-degree", "-1"], "--max-degree"),
    (["oracle-check", "--trials", "-1"], "--trials"),
])
def test_bad_argument_usage_error(capsys, files, argv, needle):
    if argv[0] == "cv":
        argv = argv + ["--presentation", files["f2"]]
    if argv[0] == "bb":
        argv = argv + ["--presentation", files["pres"]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert needle in captured.err


@pytest.mark.parametrize("command,doc,needle", MALFORMED)
def test_malformed_document_usage_error(capsys, tmp_path, command, doc, needle):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main(ARGV[command] + [str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert needle in captured.err


def test_malformed_document_no_traceback_subprocess(tmp_path):
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for command, doc in [("bb", {"relations": []}), ("nilpotence", {"dimension": 2})]:
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run([sys.executable, "-m", "infalex.cli"] + ARGV[command] + [str(path)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
