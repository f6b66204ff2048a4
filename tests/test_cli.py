import json

import pytest

from infalex.cli import main

from module_builders import AmbiguousDecompositionError

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


def test_chen_at_500_generators(capsys):
    # wedge^2 of 500 variables: Sym_0 and Sym_1 are enumerated with no
    # recursion per variable, so a valid input past the recursion limit answers
    code, out = run(capsys, ["chen", "-n", "500", "-q", "0"])
    assert code == 0
    assert json.loads(out) == {"closed_form": 124750, "computed": 124750, "match": True,
                               "n": 500, "q": 0}


def test_bb_on_a_free_presentation_at_500_generators(capsys, tmp_path):
    path = tmp_path / "free500.json"
    path.write_text(json.dumps({"dim_v": 500, "relations": []}))
    code, out = run(capsys, ["bb", "--max-degree", "0", "--presentation", str(path)])
    assert code == 0
    assert json.loads(out)["dims"] == [124750]


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


@pytest.mark.parametrize("genus", ["2", "-1"])
def test_genus_floor_before_budget(capsys, genus):
    # below genus 3 the request is malformed, whatever degree is asked for
    code = main(["johnson", "--genus", genus, "--max-degree", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: genus >= 3 required\n"


def test_central_z_g5_refused_before_any_work(capsys, monkeypatch):
    # the genus ceiling refuses --central-z at genus 5 before the context is built
    from infalex import johnson

    def no_context(g):
        raise AssertionError(f"context built for genus {g}")

    monkeypatch.setattr(johnson, "johnson_context", no_context)
    code, out = run(capsys, ["decompose", "--genus", "5", "--central-z"])
    assert code == 3
    assert json.loads(out) == {"error": "budget", "what": "genus", "genus": 5,
                               "limit": 4, "hint": "pass allow_large / --allow-large"}


@pytest.mark.parametrize("order,generators,facts", [
    # 2 ** 20000 has more digits than an int may print: the size is reported
    # by its factors
    (2, 20000, {"generators": 20000, "order": 2}),
    (2, 256, {"points": 2 ** 256}),
    (3, 162, {"generators": 162, "order": 3}),
])
def test_torsion_budget_refusal_of_a_huge_sweep(capsys, tmp_path, order, generators, facts):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"generators": generators, "relators": []}))
    code = main(["cv", "--torsion", str(order), "--presentation", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == ""
    assert json.loads(captured.out) == {"error": "budget", "what": "torsion_sweep",
                                        "limit": 100_000, **facts}


@pytest.mark.parametrize("lines", [0, 2])
@pytest.mark.parametrize("command", [["johnson", "--genus", "3", "--max-degree", "0"],
                                     ["decompose", "--genus", "3"]])
def test_internal_failure_exit_code(capsys, monkeypatch, fresh_contexts, command, lines):
    # the genus-3 context must find exactly one invariant line in wedge^2 V;
    # any other count is an internal failure, reported as exit 4, not a traceback
    from infalex import johnson
    highest_weight_vectors = johnson.highest_weight_vectors

    def wrong_lines(module):
        found = highest_weight_vectors(module)
        others = [(hw, v) for hw, v in found if any(hw.coefficients)]
        zero = [(hw, v) for hw, v in found if not any(hw.coefficients)]
        return others + zero * lines

    monkeypatch.setattr(johnson, "highest_weight_vectors", wrong_lines)
    code, out = run(capsys, command)
    assert code == 4
    assert json.loads(out)["error"] == "inconsistency"


def _weyl_dim_off_by_one(monkeypatch, johnson):
    weyl_dim = johnson.weyl_dim
    monkeypatch.setattr(johnson, "weyl_dim", lambda spec, hw: weyl_dim(spec, hw) + 1)


def _q_listed_twice(monkeypatch, johnson):
    highest_weight_vectors = johnson.highest_weight_vectors

    def twice(module):
        found = highest_weight_vectors(module)
        return found + [(hw, v) for hw, v in found if hw.coefficients[:2] == (0, 2)]

    monkeypatch.setattr(johnson, "highest_weight_vectors", twice)


@pytest.mark.parametrize("fault", [_weyl_dim_off_by_one, _q_listed_twice])
@pytest.mark.parametrize("command", [["johnson", "--genus", "3", "--max-degree", "0"],
                                     ["decompose", "--genus", "3"]])
def test_weyl_certificate_exit_code(capsys, monkeypatch, fresh_contexts, command, fault):
    # dim Q is read off as what R and z leave of wedge^2 V, and checked with
    # the constituents against the Weyl dimension formula; a count that
    # disagrees is an internal failure, reported as exit 4
    from infalex import johnson
    fault(monkeypatch, johnson)
    code, out = run(capsys, command)
    assert code == 4
    doc = json.loads(out)
    assert doc["error"] == "inconsistency"
    assert "weyl_dim(2 lambda_2)" in doc["detail"]


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


class Raw(str):
    """Document text written to the file as it is, not as a JSON string."""


# nesting past the parser's recursion limit
DEEP = Raw("[" * 100000 + "]" * 100000)

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
    pytest.param("bb", DEEP, "Lie presentation document is nested too deeply", id="bb-deep"),
    pytest.param("fox", DEEP, "group presentation document is nested too deeply", id="fox-deep"),
    pytest.param("nilpotence", DEEP, "module document is nested too deeply",
                 id="nilpotence-deep"),
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
    (["cv", "--torsion", "2", "--budget", "-1"], "--budget"),
    (["chen", "-n", "0", "-q", "1"], "-n must be >= 1, got 0"),
    (["chen", "-n", "-1", "-q", "1"], "-n must be >= 1, got -1"),
    (["witt", "-n", "0", "-q", "3"], "-n must be >= 1, got 0"),
    (["witt", "-n", "2", "-q", "-1"], "-q must be >= 1, got -1"),
    (["cv", "--torsion", "0"], "--torsion must be >= 1, got 0"),
    (["cv", "--torsion", "2", "--depth", "0"], "--depth must be >= 1, got 0"),
    (["cv", "--character=1,1", "--depth", "-1"], "--depth must be >= 1, got -1"),
    (["cv", "--torsion", "3", "--restricted"], "--torsion cannot be combined with --restricted"),
    (["cv", "--torsion", "3", "--character", "1,1"],
     "--torsion cannot be combined with --character"),
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


@pytest.mark.parametrize("argv,doc", [
    (["bb", "--max-degree", "1", "--presentation"],
     {"dim_v": 3, "relations": [[{"i": 0, "j": 1, "c": "1e-99999999"}]]}),
    (["cv", "--character=1e-99999999,1", "--presentation"], GROUP_F2),
])
def test_huge_decimal_exponent_usage_error(capsys, tmp_path, argv, doc):
    # Fraction would build 10**99999999 exactly; the exponent is refused first
    import time
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code = main(argv + [str(path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert elapsed < 1.0
    assert "decimal exponent" in captured.err


@pytest.mark.parametrize("argv,doc", [
    (["cv", "--torsion", "20011", "--presentation"], {"generators": 1, "relators": []}),
    (["cv", "--character=zeta_20011^1,1", "--presentation"], GROUP_F2),
])
def test_huge_cyclotomic_order_usage_error(capsys, tmp_path, argv, doc):
    # each order would build an m x phi(m) table of powers; the order is refused
    import time
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code = main(argv + [str(path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert elapsed < 1.0
    assert "cyclotomic order" in captured.err


@pytest.mark.parametrize("token", [
    pytest.param("zeta_3^x", id="exponent-not-an-integer"),
    pytest.param("zeta_^2", id="order-missing"),
    pytest.param("zeta_3^", id="exponent-missing"),
    pytest.param("zeta_3^" + "7" * 5000, id="exponent-beyond-the-digit-limit"),
])
def test_malformed_zeta_token_usage_error(capsys, files, token):
    # the error names the token and the form it should have
    code = main(["cv", f"--character={token},1", "--presentation", files["f2"]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert repr(token) in captured.err
    assert "zeta_m or zeta_m^j" in captured.err


@pytest.mark.parametrize("error", [KeyError("k"), TypeError("t"), ArithmeticError("a"),
                                   AmbiguousDecompositionError("d")])
def test_unexpected_failure_exit_code(capsys, monkeypatch, error):
    # a failure no usage or budget check foresaw is an inconsistency, not a traceback
    from infalex import cli

    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "lyndon_words", broken)
    code, out = run(capsys, ["witt", "-n", "2", "-q", "3"])
    assert code == 4
    doc = json.loads(out)
    assert doc["error"] == "inconsistency"
    assert type(error).__name__ in doc["detail"]


def _write(path, doc):
    path.write_text(doc if isinstance(doc, Raw) else json.dumps(doc))


@pytest.mark.parametrize("command,doc,needle", MALFORMED)
def test_malformed_document_usage_error(capsys, tmp_path, command, doc, needle):
    path = tmp_path / "doc.json"
    _write(path, doc)
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
    cases = [("bb", {"relations": []}), ("nilpotence", {"dimension": 2}),
             ("bb", DEEP), ("fox", DEEP), ("nilpotence", DEEP)]
    for t, (command, doc) in enumerate(cases):
        path = tmp_path / f"{command}{t}.json"
        _write(path, doc)
        proc = subprocess.run([sys.executable, "-m", "infalex.cli"] + ARGV[command] + [str(path)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr


# -- fuzz: generated malformed documents -------------------------------------

FUZZ_ARGV = {
    "bb": ["bb", "--max-degree", "1", "--presentation"],
    "fox": ["fox", "--presentation"],
    "cv-torsion": ["cv", "--torsion", "2", "--presentation"],
    "cv-character": ["cv", "--character=1,-1", "--presentation"],
    "nilpotence": ["nilpotence", "--module"],
}

FUZZ_FIELDS = ["dim_v", "relations", "i", "j", "c", "generators", "relators",
          "dimension", "matrices"]


def _fuzz_documents(st, command):
    """Arbitrary nested JSON, or a document of the command's shape with some
    fields bad; small enough that every run is quick (dim_v <= 4,
    generators <= 3, dimension <= 3)."""
    leaf = st.one_of(st.none(), st.booleans(), st.integers(-4, 4), st.floats(),
                     st.text(max_size=6))
    arbitrary = st.recursive(
        leaf, lambda kids: st.one_of(
            st.lists(kids, max_size=3),
            st.dictionaries(st.one_of(st.sampled_from(FUZZ_FIELDS), st.text(max_size=3)),
                            kids, max_size=3)),
        max_leaves=12)

    def maybe(good, bad=arbitrary):
        # a good value seven times in eight, so that some documents are valid
        return st.integers(0, 7).flatmap(lambda k: bad if k == 7 else good)

    scalar = maybe(st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-3", "0.25", "1e3"])),
                   st.one_of(arbitrary, st.sampled_from(
                       ["1/0", "x", "zeta_3", "1e-99999", "nan", "inf", "", "1/2/3"])))
    if command == "bb":
        term = maybe(st.fixed_dictionaries({"i": maybe(st.integers(-1, 4)),
                                            "j": maybe(st.integers(-1, 4)),
                                            "c": scalar}))
        shaped = st.fixed_dictionaries(
            {"dim_v": maybe(st.integers(-1, 4))},
            optional={"relations": maybe(st.lists(maybe(st.lists(term, max_size=3)),
                                                  max_size=3))})
    elif command == "nilpotence":
        row = maybe(st.lists(scalar, max_size=3))
        shaped = st.fixed_dictionaries(
            {"dimension": maybe(st.integers(-1, 3)),
             "matrices": maybe(st.lists(maybe(st.lists(row, max_size=3)), max_size=3))})
    else:
        relator = maybe(st.lists(maybe(st.integers(-4, 4)), max_size=6))
        shaped = st.fixed_dictionaries(
            {"generators": maybe(st.integers(-1, 3))},
            optional={"relators": maybe(st.lists(relator, max_size=3))})
    return st.one_of(arbitrary, shaped)


@pytest.mark.parametrize("command", sorted(FUZZ_ARGV))
def test_fuzzed_documents_exit_cleanly(tmp_path, command):
    # every document ends in a result, a usage error or a budget refusal:
    # never an inconsistency, never a traceback
    import io
    from contextlib import redirect_stderr, redirect_stdout
    hypothesis = pytest.importorskip("hypothesis")
    given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies
    path = tmp_path / "doc.json"

    @settings(max_examples=100, deadline=None)
    @given(_fuzz_documents(st, command))
    def check(doc):
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(FUZZ_ARGV[command] + [str(path)])
        assert code in (0, 2, 3), (code, out.getvalue())
        assert "Traceback" not in err.getvalue()

    check()


def test_package_imports_only_the_standard_library():
    import ast
    import pathlib
    import sys
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "infalex"
    files = sorted(src.glob("*.py"))
    assert files
    outside = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {n}" for n in names
                        if n.partition(".")[0] not in sys.stdlib_module_names]
    assert not outside, outside


def test_package_has_no_unused_imports():
    import ast
    import pathlib
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "infalex"
    unused = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for a in node.names:
                    imported[a.asname or a.name.partition(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, unused


def test_package_defines_no_function_it_never_names():
    # every function and method of the package but a dunder is named, as a
    # bare name or an attribute, somewhere in src/infalex outside its own
    # def: code that neither the package nor the CLI calls does not stay in
    # src/.  A documented test oracle that the package never names would be
    # listed in oracles; none is today.  A name shared by two definitions
    # counts for both
    import ast
    import pathlib
    from collections import Counter
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "infalex"
    oracles: set[str] = set()

    def named(node):
        return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))]

    trees = [(path, ast.parse(path.read_text(), str(path))) for path in sorted(src.glob("*.py"))]
    uses = Counter(name for _path, tree in trees for name in named(tree))
    unnamed = [f"{path.name}:{node.lineno}: {node.name}" for path, tree in trees
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))
               and node.name not in oracles
               and uses[node.name] == named(node).count(node.name)]
    assert not unnamed, unnamed


def test_package_caches_are_bounded():
    # every lru_cache of the package, at module level or on a class, has a
    # maxsize: a long-lived caller must not grow one without limit
    import importlib
    import inspect
    import pkgutil
    import infalex
    found = {}
    for info in pkgutil.iter_modules(infalex.__path__):
        module = importlib.import_module(f"infalex.{info.name}")
        holders = [module] + [c for c in vars(module).values()
                              if inspect.isclass(c) and c.__module__ == module.__name__]
        for holder in holders:
            for key, value in vars(holder).items():
                if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                    found[f"{info.name}.{key}"] = value.cache_info().maxsize
    assert {"alex_module.monomials", "alex_module.monomial_index", "alex_module._cyclic_block",
            "free_lie._lyndon_words_cached", "free_lie.lyndon_index", "free_lie.tensor_expansion",
            "free_lie.basis_bracket"} <= found.keys()
    assert [name for name, maxsize in found.items() if maxsize is None] == []


def test_package_has_no_uncalled_code():
    # Every function, class and method of the package must be reachable from
    # a root: module- and class-level statements, dunder methods, cli.main,
    # or a definition whose docstring marks it as (part of) a test oracle.
    # The walk is by name: a use of .x on any object reaches every method
    # named x, and a use of x or of .x reaches every module-level definition
    # named x.  A bare name never reaches a method, so a local variable that
    # shares a method's name keeps no dead method alive; a dead method that
    # shares its name with a live attribute still passes.
    import ast
    import pathlib
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "infalex"
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)

    def names(nodes):
        """(bare names, attribute names) used in nodes."""
        walked = [n for node in nodes for n in ast.walk(node)]
        return ({n.id for n in walked if isinstance(n, ast.Name)},
                {n.attr for n in walked if isinstance(n, ast.Attribute)})

    defs = []        # (label, name, is a method, names it uses, is a root)
    bare, attrs = set(), set()   # names used by what is reached so far

    def use(used):
        bare.update(used[0])
        attrs.update(used[1])

    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(stmt, funcs + (ast.ClassDef,)):
                use(names([stmt]))
                continue
            if isinstance(stmt, ast.ClassDef):
                use(names(m for m in stmt.body if not isinstance(m, funcs)))
                members = [(stmt.name, stmt, False, names(stmt.bases + stmt.decorator_list))]
                members += [(f"{stmt.name}.{m.name}", m, True, names([m]))
                            for m in stmt.body if isinstance(m, funcs)]
            else:
                members = [(stmt.name, stmt, False, names([stmt]))]
            for label, node, method, used in members:
                label = f"{path.stem}.{label}"
                root = (label == "cli.main"
                        or node.name.startswith("__") and node.name.endswith("__")
                        or "test oracle" in (ast.get_docstring(node) or "").lower())
                defs.append((label, node.name, method, used, root))
    reached = set()
    grew = True
    while grew:
        grew = False
        for label, name, method, used, root in defs:
            if label not in reached and (root or name in attrs
                                         or not method and name in bare):
                reached.add(label)
                use(used)
                grew = True
    uncalled = [label for label, *_ in defs if label not in reached]
    assert not uncalled, uncalled


def test_traced_layers_resolve():
    # perfbench/spans.py wraps each (module, attribute path) of LAYERS by
    # name, so renaming a traced function must fail here and not only in
    # the traced benchmark run
    import importlib
    import importlib.util
    import pathlib
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for layer, module_name, attr in spans.LAYERS:
        owner = importlib.import_module(f"infalex.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{layer}: infalex.{module_name}.{attr}")
    assert spans.LAYERS and not missing, missing
