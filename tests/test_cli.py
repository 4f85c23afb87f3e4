"""CLI surface: subcommands, exit codes, byte-stable JSON output."""

import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gkmgraphs
import gkmgraphs.cli as cli
import gkmgraphs.cohomology as cohomology
import gkmgraphs.fixtures as fixtures
import gkmgraphs.hyperplanes as hyperplanes
from gkmgraphs.cli import main
from gkmgraphs.errors import ParseError
from gkmgraphs.fixtures import KlmSpec, gen_klm
from gkmgraphs.graph import META_KEYS, load_graph, serialize
from gkmgraphs.hyperplanes import Arrangement

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
# exit codes and stdout hashes of ``basis``, ``structure-constants`` and
# ``express`` as the ring-path expansion (exact division in the e_j)
# printed them, before the expansion moved to facet coordinates
SHELLING_REFERENCE = (
    Path(__file__).resolve().parent / "data" / "shelling_reference.json"
)
# exit codes and stdout hashes of ``cohomology`` (full and forgetful) and
# ``verify-iso`` as the solver printed them when its classes were
# ``{vertex: IntPolynomial}`` dictionaries, before they became coefficient
# vectors; and of ``verify-iso`` up to degree 5 as it printed them when it
# solved every degree for its classes, before it took ranks alone
SOLVER_REFERENCE = (
    Path(__file__).resolve().parent / "data" / "solver_reference.json"
)
SRC = Path(gkmgraphs.__file__).resolve().parents[1]


def child_env(**extra):
    """The environment of a child ``python``: this process's without
    PYTHONUNBUFFERED, so the child's stdout is buffered unless ``extra``
    sets it, the package's source tree on the path, and ``extra``."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env.update(extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def run_child(args, stdout=subprocess.PIPE, **kwargs):
    """Run ``python`` with the package's source tree on the path."""
    return subprocess.run(
        [sys.executable, *args],
        env=child_env(),
        stdout=stdout,
        stderr=subprocess.PIPE,
        **kwargs,
    )


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_fixture_ok(capsys):
    code, out = run(capsys, "validate", "--fixture", "fig2_left")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert {c["check"] for c in doc["checks"]} >= {
        "congruence", "pair_decomposition", "span"
    }


def test_validate_bad_file(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{\"rank\": 2, \"vertices\": [], \"darts\": []}")
    code, out = run(capsys, "validate", str(p))
    assert code == 1
    assert json.loads(out)["ok"] is False


@pytest.mark.parametrize(
    "field, value",
    [("vertices", None), ("darts", 5), ("connection", 5)],
    ids=["vertices-null", "darts-int", "connection-int"],
)
def test_malformed_field_is_a_json_error(tmp_path, capsys, field, value):
    """A field of the wrong type in an otherwise valid L(2,1,2) file is
    reported as a parse error, not a traceback."""
    doc = gen_klm(KlmSpec(2, 1, 2)).to_dict()
    doc[field] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, "validate", str(p))
    assert code == 1
    result = json.loads(out)
    assert result["ok"] is False
    assert field in result["error"]
    assert "internal" not in result


@pytest.mark.parametrize(
    "field, value",
    [("axial", 0.9), ("rank", 2.5), ("rank", True), ("rank", "2"),
     ("rank", "@HUGE")],
    ids=["axial-fraction", "rank-fraction", "rank-true", "rank-string",
         "rank-1e400"],
)
def test_graph_files_take_json_integers_only(tmp_path, capsys, field, value):
    """A number that is not a JSON integer is refused, not truncated: read
    as 0, the 0.9 would pass every check of ``validate``."""
    doc = gen_klm(KlmSpec(2, 1, 2)).to_dict()
    if field == "axial":
        doc["darts"][0]["axial"][0] = value
    else:
        doc[field] = value
    p = tmp_path / "bad.json"
    # 1e400 is a float out of range, which json.dumps cannot write
    p.write_text(json.dumps(doc).replace('"@HUGE"', "1e400"))
    code, out = run(capsys, "validate", str(p))
    assert code == 1
    result = json.loads(out)
    assert result["ok"] is False
    assert field in result["error"]
    assert "internal" not in result


GRAPH_COMMANDS = [
    ["validate"],
    ["hyperplanes"],
    ["assumptions"],
    ["cohomology", "--max-degree", "2"],
    ["verify-iso", "--max-degree", "2"],
    ["basis"],
    ["structure-constants"],
    ["express", "--poly", "L1"],
]


@pytest.mark.parametrize("stored", [True, False], ids=["stored", "derived"])
@pytest.mark.parametrize(
    "command", GRAPH_COMMANDS, ids=[c[0] for c in GRAPH_COMMANDS]
)
def test_a_zero_label_is_reported_not_a_traceback(
    tmp_path, capsys, stored, command
):
    """fig2_left with the label of one edge set to 0, with its connection
    stored in the file or left to be derived.  Every subcommand refuses
    it; ``cohomology`` runs ``validate_axial`` first and prints its
    report."""
    doc = fixtures.fixture("fig2_left").to_dict()
    for dart in doc["darts"]:
        if dart["id"] == "p:e":
            dart["axial"] = [0, 0, 0]
    if not stored:
        del doc["connection"]
    p = tmp_path / "zero.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, command[0], str(p), *command[1:])
    result = json.loads(out)
    assert "internal" not in result
    assert code == 1
    if command[0] in ("validate", "cohomology") and not stored:
        (check,) = [c for c in result["checks"] if c["check"] == "opposite_sign"]
        assert check["offenders"] == ["p:e"]


@pytest.mark.parametrize(
    "name", ["X\u00b2", "X" + "1" * 5000], ids=["superscript", "long-number"]
)
@pytest.mark.parametrize(
    "command", ["hyperplanes", "basis", "structure-constants"]
)
def test_hyperplane_names_sort_without_converting_their_number(
    tmp_path, capsys, name, command
):
    """A hyperplane named with a digit of another script, or with more
    digits than ``int`` converts, is sorted like any other name."""
    doc = json.loads(serialize(gen_klm(KlmSpec(2, 1, 2))))
    for key in ("hyperplane_names", "positive_normals"):
        doc[key][name] = doc[key].pop("X1")
    p = tmp_path / "renamed.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, command, str(p))
    assert code == 0
    assert "internal" not in json.loads(out)


MALFORMED_META = [
    ("positive_normals", "q:w"),
    ("positive_normals", 1),
    ("positive_normals", True),
    ("hyperplane_names", [0, 0, 0]),
    ("hyperplane_names", "x"),
    ("hyperplane_names", 7),
    ("hyperplane_names", {"X1": None}),
]


@pytest.mark.parametrize(
    "key, value",
    MALFORMED_META,
    ids=["normals-str", "normals-int", "normals-true", "names-list",
         "names-str", "names-int", "names-null-array"],
)
@pytest.mark.parametrize(
    "command",
    [["hyperplanes"], ["verify-iso", "--max-degree", "2"], ["basis"]],
    ids=["hyperplanes", "verify-iso", "basis"],
)
def test_malformed_metadata_is_a_parse_error(
    tmp_path, capsys, key, value, command
):
    doc = gen_klm(KlmSpec(2, 1, 2)).to_dict()
    doc[key] = value
    text = json.dumps(doc)
    with pytest.raises(ParseError) as exc:
        load_graph(text)
    assert exc.value.field == key
    p = tmp_path / "bad.json"
    p.write_text(text)
    code, out = run(capsys, command[0], str(p), *command[1:])
    assert code == 1
    result = json.loads(out)
    assert result["ok"] is False
    assert key in result["error"]
    assert "internal" not in result


@pytest.mark.parametrize(
    "command",
    [["hyperplanes"], ["assumptions"], ["basis"],
     ["verify-iso", "--max-degree", "2", "--forgetful"]],
    ids=["hyperplanes", "assumptions", "basis", "verify-iso"],
)
@pytest.mark.parametrize(
    "names, error",
    [
        ({"L1": "X2"}, "two hyperplanes are named 'L1'"),
        ({"A": "X2", "B": "X2"}, "hyperplane names 'A' and 'B' name one vertex set"),
    ],
    ids=["name-taken-twice", "two-names-one-set"],
)
def test_duplicate_hyperplane_names_are_refused(tmp_path, command, names, error):
    """A ``hyperplane_names`` that leaves two hyperplanes with one name, or
    gives two names one vertex set, is an input error that names the
    name: exit 1 and one document without ``internal``, not one hyperplane
    silently dropped (``L1`` given to X2's vertex set collides with the
    default name of the first hyperplane)."""
    doc = gen_klm(KlmSpec(2, 1, 2)).to_dict()
    vertex_sets = doc["hyperplane_names"]
    doc["hyperplane_names"] = {n: vertex_sets[of] for n, of in names.items()}
    del doc["positive_normals"]
    p = tmp_path / "named.json"
    p.write_text(json.dumps(doc))
    child = run_child(["-m", "gkmgraphs.cli", command[0], str(p), *command[1:]])
    assert child.returncode == 1
    assert json.loads(child.stdout) == {"error": error, "ok": False}
    assert child.stderr == b""


def _fig2_left_with(**meta):
    doc = fixtures.fixture("fig2_left").to_dict()
    doc.update(meta)
    return doc


def _l212_unnamed():
    """L(2,1,2) with its hyperplane names dropped and its positive normals
    kept under the names X1, ..., Z2, which then name nothing."""
    doc = gen_klm(KlmSpec(2, 1, 2)).to_dict()
    doc["hyperplane_names"] = None
    return doc


def _l212_normal_of_x1(normal):
    """L(2,1,2) with the positive normal of X1 recorded as ``normal``."""
    doc = gen_klm(KlmSpec(2, 1, 2)).to_dict()
    doc["positive_normals"]["X1"] = normal
    return doc


@pytest.mark.parametrize(
    "command",
    [["hyperplanes"], ["assumptions"], ["basis"],
     ["verify-iso", "--max-degree", "2"]],
    ids=["hyperplanes", "assumptions", "basis", "verify-iso"],
)
@pytest.mark.parametrize(
    "doc, error",
    [
        (lambda: _fig2_left_with(hyperplane_names={"Q": ["p"]}),
         "hyperplane_names entry 'Q' names no hyperplane"),
        (lambda: _fig2_left_with(positive_normals={"ZZ": "p:e"}),
         "positive_normals entry 'ZZ' names no hyperplane"),
        (_l212_unnamed, "positive_normals entry 'X1' names no hyperplane"),
        (lambda: _l212_normal_of_x1("nope"),
         "recorded normal 'nope' is not a normal of either halfspace of X1"),
        (lambda: _l212_normal_of_x1("X1.Y1:e"),
         "recorded normal 'X1.Y1:e' is not a normal of either halfspace "
         "of X1"),
    ],
    ids=["name-of-no-vertex-set", "normal-of-no-name",
         "normals-of-dropped-names", "normal-of-no-dart",
         "normal-in-its-hyperplane"],
)
def test_names_and_normals_that_name_no_hyperplane_are_refused(
    tmp_path, command, doc, error
):
    """A ``hyperplane_names`` entry whose vertex set is no hyperplane's, a
    ``positive_normals`` entry under a name that no hyperplane has, or one
    whose dart is no normal of its hyperplane (no dart at all, or a dart
    of the hyperplane itself), is an input error that names the entry:
    exit 1 and one document without ``internal``, not an entry silently
    ignored, on the commands that orient halfspaces and on those that do
    not."""
    p = tmp_path / "named.json"
    p.write_text(json.dumps(doc()))
    child = run_child(["-m", "gkmgraphs.cli", command[0], str(p), *command[1:]])
    assert child.returncode == 1
    assert json.loads(child.stdout) == {"error": error, "ok": False}
    assert child.stderr == b""


def _fig2_left_connection(edit):
    """fig2_left's document, its stored connection changed by ``edit``."""
    doc = fixtures.fixture("fig2_left").to_dict()
    edit(doc["connection"])
    return json.dumps(doc).encode()


def _fig2_left_self_opposite():
    """fig2_left's document without its connection, the leg ``p:s`` made
    an edge dart from p to p that is its own opposite."""
    doc = fixtures.fixture("fig2_left").to_dict()
    del doc["connection"]
    (leg,) = (d for d in doc["darts"] if d["id"] == "p:s")
    leg.update({"to": "p", "opposite": "p:s"})
    return json.dumps(doc).encode()


# (the bytes of a graph file, the error it is refused with)
BROKEN_DOCUMENTS = {
    "latin-1": (
        lambda: json.dumps(fixtures.fixture("fig2_left").to_dict())
        .replace('"p"', '"\u00e9"')
        .encode("latin-1"),
        "the graph is not UTF-8 text: invalid continuation byte",
    ),
    "nested-100000": (
        lambda: b"[" * 100000 + b"]" * 100000,
        "not valid JSON: arrays or objects nested too deeply",
    ),
    "integer-5000-digits": (
        lambda: b'{"rank": ' + b"9" * 5000 + b', "vertices": [], "darts": []}',
        "not valid JSON: an integer with too many digits",
    ),
    "rank-4300-digits": (
        lambda: (
            b'{"rank": ' + b"9" * 4300 + b', "vertices": ["a"], "darts": '
            b'[{"id": "a:1", "from": "a", "to": null, "opposite": null, '
            b'"axial": [1, 0]}]}'
        ),
        "rank is larger than the number of darts",
    ),
    "image-list": (
        lambda: _fig2_left_connection(lambda c: c["p:e"].update({"p:n": ["r:s"]})),
        "stored connection across 'p:e' sends 'p:n' to something that is "
        "not a dart id",
    ),
    "image-object": (
        lambda: _fig2_left_connection(lambda c: c["p:e"].update({"p:n": {}})),
        "stored connection across 'p:e' sends 'p:n' to something that is "
        "not a dart id",
    ),
    "key-unknown": (
        lambda: _fig2_left_connection(lambda c: c.update(zz=dict(c["p:e"]))),
        "stored connection entry 'zz' is not an edge dart",
    ),
    "key-leg": (
        lambda: _fig2_left_connection(lambda c: c.update({"p:s": dict(c["p:e"])})),
        "stored connection entry 'p:s' is not an edge dart",
    ),
    "self-opposite": (
        _fig2_left_self_opposite,
        "dart 'p:s' is its own opposite",
    ),
}


@pytest.mark.parametrize(
    "command",
    [["validate"], ["cohomology", "--max-degree", "2"], ["basis"]],
    ids=["validate", "cohomology", "basis"],
)
@pytest.mark.parametrize("case", sorted(BROKEN_DOCUMENTS))
def test_broken_graph_documents_are_refused_by_name(tmp_path, command, case):
    """A graph file that is not UTF-8, JSON nested deeper than the parser
    recurses, an integer longer than CPython converts, a rank of 4300
    digits, a stored connection whose entry is no edge dart or whose
    image is no dart id, and a dart that is its own opposite: exit 1, one
    document that names the fault without ``internal``, and nothing on
    stderr."""
    data, error = BROKEN_DOCUMENTS[case]
    p = tmp_path / "bad.json"
    p.write_bytes(data())
    child = run_child(["-m", "gkmgraphs.cli", command[0], str(p), *command[1:]])
    assert child.returncode == 1
    assert json.loads(child.stdout) == {"error": error, "ok": False}
    assert child.stderr == b""


@pytest.mark.parametrize(
    "case, env",
    [
        ("latin-1", {"PYTHONIOENCODING": "utf-8:strict"}),
        ("latin-1", {"PYTHONUTF8": "1"}),
        ("latin-1", {"LC_ALL": "C"}),
        ("rank-4300-digits", {}),
    ],
    ids=[
        "latin-1-strict-stdin", "latin-1-utf8-mode", "latin-1-c-locale",
        "rank-4300-digits",
    ],
)
def test_stdin_is_refused_as_the_same_file_is(case, env):
    """Piped into ``validate``, a latin-1 graph, also under UTF-8 mode
    (where ``sys.stdin`` would escape the bad bytes), and a graph whose
    rank has 4300 digits give exit 1 and the document that the file
    gives, without ``internal``, and nothing on stderr."""
    data, error = BROKEN_DOCUMENTS[case]
    child = subprocess.run(
        [sys.executable, "-m", "gkmgraphs.cli", "validate"],
        input=data(),
        env=child_env(**env),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert child.returncode == 1
    assert json.loads(child.stdout) == {"error": error, "ok": False}
    assert child.stderr == b""


@pytest.mark.parametrize("key", ["positive_normals", "hyperplane_names"])
def test_null_metadata_is_read_as_absent(tmp_path, capsys, key):
    doc = gen_klm(KlmSpec(2, 1, 2)).to_dict()
    doc[key] = None
    if key == "hyperplane_names":
        # the normals are kept under the names, which now name nothing
        doc["positive_normals"] = None
    p = tmp_path / "null.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, "hyperplanes", str(p))
    assert code == 0
    names = {h["name"] for h in json.loads(out)["hyperplanes"]}
    assert names == (
        {"L1", "L2", "L3", "L4", "L5"} if key == "hyperplane_names"
        else {"X1", "X2", "Y1", "Z1", "Z2"}
    )


@pytest.mark.parametrize("command", ["cohomology", "verify-iso"])
def test_a_negative_max_degree_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as ei:
        main([command, "--fixture", "fig2_left", "--max-degree", "-1"])
    assert ei.value.code == 2
    assert "--max-degree" in capsys.readouterr().err


def test_assumptions_exit_codes(capsys):
    code, out = run(capsys, "assumptions", "--fixture", "fig2_left")
    assert code == 0
    code, out = run(capsys, "assumptions", "--fixture", "fig2_right")
    assert code == 1
    doc = json.loads(out)
    assert doc["failed"] == ["assumption1"]
    code, out = run(capsys, "assumptions", "--fixture", "fig11_sphere")
    assert code == 1
    assert json.loads(out)["failed"] == ["assumption2"]


def test_hyperplanes_listing(capsys):
    code, out = run(capsys, "hyperplanes", "--fixture", "fig2_left")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 3
    assert [h["name"] for h in doc["hyperplanes"]] == ["L1", "L2", "L3"]


def test_cohomology_rank_of_local_model(capsys):
    code, out = run(
        capsys, "cohomology", "--fixture", "local_model(2)",
        "--max-degree", "0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["degrees"]["0"]["rank"] == 1


def test_verify_iso_ok_and_failing(capsys):
    code, out = run(
        capsys, "verify-iso", "--fixture", "fig2_left", "--max-degree", "2"
    )
    assert code == 0
    assert json.loads(out)["ok"] is True
    code, out = run(
        capsys, "verify-iso", "--fixture", "fig11_sphere",
        "--max-degree", "2", "--forgetful",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["degrees"]["2"]["surjective"] is False
    code, out = run(
        capsys, "verify-iso", "--fixture", "fig2_right", "--max-degree", "2"
    )
    assert code == 1
    assert json.loads(out)["assumption"] == 1


def test_verify_iso_solves_each_graded_piece_once(monkeypatch, capsys):
    """The rank comparison and the kernel check share one solve per
    degree."""
    calls = []
    real = cohomology.cohomology_basis

    def counting(g, degree, forgetful=False):
        calls.append((degree, forgetful))
        return real(g, degree, forgetful=forgetful)

    monkeypatch.setattr(cohomology, "cohomology_basis", counting)
    code, _ = run(
        capsys, "verify-iso", "--fixture", "fig2_left", "--max-degree", "2"
    )
    assert code == 0
    assert sorted(calls) == [(0, False), (1, False), (2, False)]


@pytest.mark.parametrize("forgetful", [False, True], ids=["full", "forgetful"])
def test_verify_iso_finds_hyperplanes_and_assumptions_once(
    monkeypatch, capsys, forgetful
):
    """The rank comparison reads the assumption report that the
    presentation ring was built under, and the ring orients the halfspace
    pairs that the report built: one ``halfspace_pair`` per hyperplane."""
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name if name != "halfspace_pair" else args[1].name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("all_hyperplanes", "check_assumptions", "halfspace_pair"):
        wrapped = counting(name, getattr(hyperplanes, name))
        monkeypatch.setattr(hyperplanes, name, wrapped)
        if hasattr(cohomology, name):
            monkeypatch.setattr(cohomology, name, wrapped)
    argv = ["verify-iso", "--fixture", "fig2_left", "--max-degree", "2"]
    code, _ = run(capsys, *argv, *(["--forgetful"] if forgetful else []))
    assert code == 0
    assert sorted(calls) == [
        "L1", "L2", "L3", "all_hyperplanes", "check_assumptions"
    ]


@pytest.mark.parametrize(
    "argv",
    [["assumptions"], ["basis"], ["verify-iso", "--max-degree", "2"]],
    ids=["assumptions", "basis", "verify-iso"],
)
def test_each_command_pairs_the_darts_at_each_vertex_once(
    tmp_path, monkeypatch, capsys, argv
):
    """The pair table is built once per graph and read by every closure:
    on L(3,3,3) ``_pairs_at`` runs once per vertex, however many
    hyperplanes are found."""
    import gkmgraphs.graph as graph

    g = gen_klm(KlmSpec(3, 3, 3))
    path = tmp_path / "L333.json"
    path.write_text(serialize(g))
    calls = []
    real = graph._pairs_at

    def counting(g, v):
        calls.append(v)
        return real(g, v)

    monkeypatch.setattr(graph, "_pairs_at", counting)
    code, _ = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 0
    assert sorted(calls) == sorted(g.vertices)


@pytest.mark.parametrize(
    "command",
    [["structure-constants"], ["express", "--poly", "(X1+Y1+Z1)^3-2*X1*Z2"]],
    ids=["structure-constants", "express"],
)
def test_shelling_commands_divide_by_shifts_and_check_each_thom_class_once(
    tmp_path, monkeypatch, capsys, command
):
    """No Hermite form, elimination or substitution runs inside the
    expansion; each halfspace's Thom class is built and checked once, by
    the vector check, and the forgetful class is its cut, checked no more:
    no label map (and so no Hermite form) is built at all."""
    import gkmgraphs.intlinalg as intlinalg
    import gkmgraphs.polynomials as polynomials
    import gkmgraphs.shelling as shelling

    g = gen_klm(KlmSpec(3, 2, 2))
    path = tmp_path / "L322.json"
    path.write_text(serialize(g))
    calls, inside = [], []

    def count(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append((name, bool(inside)))
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    def expanding(*args, **kwargs):
        inside.append(True)
        try:
            return real_expand(*args, **kwargs)
        finally:
            inside.pop()

    real_expand = shelling._expand
    monkeypatch.setattr(shelling, "_expand", expanding)
    for owner, name in [
        (intlinalg, "hermite_normal_form"),
        (intlinalg, "_echelon"),
        (cohomology, "hermite_normal_form"),
        (polynomials.IntPolynomial, "substitute"),
        (hyperplanes, "assert_class_congruences"),
    ]:
        count(owner, name)
    code, _ = run(capsys, command[0], str(path), *command[1:])
    assert code == 0
    assert not hasattr(polynomials, "divide_exact_by_linear")
    assert [name for name, during in calls if during] == []
    assert ("substitute", False) not in calls
    nplanes = len(hyperplanes.all_hyperplanes(g))
    assert calls.count(("assert_class_congruences", False)) == 2 * nplanes
    assert ("hermite_normal_form", False) not in calls


@pytest.mark.parametrize("command", ["basis", "structure-constants"])
def test_shelling_commands_check_the_lift_identity(
    tmp_path, monkeypatch, capsys, command
):
    """Every shelling command, ``basis`` included, checks the covectors
    against the Thom classes at every facet point."""
    import gkmgraphs.shelling as shelling

    real = shelling.characteristic_functions

    def skewed(complex_, taus):
        lambdas = real(complex_, taus)
        lam = lambdas["X1"]
        lambdas["X1"] = (lam[0] + 1,) + lam[1:]
        return lambdas

    monkeypatch.setattr(shelling, "characteristic_functions", skewed)
    path = tmp_path / "L212.json"
    path.write_text(serialize(gen_klm(KlmSpec(2, 1, 2))))
    code, out = run(capsys, command, str(path))
    assert code == 1
    assert json.loads(out)["error"] == (
        "the characteristic covectors do not lift e1 at 'X1.Y1': "
        "sum of lambda_1(L) tau_L is 2*e1"
    )


def test_an_internal_fault_is_one_json_document(monkeypatch, capsys):
    def broken(args, parser):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr(cli, "cmd_validate", broken)
    code = main(["validate", "--fixture", "fig2_left"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out) == {
        "ok": False,
        "error": "RuntimeError: simulated fault",
        "internal": True,
    }
    assert "Traceback" in captured.err


def run_reference(
    tmp_path, capsys, key, monkeypatch=None, reference=REFERENCE
):
    """Run one command of the benchmark reference (or of ``reference``),
    ``@KLM`` standing for the generated L(k,l,m) file, and compare exit
    code and stdout bytes.  A key ``A | B`` feeds the stdout of ``A`` to
    ``B`` on stdin (through ``monkeypatch``)."""
    out = ""
    for stage in key.split(" | "):
        argv = []
        for tok in shlex.split(stage):
            if tok.startswith("@"):
                path = tmp_path / f"L{tok[1:]}.json"
                path.write_text(serialize(gen_klm(KlmSpec(*map(int, tok[1:])))))
                tok = str(path)
            argv.append(tok)
        if out:
            monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, out = run(capsys, *argv)
    assert "internal" not in json.loads(out)
    ref = json.loads(reference.read_text())["commands"][key]
    assert code == ref["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == ref["stdout_sha256"]


@pytest.mark.parametrize(
    "key",
    [
        "cohomology @322 --max-degree 3",
        "cohomology @433 --max-degree 2",
        "cohomology @444 --max-degree 3 --forgetful",
        "cohomology @555 --max-degree 2 --forgetful",
    ],
    ids=["L322", "L433", "L444-forgetful", "L555-forgetful"],
)
def test_cohomology_output_matches_the_benchmark_reference(
    tmp_path, capsys, key
):
    """Byte for byte the stdout recorded in the benchmark's reference."""
    run_reference(tmp_path, capsys, key)


@pytest.mark.parametrize(
    "key",
    [
        "structure-constants --fixture fig7_pentagon",
        "structure-constants --fixture fig8_line5",
        'express @555 --poly "X1*Y2*Z3-2*X3^2"',
    ],
    ids=["fig7", "fig8", "L555-express"],
)
def test_shelling_output_matches_the_benchmark_reference(
    tmp_path, capsys, key
):
    """Expansion on the cached facet localizations reproduces the recorded
    structure constants and coefficients byte for byte."""
    run_reference(tmp_path, capsys, key)


@pytest.mark.parametrize(
    "key", sorted(json.loads(SHELLING_REFERENCE.read_text())["commands"])
)
def test_shelling_output_matches_the_ring_path_expansion(
    tmp_path, capsys, key
):
    """``basis``, ``structure-constants`` and ``express`` on every figure,
    on local_model(2) and (3) and on the ladder rungs 111..555 print the
    bytes that the ring-path expansion printed."""
    run_reference(tmp_path, capsys, key, reference=SHELLING_REFERENCE)


@pytest.mark.parametrize(
    "key", sorted(json.loads(SOLVER_REFERENCE.read_text())["commands"])
)
def test_solver_output_matches_the_polynomial_classes(tmp_path, capsys, key):
    """``cohomology --max-degree 3``, with and without ``--forgetful``, and
    ``verify-iso --max-degree 3`` on every figure, on local_model(2) and
    (3) and on the ladder rungs 111..444 print the bytes that the solver
    printed from polynomial classes.  ``verify-iso --max-degree 5``, with
    and without ``--forgetful``, on the same graphs up to the rung 333,
    and ``verify-iso`` on L(5,5,5) at degrees 4 and 5, print the bytes
    that it printed when it solved every degree for its classes and built
    its Macaulay rows and image table dense."""
    run_reference(tmp_path, capsys, key, reference=SOLVER_REFERENCE)


@pytest.mark.parametrize(
    "key",
    [
        "verify-iso @322 --max-degree 3",
        "verify-iso @433 --max-degree 1",
        "verify-iso @555 --max-degree 2 --forgetful",
    ],
    ids=["L322", "L433", "L555-forgetful"],
)
def test_verify_output_matches_the_benchmark_reference(tmp_path, capsys, key):
    """The presentation ring with its monomial ideal found as minimal
    transversals reproduces the recorded rank comparison byte for byte."""
    run_reference(tmp_path, capsys, key)


def _front_id(key):
    """``hyperplanes @555`` -> hyperplanes555, ``validate --fixture
    fig2_left`` -> validate-fig2_left."""
    return key.replace(" @", "").replace(" --fixture ", "-").replace('"', "")


# every ``hyperplanes``, ``validate`` and ``assumptions`` command of the
# benchmark reference: the figures, local_model(6) and the rungs 111..555
FRONT_KEYS = sorted(
    key
    for key in json.loads(REFERENCE.read_text())["commands"]
    if key.split()[0] in ("hyperplanes", "validate", "assumptions")
)


@pytest.mark.parametrize(
    "key",
    [
        pytest.param("gen klm --k 5 --l 5 --m 5", id="gen555"),
        pytest.param("gen klm --k 2 --l 1 --m 2 | basis", id="gen212-basis"),
    ]
    + [pytest.param(key, id=_front_id(key)) for key in FRONT_KEYS],
)
def test_front_output_matches_the_benchmark_reference(
    tmp_path, capsys, monkeypatch, key
):
    """The generator's transported residual coefficients, the hyperplanes
    found with one closure each and labeled where they are printed, and
    the validation and assumption reports reproduce the recorded output
    byte for byte."""
    run_reference(tmp_path, capsys, key, monkeypatch)


# per subcommand, its options after the L(2,1,2) file
LOAD_COMMANDS = {
    "validate": [],
    "hyperplanes": [],
    "assumptions": [],
    "cohomology": ["--max-degree", "1"],
    "verify-iso": ["--max-degree", "1"],
    "basis": [],
    "express": ["--poly", "Z1^2"],
    "structure-constants": [],
}
# standard library modules whose import costs more than a short command's
# work; ``hashlib`` only the ``hyperplanes`` listing needs
COSTLY_MODULES = ("dataclasses", "inspect", "typing", "importlib.resources")


def test_short_commands_load_only_what_they_call(tmp_path):
    """Neither importing the CLI nor ``validate`` on a file loads the
    solver, polynomial, hyperplane or shelling code.  Without ``site``
    (``python -S``, which would load modules of its own), no subcommand
    loads ``dataclasses``, ``inspect``, ``typing`` or
    ``importlib.resources``, and only ``hyperplanes`` loads ``hashlib``."""
    path = tmp_path / "L212.json"
    path.write_text(serialize(gen_klm(KlmSpec(2, 1, 2))))
    script = (
        "import io, json, sys\n"
        "import gkmgraphs.cli as cli\n"
        "loaded = [sorted(sys.modules)]\n"
        "sys.stdout = io.StringIO()\n"
        "code = cli.main(json.loads(sys.argv[1]))\n"
        "sys.stdout = sys.__stdout__\n"
        "print(json.dumps([code, loaded[0], sorted(sys.modules)]))\n"
    )
    argvs = {
        name: [name, str(path), *options]
        for name, options in LOAD_COMMANDS.items()
    }
    argvs["gen klm"] = ["gen", "klm", "--k", "2", "--l", "1", "--m", "2"]
    for name, argv in argvs.items():
        child = run_child(
            ["-S", "-c", script, json.dumps(argv)], text=True, check=True
        )
        code, at_import, after = json.loads(child.stdout)
        assert code == 0, name
        for module in COSTLY_MODULES:
            assert module not in after, (name, module)
        assert ("hashlib" in after) == (name == "hyperplanes"), name
        if name == "validate":
            for part in ("cohomology", "shelling", "polynomials", "hyperplanes"):
                assert f"gkmgraphs.{part}" not in at_import
                assert f"gkmgraphs.{part}" not in after


def test_shelling_commands_do_not_load_the_solver(tmp_path):
    """``basis``, ``express`` and ``structure-constants`` run on the
    hyperplanes, their Thom classes and the shelling alone."""
    path = tmp_path / "L212.json"
    path.write_text(serialize(gen_klm(KlmSpec(2, 1, 2))))
    script = (
        "import io, json, sys\n"
        "import gkmgraphs.cli as cli\n"
        "codes = []\n"
        "sys.stdout = io.StringIO()\n"
        "for argv in (['basis'], ['express', '--poly', 'Z1^2'],\n"
        "             ['structure-constants']):\n"
        "    codes.append(cli.main([argv[0], sys.argv[1], *argv[1:]]))\n"
        "sys.stdout = sys.__stdout__\n"
        "print(json.dumps([codes, sorted(sys.modules)]))\n"
    )
    child = run_child(["-c", script, str(path)], text=True, check=True)
    codes, modules = json.loads(child.stdout)
    assert codes == [0, 0, 0]
    assert "gkmgraphs.shelling" in modules
    assert "gkmgraphs.cohomology" not in modules


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--fixture", "local_model(6)"],
        ["assumptions", "--fixture", "fig2_right"],
        ["gen", "klm", "--k", "2", "--l", "1", "--m", "2"],
        ["cohomology", "@444", "--max-degree", "3", "--forgetful"],
    ],
    ids=["validate", "assumptions-failing", "gen", "cohomology-L444"],
)
def test_a_closed_stdout_is_not_a_traceback(tmp_path, argv):
    """A reader that went away before the output was written: exit 1 and
    nothing on stderr, not a chain of BrokenPipeError tracebacks.  The
    ``cohomology`` document (171 KB) is larger than a pipe's buffer and
    is written in one call."""
    path = tmp_path / "L444.json"
    path.write_text(serialize(gen_klm(KlmSpec(4, 4, 4))))
    argv = [str(path) if a == "@444" else a for a in argv]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = run_child(["-m", "gkmgraphs.cli", *argv], stdout=write_end)
    finally:
        os.close(write_end)
    assert child.returncode == 1
    assert child.stderr == b""


def test_a_reader_that_leaves_early_is_seen_unbuffered(tmp_path):
    """Unbuffered (PYTHONUNBUFFERED=1), the binary layer of stdout takes
    what a pipe accepts before its reader leaves and reports a short
    count.  The rest of the document may not be dropped silently: a
    reader that leaves after one byte of the ``cohomology`` document
    (171 KB, more than a pipe's buffer) gives exit 1 and nothing on
    stderr."""
    path = tmp_path / "L444.json"
    path.write_text(serialize(gen_klm(KlmSpec(4, 4, 4))))
    child = subprocess.Popen(
        [sys.executable, "-m", "gkmgraphs.cli", "cohomology", str(path),
         "--max-degree", "3", "--forgetful"],
        env=child_env(PYTHONUNBUFFERED="1"),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(child.stdout.read(1)) == 1
    child.stdout.close()
    try:
        err = child.stderr.read()
        code = child.wait(timeout=120)
    finally:
        child.kill()
        child.stderr.close()
    assert code == 1
    assert err == b""


def entry_child(args, buffering, **kwargs):
    """Run ``python -m gkmgraphs.cli`` (``args`` after ``-m`` or ``-c``
    included) with stdout buffered, or unbuffered (PYTHONUNBUFFERED=1),
    whatever this process was given."""
    extra = {"PYTHONUNBUFFERED": "1"} if buffering == "unbuffered" else {}
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, *args], env=child_env(**extra), **kwargs)


BUFFERING = ["buffered", "unbuffered"]


@pytest.mark.parametrize("buffering", BUFFERING)
@pytest.mark.parametrize(
    "argv, expected",
    [
        (["validate", "--fixture", "fig2_left"], 0),
        (["assumptions", "--fixture", "fig2_right"], 1),
        (["basis", "--fixture", "fig11_sphere"], 1),
        (["validate", "--bogus"], 2),
        (["gen", "klm", "--k", "0", "--l", "1", "--m", "1"], 2),
        (["verify-iso", "--help"], 0),
    ],
    ids=["ok", "failing-check", "failing-shelling", "usage", "gen-usage", "help"],
)
def test_the_entry_point_exits_as_main_returns(capsys, argv, expected, buffering):
    """``python -m gkmgraphs.cli`` ends through ``cli.entry`` and
    ``os._exit``: its exit status, stdout and stderr are those of ``main``
    run in this process, where ``main`` returns (or argparse raises
    ``SystemExit``) instead of ending the process.  The help text is
    written without a flush of its own, so it shows that stdout is flushed
    before the exit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    in_process = capsys.readouterr()
    assert code == expected
    child = entry_child(["-m", "gkmgraphs.cli", *argv], buffering, text=True)
    assert child.returncode == expected
    assert child.stdout == in_process.out
    assert child.stderr == in_process.err
    assert bool(child.stderr) == (expected == 2)


@pytest.mark.parametrize("buffering", BUFFERING)
def test_the_entry_point_keeps_the_internal_fault_traceback(buffering):
    """An internal fault through ``cli.entry``: one JSON document on
    stdout with exit 1, and its traceback on stderr."""
    script = (
        "import sys\n"
        "import gkmgraphs.cli as cli\n"
        "def broken(args, parser):\n"
        "    raise RuntimeError('simulated fault')\n"
        "cli.cmd_validate = broken\n"
        "sys.argv = ['gkmgraphs', 'validate', '--fixture', 'fig2_left']\n"
        "cli.entry()\n"
        "print('not reached')\n"
    )
    child = entry_child(["-c", script], buffering, text=True)
    assert child.returncode == 1
    assert json.loads(child.stdout) == {
        "ok": False,
        "error": "RuntimeError: simulated fault",
        "internal": True,
    }
    assert "Traceback" in child.stderr
    assert "RuntimeError: simulated fault" in child.stderr


@pytest.mark.parametrize("buffering", BUFFERING)
def test_the_entry_point_writes_gen_output_files_in_full(tmp_path, buffering):
    """``gen klm -o`` through ``cli.entry`` leaves the whole document in
    its file (L(5,5,5), well past any buffer) and nothing on stdout."""
    path = tmp_path / "L555.json"
    child = entry_child(
        ["-m", "gkmgraphs.cli", "gen", "klm", "--k", "5", "--l", "5",
         "--m", "5", "-o", str(path)],
        buffering,
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, b"", b"")
    assert path.read_text() == serialize(gen_klm(KlmSpec(5, 5, 5)))


@pytest.mark.parametrize("buffering", BUFFERING)
@pytest.mark.parametrize(
    "argv",
    [["cohomology", "@444", "--max-degree", "3", "--forgetful"],
     ["verify-iso", "--help"]],
    ids=["cohomology-L444", "help"],
)
def test_the_entry_point_meets_a_closed_reader_quietly(tmp_path, argv, buffering):
    """Through ``cli.entry``, a reader that went away before the output
    was written gives exit 1 and nothing on stderr, with stdout buffered
    or not: for the ``cohomology`` document (171 KB), and for the help
    text, which argparse leaves in stdout's buffer for ``entry`` to
    flush.  Unbuffered, argparse writes the help text at once and ignores
    the failed write itself, so ``--help`` still exits 0."""
    path = tmp_path / "L444.json"
    path.write_text(serialize(gen_klm(KlmSpec(4, 4, 4))))
    argv = [str(path) if a == "@444" else a for a in argv]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = entry_child(
            ["-m", "gkmgraphs.cli", *argv], buffering, stdout=write_end
        )
    finally:
        os.close(write_end)
    help_unbuffered = "--help" in argv and buffering == "unbuffered"
    assert child.returncode == (0 if help_unbuffered else 1)
    assert child.stderr == b""


def test_main_returns_in_process_and_the_script_uses_the_entry_point(
    monkeypatch, capsys
):
    """``main`` returns its status and never ends the process; the
    ``gkmgraphs`` script of the package metadata runs ``cli.entry``."""

    def no_exit(code):
        raise AssertionError(f"os._exit({code}) in process")

    monkeypatch.setattr(os, "_exit", no_exit)
    assert main(["validate", "--fixture", "fig2_left"]) == 0
    assert main(["assumptions", "--fixture", "fig2_right"]) == 1
    capsys.readouterr()
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    assert 'gkmgraphs = "gkmgraphs.cli:entry"' in pyproject


def test_oversized_inputs_are_refused_up_front(monkeypatch, capsys):
    """Sizes above the caps are usage errors, raised before any dart is
    built."""

    def no_building(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(fixtures, "Dart", no_building)
    n = fixtures.LOCAL_MODEL_MAX_N + 1
    top = str(fixtures.KLM_MAX_LINES + 1)
    for argv in (
        ["validate", "--fixture", f"local_model({n})"],
        ["gen", "klm", "--k", "1", "--l", top, "--m", "1"],
    ):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 2
    assert "at most" in capsys.readouterr().err


def test_oversized_solver_requests_are_refused_up_front(
    tmp_path, monkeypatch, capsys
):
    """A ``cohomology`` or ``verify-iso`` request whose solver system would
    have more than ``SOLVER_MAX_COLUMNS`` columns is one refusal document
    with exit 1, before any system row is built or solved."""

    def no_solving(*args, **kwargs):
        raise AssertionError("the solver was reached")

    for name in (
        "cohomology_basis", "solver_rank", "_label_map", "kernel_basis",
    ):
        monkeypatch.setattr(cohomology, name, no_solving)
    path = tmp_path / "L555.json"
    path.write_text(serialize(gen_klm(KlmSpec(5, 5, 5))))
    for argv, columns in (
        (["cohomology", "--fixture", "local_model(12)", "--max-degree", "5"],
         6188),
        (["verify-iso", str(path), "--max-degree", "6"], 2100),
        (["cohomology", str(path), "--max-degree", "30", "--forgetful"], 2325),
    ):
        code, out = run(capsys, *argv)
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False and doc["check"] == "solver_size"
        assert f"{columns} columns" in doc["error"]
        assert "internal" not in doc


def test_the_solver_cap_admits_every_tested_request():
    """The cap sits well above the largest request of the tests and the
    benchmark: the default --max-degree 4 on L(5,5,5), 1125 columns."""
    g = gen_klm(KlmSpec(5, 5, 5))
    assert cohomology.solver_columns(g, 4) == 1125
    assert cohomology.solver_columns(g, 4, forgetful=True) == 375
    assert 1125 * 1.5 < cohomology.SOLVER_MAX_COLUMNS


@pytest.mark.parametrize("source", ["fixture", "file"])
@pytest.mark.parametrize(
    "command", [["assumptions"], ["verify-iso", "--max-degree", "2"]],
    ids=["assumptions", "verify-iso"],
)
def test_oversized_family_tables_are_refused_up_front(
    tmp_path, monkeypatch, capsys, source, command
):
    """A family table of assumption (2) with more than
    ``FAMILY_TABLE_MAX`` families is one refusal document with exit 1,
    before the table is built or any halfspace pair is: on the fixture
    and on a file, local_model(15) has 2^15 - 1 and local_model(32)
    2^32 - 1."""

    def not_built(*args, **kwargs):
        raise AssertionError("the table was built")

    for name in ("nonempty_intersection_table", "halfspace_pair"):
        monkeypatch.setattr(hyperplanes, name, not_built)
    for n in (15, 32):
        if source == "fixture":
            argv = ["--fixture", f"local_model({n})"]
        else:
            path = tmp_path / f"local_model_{n}.json"
            path.write_text(serialize(fixtures.local_model(n)))
            argv = [str(path)]
        code, out = run(capsys, command[0], *argv, *command[1:])
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False and doc["check"] == "family_table_size"
        assert f"{2 ** n - 1} families" in doc["error"]
        assert "internal" not in doc


@pytest.mark.parametrize(
    "command", [["assumptions"], ["verify-iso", "--max-degree", "2"]],
    ids=["assumptions", "verify-iso"],
)
def test_the_largest_accepted_family_table_fits_its_budget(command):
    """local_model(14) has 16383 families, the most that
    ``FAMILY_TABLE_MAX`` accepts: exit 0 within 10 s and 150 MB (about
    0.4 s and 35 MB on 2 vCPUs).  A small parent runs it and reports its
    peak RSS, as in the other budget tests."""
    assert 2**14 - 1 <= hyperplanes.FAMILY_TABLE_MAX < 2**15 - 1
    probe = (
        "import resource, subprocess, sys\n"
        "run = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
        "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "print(run.returncode, peak)\n"
    )
    done = run_child(
        ["-c", probe, sys.executable, "-m", "gkmgraphs.cli", command[0],
         "--fixture", "local_model(14)", *command[1:]],
        timeout=10,
        text=True,
    )
    code, peak = map(int, done.stdout.split())
    assert code == 0
    assert peak < 150 * 1024


def test_verify_iso_to_degree_5_on_l555_fits_its_budget(tmp_path):
    """``verify-iso`` on L(5,5,5) at degree 5 (1575 solver columns) takes
    ranks alone: exit 0 within 20 s and 300 MB.  A small parent runs it
    and reports its peak RSS (in KiB, as Linux gives it), so the
    high-water mark of the test process does not count."""
    path = tmp_path / "L555.json"
    path.write_text(serialize(gen_klm(KlmSpec(5, 5, 5))))
    probe = (
        "import resource, subprocess, sys\n"
        "run = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
        "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "print(run.returncode, peak)\n"
    )
    done = run_child(
        ["-c", probe, sys.executable, "-m", "gkmgraphs.cli", "verify-iso",
         str(path), "--max-degree", "5"],
        timeout=20,
        text=True,
    )
    code, peak = map(int, done.stdout.split())
    assert code == 0
    assert peak < 300 * 1024


def test_gen_klm_roundtrip_through_file(tmp_path, capsys):
    path = tmp_path / "klm.json"
    code, _ = run(
        capsys, "gen", "klm", "--k", "2", "--l", "1", "--m", "2",
        "-o", str(path),
    )
    assert code == 0
    code, out = run(capsys, "basis", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == [
        "1", "Z1", "Z2", "X2", "X2*Z1", "X2*Z2", "Y1*Z1", "Y1*Z2"
    ]


def test_gen_klm_into_a_missing_directory_is_a_usage_error(
    tmp_path, capsys
):
    """An output path that cannot be opened is reported like an input
    that cannot be read: exit 2 and ``cannot write PATH``, no traceback."""
    path = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit) as ei:
        main(["gen", "klm", "--k", "1", "--l", "1", "--m", "1",
              "-o", str(path)])
    assert ei.value.code == 2
    captured = capsys.readouterr()
    assert f"cannot write {path}: " in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_structure_constants_table(tmp_path, capsys):
    path = tmp_path / "klm.json"
    run(capsys, "gen", "klm", "--k", "2", "--l", "1", "--m", "2", "-o", str(path))
    code, out = run(capsys, "structure-constants", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["equivariant_products"]["Z1*Z1"] == {"Y1*Z1": "1", "Z1": "-e2"}
    assert doc["ordinary_products"]["Z1*Z1"] == {"Y1*Z1": 1}
    assert doc["ordinary_ranks"] == {"0": 1, "1": 3, "2": 4}


def test_express(tmp_path, capsys):
    path = tmp_path / "klm.json"
    run(capsys, "gen", "klm", "--k", "2", "--l", "1", "--m", "2", "-o", str(path))
    code, out = run(capsys, "express", str(path), "--poly", "Z1^2")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == {"Z1": "-e2", "Y1*Z1": "1"}
    code, out = run(capsys, "express", str(path), "--poly", "Q9")
    assert code == 1
    assert "unknown generator" in json.loads(out)["error"]


def test_express_takes_a_leading_minus_in_the_equals_form(capsys):
    """A value after a space that starts with "-" reads as an option, an
    argparse usage error; ``--poly=-L1`` passes it whole."""
    with pytest.raises(SystemExit) as caught:
        main(["express", "--fixture", "fig7_pentagon", "--poly", "-L1"])
    assert caught.value.code == 2
    assert "argument --poly: expected one argument" in capsys.readouterr().err
    code, out = run(capsys, "express", "--fixture", "fig7_pentagon", "--poly=-L1")
    assert code == 0
    assert json.loads(out)["coefficients"] == {
        "1": "-e2",
        "L3": "-1",
        "L4": "1",
        "L5": "1",
    }


@pytest.mark.parametrize(
    "poly",
    [
        "L1^\u00b2",
        "\u00b3",
        "L1^\u0663",
        "L1^" + "1" * 5000,
        "1" * 5000 + "*L1",
        "(" * 400 + "L1" + ")" * 400,
    ],
    ids=[
        "superscript-exponent",
        "superscript-constant",
        "arabic-indic-exponent",
        "long-exponent",
        "long-constant",
        "deep-nesting",
    ],
)
def test_express_parser_faults_are_reported(capsys, poly):
    """Digits of other scripts, integers longer than ``int`` converts and
    parentheses nested past the recursion limit are input errors: one
    JSON document, exit 1, nothing on stderr."""
    code = main(["express", "--fixture", "fig7_pentagon", "--poly", poly])
    captured = capsys.readouterr()
    assert code == 1
    doc = json.loads(captured.out)
    assert doc["ok"] is False and "internal" not in doc
    assert captured.err == ""


def _express_refusal(capsys, poly, source=("--fixture", "fig7_pentagon")):
    code, out = run(capsys, "express", *source, "--poly", poly)
    doc = json.loads(out)
    assert code == 1 and "internal" not in doc
    assert doc["ok"] is False and doc["check"] == "express_size"
    return doc["error"]


def test_express_refuses_beyond_its_degree_cap(capsys):
    """A power or product past ``EXPRESS_MAX_DEGREE`` is refused before it
    runs; a huge exponent at once."""
    cap = cli.EXPRESS_MAX_DEGREE
    code, _ = run(
        capsys, "express", "--fixture", "fig7_pentagon", "--poly", f"L1^{cap}"
    )
    assert code == 0
    assert "exponent 99999999999999999999" in _express_refusal(
        capsys, "L1^99999999999999999999"
    )
    assert "exponent" in _express_refusal(capsys, f"2^{cap + 1}")
    assert f"degree {cap + 1}" in _express_refusal(capsys, f"L1^{cap}*L2")
    # the power stops at the first product past the cap
    assert f"degree {cap + 2}" in _express_refusal(capsys, f"(L1*L2)^{cap}")


def test_express_refuses_beyond_its_term_pair_cap(capsys):
    """The term pairs of all the parser's products count against one cap:
    a power of a long sum is refused, and so is a long sum of powers that
    each fit."""
    cap = cli.EXPRESS_MAX_TERM_PAIRS
    names = ["L1", "L2", "L3", "L4", "L5"]
    parser = cli._PolyParser("(1+L1+L2+L3+L4+L5)^6", names)
    parser.parse()
    assert parser.pairs < cap
    assert "term pairs" in _express_refusal(capsys, "(1+L1+L2+L3+L4+L5)^16")
    copies = cap // parser.pairs + 1
    assert "term pairs" in _express_refusal(
        capsys, " + ".join(["(1+L1+L2+L3+L4+L5)^6"] * copies)
    )


def test_express_refuses_a_coefficient_past_its_digit_cap(capsys):
    """A coefficient of more than ``EXPRESS_MAX_DIGITS`` digits is refused
    after the product that makes it, or at the end of the parse: printed,
    the coefficients stay below the 4300 digits that CPython converts to
    text, and every version gives the same answer."""
    cap = cli.EXPRESS_MAX_DIGITS
    nines = "9" * 4000
    code = main(
        ["express", "--fixture", "fig7_pentagon", "--poly", f"{nines}*{nines}*L1"]
    )
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 1 and "internal" not in doc and captured.err == ""
    assert doc["check"] == "express_size" and f"{cap} accepted" in doc["error"]
    big = "9" * cap
    code, _ = run(
        capsys, "express", "--fixture", "fig7_pentagon", "--poly", f"{big}*L1"
    )
    assert code == 0
    # a product past the cap, even when the sum cancels it
    assert "digits" in _express_refusal(capsys, f"{big}*10*L1 - {big}*10*L1")
    # a sum, and an integer alone, at the end of the parse
    assert "digits" in _express_refusal(capsys, f"{big}*L1 + L1")
    assert "digits" in _express_refusal(capsys, "1" + "0" * cap)


@pytest.mark.parametrize("budget", [5, 6])
def test_the_search_budget_counts_restriction_tests(
    monkeypatch, capsys, tmp_path, budget
):
    """The search on fig7_pentagon with its hyperplanes renamed A, C, E,
    B, D (whose lexicographic facet order is no shelling) runs six
    restriction tests: with ``SEARCH_BUDGET`` at 6 ``basis`` prints the
    shelling, and at 5 it is one input error, not an internal fault."""
    pentagon = fixtures.fixture("fig7_pentagon")
    through = Arrangement(pentagon).through
    rename = {"L1": "A", "L2": "C", "L3": "E", "L4": "B", "L5": "D"}
    doc = pentagon.to_dict()
    doc["hyperplane_names"] = {
        rename[name]: sorted(v for v, names in through.items() if name in names)
        for name in rename
    }
    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps(doc))
    import gkmgraphs.shelling as shelling

    monkeypatch.setattr(shelling, "SEARCH_BUDGET", budget)
    code = main(["basis", str(path)])
    captured = capsys.readouterr()
    assert captured.err == ""
    if budget == 6:
        assert code == 0
        assert hashlib.sha256(captured.out.encode()).hexdigest() == (
            "e41ffde62615ea3f50f348c72e654fbe24d63b603e1c3f0f3f01c59a81ff76d0"
        )
    else:
        assert code == 1
        assert json.loads(captured.out) == {
            "ok": False,
            "error": "search budget of 5 restriction tests exhausted",
        }


def test_the_largest_accepted_express_request_fits_its_budget(tmp_path):
    """On L(5,5,5), the largest rung, (1 + A + B)^d at the degree cap for
    facets {A, B} in shelling order, as many as the pair cap admits: the
    localizations fill every facet up to the cap, and the expansion moves
    each into the facets that carry it.  About 1.5 s and 20 MB on 2 vCPUs;
    the budget is 30 s and 300 MB."""
    path = tmp_path / "L555.json"
    path.write_text(serialize(gen_klm(KlmSpec(5, 5, 5))))
    from gkmgraphs.shelling import shelling_context

    ctx = shelling_context(load_graph(path.read_text()))
    d = cli.EXPRESS_MAX_DEGREE
    summands = [f"(1+{'+'.join(sorted(f))})^{d}" for f in ctx.shelling.order]
    parser = cli._PolyParser(summands[0], ctx.names)
    parser.parse()
    count = cli.EXPRESS_MAX_TERM_PAIRS // parser.pairs
    assert 0 < count < len(summands)
    poly = " + ".join(summands[:count])
    probe = (
        "import resource, subprocess, sys\n"
        "run = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
        "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "print(run.returncode, peak)\n"
    )
    done = run_child(
        ["-c", probe, sys.executable, "-m", "gkmgraphs.cli", "express",
         str(path), "--poly", poly],
        timeout=30,
        text=True,
    )
    code, peak = map(int, done.stdout.split())
    assert code == 0
    assert peak < 300 * 1024
    # one summand more is refused
    parser = cli._PolyParser(" + ".join(summands[: count + 1]), ctx.names)
    with pytest.raises(cli._Oversized):
        parser.parse()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-iso", "--max-degree", "3"],
        ["verify-iso", "--max-degree", "3", "--forgetful"],
        ["cohomology", "--max-degree", "2"],
        ["cohomology", "--max-degree", "2", "--forgetful"],
    ],
    ids=[
        "verify-iso",
        "verify-iso-forgetful",
        "cohomology",
        "cohomology-forgetful",
    ],
)
def test_the_solver_and_the_rings_build_no_polynomial(
    tmp_path, monkeypatch, capsys, argv
):
    """Classes are vectors and relations are terms dicts: ``verify-iso``
    in both theories and ``cohomology`` construct no ``IntPolynomial``."""
    import gkmgraphs.polynomials as polynomials

    def refused(self, *args, **kwargs):
        raise AssertionError("an IntPolynomial was built")

    path = tmp_path / "L212.json"
    path.write_text(serialize(gen_klm(KlmSpec(2, 1, 2))))
    monkeypatch.setattr(polynomials.IntPolynomial, "__init__", refused)
    code, out = run(capsys, argv[0], str(path), *argv[1:])
    assert "internal" not in json.loads(out)
    assert code == 0


def test_basis_on_unshellable_input_fails_cleanly(capsys):
    code, out = run(capsys, "basis", "--fixture", "fig11_sphere")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["bogus-command"])
    assert ei.value.code == 2
    with pytest.raises(SystemExit) as ei:
        main(["validate", "--fixture", "fig99"])
    assert ei.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--bogus"],
        ["validate", "a", "b"],
        ["cohomology", "--max-degree", "x"],
        ["verify-iso", "--help"],
        ["express", "--fixture", "fig7_pentagon"],
        ["gen", "klm", "--k", "1", "extra"],
        ["gen"],
    ],
    ids=["option", "operand", "degree", "help", "required", "gen", "family"],
)
def test_the_pruned_parser_prints_what_the_full_one_does(capsys, argv):
    """The parser that holds only the named subcommand prints the usage,
    help and error text of the parser that holds them all."""
    printed = []
    for parser in (cli.build_parser(argv), cli.build_parser([])):
        with pytest.raises(SystemExit) as ei:
            parser.parse_args(argv)
        printed.append((ei.value.code, capsys.readouterr()))
    assert printed[0] == printed[1]


def test_output_is_byte_stable(capsys):
    _, first = run(capsys, "verify-iso", "--fixture", "fig2_left",
                   "--max-degree", "2")
    _, second = run(capsys, "verify-iso", "--fixture", "fig2_left",
                    "--max-degree", "2")
    assert first == second
    _, g1 = run(capsys, "gen", "klm", "--k", "2", "--l", "2", "--m", "1")
    _, g2 = run(capsys, "gen", "klm", "--k", "2", "--l", "2", "--m", "1")
    assert g1 == g2


# -- invariance of the printed answers ----------------------------------------


def _cli_on(doc, *argv):
    """Exit code and stdout of ``main`` with the graph document on stdin."""
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(doc))):
        with mock.patch.object(sys, "stdout", out):
            code = main(list(argv))
    return code, out.getvalue()


_rung_specs = st.tuples(*(st.integers(1, 3) for _ in range(3)))

# ``basis`` prints ``positive_normals`` with each printed normal taken from
# the halfspace; the other commands print nothing that names an id
_ID_FREE = (
    ("verify-iso", "--max-degree", "3"),
    ("structure-constants",),
    ("express", "--poly", "X1*Y1+Z1^2"),
)


@settings(max_examples=10, deadline=None)
@given(_rung_specs, st.randoms(use_true_random=False))
def test_answers_do_not_depend_on_the_vertex_and_dart_ids(spec, rng):
    """A named rung with its vertex and dart ids replaced by a random
    bijection, through its darts, connection, hyperplane names and
    positive normals, prints the same ``verify-iso``, ``structure-constants``
    and ``express`` documents and the same ``basis`` but for its positive
    normals.  Those are the halfspace's first normal in id order, so each
    one, mapped back, need only be a normal of the same positive half."""
    g = gen_klm(KlmSpec(*spec))
    doc = json.loads(serialize(g))
    ids = doc["vertices"] + [d["id"] for d in doc["darts"]]
    new = dict(zip(ids, rng.sample(ids, len(ids))))
    back = {b: a for a, b in new.items()}
    renamed = {
        "rank": doc["rank"],
        "vertices": sorted(new[v] for v in doc["vertices"]),
        "darts": [
            {
                "id": new[d["id"]],
                "from": new[d["from"]],
                "to": new.get(d["to"]),
                "opposite": new.get(d["opposite"]),
                "axial": d["axial"],
            }
            for d in doc["darts"]
        ],
        "connection": {
            new[e]: {new[a]: new[b] for a, b in images.items()}
            for e, images in doc["connection"].items()
        },
        "hyperplane_names": {
            name: sorted(new[v] for v in vertices)
            for name, vertices in doc["hyperplane_names"].items()
        },
        "positive_normals": {
            name: new[d] for name, d in doc["positive_normals"].items()
        },
    }
    for argv in _ID_FREE:
        assert _cli_on(renamed, *argv) == _cli_on(doc, *argv), argv
    code, out = _cli_on(doc, "basis")
    code_renamed, out_renamed = _cli_on(renamed, "basis")
    assert code == code_renamed == 0
    printed, want = json.loads(out_renamed), json.loads(out)
    normals = printed.pop("positive_normals")
    del want["positive_normals"]
    assert printed == want
    arr = Arrangement(g)
    assert set(normals) == set(arr.names)
    for name, dart in normals.items():
        assert back[dart] in arr.oriented(name)[0].normals.values(), name


_UNIMODULAR = ([[1, 1], [0, 1]], [[2, 1], [1, 1]], [[0, -1], [1, 0]])


@settings(max_examples=10, deadline=None)
@given(_rung_specs, st.sampled_from(_UNIMODULAR))
def test_a_unimodular_change_of_the_e_coordinates_keeps_the_ordinary_answers(
    spec, m
):
    """With a matrix M of GL(2, Z) applied to the e-coordinates of every
    axial value, a named rung still validates, prints the same
    ``verify-iso`` document to degree 3, the same facet order and minimal
    new faces, and the same ordinary ranks and products; its equivariant
    products, polynomials in the e_j, change."""
    doc = json.loads(serialize(gen_klm(KlmSpec(*spec))))
    moved = json.loads(json.dumps(doc))
    for d in moved["darts"]:
        e, x = d["axial"][:2], d["axial"][2]
        d["axial"] = [sum(a * b for a, b in zip(row, e)) for row in m] + [x]
    assert _cli_on(moved, "validate")[0] == 0
    argv = ("verify-iso", "--max-degree", "3")
    assert _cli_on(moved, *argv) == _cli_on(doc, *argv)
    basis, basis_moved = (
        json.loads(_cli_on(d, "basis")[1]) for d in (doc, moved)
    )
    for key in ("facet_order", "minimal_faces"):
        assert basis_moved[key] == basis[key], key
    table, table_moved = (
        json.loads(_cli_on(d, "structure-constants")[1]) for d in (doc, moved)
    )
    for key in ("ordinary_ranks", "ordinary_products"):
        assert table_moved[key] == table[key], key
    assert table_moved["equivariant_products"] != table["equivariant_products"]


# the documents of the structural fuzzer: the figures and the named L(2,1,2)
_FUZZ_DOCUMENTS = [
    *(fixtures.fixture(fid).to_dict() for fid in fixtures.FIXTURE_IDS),
    gen_klm(KlmSpec(2, 1, 2)).to_dict(),
]
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)
_TOP_FIELDS = ("rank", "vertices", "darts", "connection", *META_KEYS)
_DART_FIELDS = ("id", "from", "to", "opposite", "axial")


def _fuzz_step(draw, doc):
    """One structural mutation of ``doc``, in place: a field of the
    document or of a dart replaced by a value of any JSON type, or
    dropped; an axial entry replaced; a dart dropped; two labels swapped;
    a connection image that is no dart; or metadata naming anything."""

    def entries(key, kind):
        value = doc.get(key)
        if not isinstance(value, list):
            return []
        return [r for r in value if isinstance(r, kind)]

    darts = entries("darts", dict)
    kinds = ["field", "metadata"]
    if darts:
        kinds += ["dart_field", "axial_entry", "drop_dart", "swap_labels"]
    if isinstance(doc.get("connection"), dict) and doc["connection"]:
        kinds.append("image")
    kind = draw(st.sampled_from(kinds))
    if kind in ("field", "dart_field"):
        record, keys = (
            (doc, _TOP_FIELDS)
            if kind == "field"
            else (draw(st.sampled_from(darts)), _DART_FIELDS)
        )
        key = draw(st.sampled_from(keys))
        if draw(st.booleans()):
            record.pop(key, None)
        else:
            record[key] = draw(_JUNK)
    elif kind == "axial_entry":
        axial = draw(st.sampled_from(darts)).get("axial")
        if isinstance(axial, list) and axial:
            i = draw(st.integers(0, len(axial) - 1))
            axial[i] = draw(st.one_of(_JUNK, st.integers()))
    elif kind == "drop_dart":
        doc["darts"].remove(draw(st.sampled_from(darts)))
    elif kind == "swap_labels":
        a, b = draw(st.sampled_from(darts)), draw(st.sampled_from(darts))
        a["axial"], b["axial"] = b.get("axial"), a.get("axial")
    elif kind == "image":
        edge = draw(st.sampled_from(sorted(doc["connection"])))
        images = doc["connection"][edge]
        if isinstance(images, dict) and images:
            vertices = entries("vertices", str) or ["?"]
            images[draw(st.sampled_from(sorted(images)))] = draw(
                st.one_of(_JUNK, st.sampled_from(vertices))
            )
    else:
        names = st.sampled_from(["L1", "X1", "Q", ""])
        ids = [d["id"] for d in darts if isinstance(d.get("id"), str)]
        value = st.one_of(_JUNK, st.sampled_from(ids or ["?"]))
        key = draw(st.sampled_from(META_KEYS))
        if key == "comment":
            doc[key] = draw(_JUNK)
        elif key == "hyperplane_names":
            vertex_lists = st.one_of(_JUNK, st.lists(value))
            doc[key] = draw(st.dictionaries(names, vertex_lists))
        else:
            doc[key] = draw(st.dictionaries(names, value))


@st.composite
def _fuzzed_documents(draw):
    """A fuzzer document with one to three structural mutations."""
    doc = json.loads(json.dumps(draw(st.sampled_from(_FUZZ_DOCUMENTS))))
    for _ in range(draw(st.integers(1, 3))):
        _fuzz_step(draw, doc)
    return doc


@settings(max_examples=200, deadline=None)
@given(_fuzzed_documents(), st.sampled_from(GRAPH_COMMANDS))
def test_structurally_broken_documents_get_one_json_answer(doc, command):
    """A fuzzer document on any graph subcommand: stdout is exactly one
    JSON document, the exit status is 0, 1 or 2, and no fault of the
    program is reported."""
    code, out = _cli_on(doc, *command)
    assert code in (0, 1, 2)
    assert "internal" not in json.loads(out)
