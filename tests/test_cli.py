"""CLI surface: subcommands, exit codes, byte-stable JSON output."""

import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import gkmgraphs
import gkmgraphs.cli as cli
import gkmgraphs.cohomology as cohomology
import gkmgraphs.fixtures as fixtures
import gkmgraphs.hyperplanes as hyperplanes
from gkmgraphs.cli import main
from gkmgraphs.fixtures import KlmSpec, gen_klm
from gkmgraphs.graph import serialize

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
SRC = Path(gkmgraphs.__file__).resolve().parents[1]


def run_child(args, stdout=subprocess.PIPE, **kwargs):
    """Run ``python`` with the package's source tree on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        env=env,
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


def run_reference(tmp_path, capsys, key, monkeypatch=None):
    """Run one command of the benchmark reference, ``@KLM`` standing for
    the generated L(k,l,m) file, and compare exit code and stdout bytes.
    A key ``A | B`` feeds the stdout of ``A`` to ``B`` on stdin (through
    ``monkeypatch``)."""
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
    ref = json.loads(REFERENCE.read_text())["commands"][key]
    assert code == ref["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == ref["stdout_sha256"]


@pytest.mark.parametrize(
    "key",
    [
        "cohomology @322 --max-degree 3",
        "cohomology @444 --max-degree 3 --forgetful",
    ],
    ids=["L322", "L444-forgetful"],
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


@pytest.mark.parametrize(
    "key",
    [
        "gen klm --k 5 --l 5 --m 5",
        "hyperplanes @555",
        "assumptions @555",
        "validate @555",
        "gen klm --k 2 --l 1 --m 2 | basis",
    ],
    ids=["gen555", "hyperplanes555", "assumptions555", "validate555", "gen212-basis"],
)
def test_front_output_matches_the_benchmark_reference(
    tmp_path, capsys, monkeypatch, key
):
    """The generator's propagated residual coefficients and the hyperplanes
    found with one closure each reproduce the recorded output byte for
    byte."""
    run_reference(tmp_path, capsys, key, monkeypatch)


def test_short_commands_load_only_what_they_call(tmp_path):
    """Neither importing the CLI nor ``validate`` on a file loads the
    solver, polynomial, hyperplane or shelling code."""
    path = tmp_path / "L212.json"
    path.write_text(serialize(gen_klm(KlmSpec(2, 1, 2))))
    script = (
        "import io, json, sys\n"
        "import gkmgraphs.cli as cli\n"
        "loaded = [sorted(sys.modules)]\n"
        "sys.stdout = io.StringIO()\n"
        "code = cli.main(['validate', sys.argv[1]])\n"
        "sys.stdout = sys.__stdout__\n"
        "print(json.dumps([code, loaded[0], sorted(sys.modules)]))\n"
    )
    child = run_child(["-c", script, str(path)], text=True, check=True)
    code, at_import, after_validate = json.loads(child.stdout)
    assert code == 0
    for name in ("cohomology", "shelling", "polynomials", "hyperplanes"):
        assert f"gkmgraphs.{name}" not in at_import
        assert f"gkmgraphs.{name}" not in after_validate


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--fixture", "local_model(6)"],
        ["assumptions", "--fixture", "fig2_right"],
        ["gen", "klm", "--k", "2", "--l", "1", "--m", "2"],
    ],
    ids=["validate", "assumptions-failing", "gen"],
)
def test_a_closed_stdout_is_not_a_traceback(argv):
    """A reader that went away before the output was written: exit 1 and
    nothing on stderr, not a chain of BrokenPipeError tracebacks."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = run_child(["-m", "gkmgraphs.cli", *argv], stdout=write_end)
    finally:
        os.close(write_end)
    assert child.returncode == 1
    assert child.stderr == b""


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


def test_output_is_byte_stable(capsys):
    _, first = run(capsys, "verify-iso", "--fixture", "fig2_left",
                   "--max-degree", "2")
    _, second = run(capsys, "verify-iso", "--fixture", "fig2_left",
                    "--max-degree", "2")
    assert first == second
    _, g1 = run(capsys, "gen", "klm", "--k", "2", "--l", "2", "--m", "1")
    _, g2 = run(capsys, "gen", "klm", "--k", "2", "--l", "2", "--m", "1")
    assert g1 == g2
