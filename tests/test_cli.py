"""End-to-end command-line behavior: gen, check, connect, verify.

Everything runs in-process through cli.main so exit codes and stdout are
asserted directly; artifacts land in tmp_path.  Only the process-start
tests at the end run the command in a fresh interpreter.
"""

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    GRAM_3,
    constant_metric_plain,
    load_perfbench,
    truncated_line_spec,
    validated,
)
from dense_reference import (
    central_basis,
    grassmann,
    nabla_zero,
    pure,
    symmetrizer,
    through_central_tensors,
)
from tamecalc import algebra, bimodule, calculus, cli
from tamecalc.builders import (
    PRESETS,
    ChevalleySpec,
    build_chevalley,
    euclidean_metric_plain,
    matrix_derivations_chevalley,
)
from tamecalc.cli import main
from tamecalc.errors import ContractViolationError, InternalInconsistencyError, Refusal
from tamecalc.linalg import (
    ONE,
    ZERO,
    Matrix,
    Scalar,
    Subspace,
    _lincomb,
    basis_vector,
    kernel_rows,
    qi,
    vec_to_sparse,
    zero_vector,
)
from tamecalc.specfile import (
    SpecData,
    connection_to_json,
    dumps_canonical,
    input_digest,
    load_metric_override,
    load_spec,
    matrix_to_json,
    save_spec,
)

SCHEMA = json.loads((Path(__file__).resolve().parent.parent / "docs" /
                     "report_schema.json").read_text())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    assert main(["gen", "matrix-derivations", "--n", "2",
                 "--out", str(d / "fuzzy.json")]) == 0
    assert main(["gen", "abelian-torus", "--n", "2",
                 "--out", str(d / "torus.json")]) == 0
    return d


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# -- schema helpers -----------------------------------------------------------

def validate_report_schema(report: dict) -> None:
    props = SCHEMA["properties"]
    assert set(report) <= set(props), "unexpected report fields"
    for field in SCHEMA["required"]:
        assert field in report, f"missing report field {field}"
    assert report["tool"] == "tamecalc"
    assert report["command"] in props["command"]["enum"]
    assert isinstance(report["ok"], bool)
    assert isinstance(report["exit_code"], int) and 0 <= report["exit_code"] <= 2
    assert isinstance(report["timing_ms"], (int, float)) and report["timing_ms"] >= 0
    if report["input_digest"] is not None:
        assert re.fullmatch(r"sha256:[0-9a-f]{64}", report["input_digest"])
    for check in report["checks"]:
        assert set(check) == {"name", "ok", "witness"}
        assert isinstance(check["name"], str)
        assert isinstance(check["ok"], bool)
        assert check["witness"] is None or isinstance(check["witness"], str)


# -- check ---------------------------------------------------------------------

def test_check_passes_on_presets(workdir, capsys):
    for name in ("fuzzy.json", "torus.json"):
        code, out = run(capsys, ["check", str(workdir / name)])
        assert code == 0
        assert "tame: true" in out
        assert "metric_valid: true" in out


def test_check_json_report_matches_schema(workdir, capsys):
    code, out = run(capsys, ["check", "--json", str(workdir / "fuzzy.json")])
    assert code == 0
    report = json.loads(out)
    validate_report_schema(report)
    assert report["summary"]["tame"] is True


def test_check_broken_wedge_fails_named_condition(workdir, capsys, tmp_path):
    obj = json.loads((workdir / "fuzzy.json").read_text())
    # corrupt one wedge entry: middle-linearity dies
    obj["wedge"][0][1] = "1"
    bad = tmp_path / "broken-wedge.json"
    bad.write_text(json.dumps(obj))
    code, out = run(capsys, ["check", "--json", str(bad)])
    assert code == 1
    report = json.loads(out)
    failed = {c["name"] for c in report["checks"] if not c["ok"]}
    assert "wedge_middle_linear" in failed


def test_check_invalid_algebra_is_mathematical_failure(workdir, capsys, tmp_path):
    # shape-valid but non-associative structure constants: exit 1, named item
    obj = json.loads((workdir / "fuzzy.json").read_text())
    obj["algebra"]["mul"][1][1] = obj["algebra"]["mul"][1][2]
    bad = tmp_path / "bad-algebra.json"
    bad.write_text(json.dumps(obj))
    code, out = run(capsys, ["check", "--json", str(bad)])
    assert code == 1
    report = json.loads(out)
    failed = {c["name"] for c in report["checks"] if not c["ok"]}
    assert "algebra_axioms" in failed


def test_check_unreadable_input_exits_two(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["check", str(missing)]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["check", str(garbled)]) == 2
    wrong_shape = tmp_path / "shape.json"
    wrong_shape.write_text(json.dumps({"field": "Q(i)", "algebra": {"dim": 1}}))
    assert main(["check", str(wrong_shape)]) == 2


# -- connect -------------------------------------------------------------------

def test_connect_fuzzy_artifact(workdir, capsys):
    art = workdir / "fuzzy.connection.json"
    code, out = run(capsys, ["connect", str(workdir / "fuzzy.json"),
                             "--out", str(art), "--json"])
    assert code == 0
    report = json.loads(out)
    validate_report_schema(report)
    obj = json.loads(art.read_text())
    assert obj["checks"] == {
        "compatibility": True,
        "leibniz": True,
        "route_equality": True,
        "table_in_fields": True,
        "torsion_zero": True,
        "uniqueness_kernel_zero": True,
    }
    # the (X_1, X_2) entry pairs to 1 against the third field: its dual
    # coordinates sit on the third generator slot of the dual basis
    entry = obj["table"][0][1]
    assert entry[8] == "1"
    assert all(x == "0" for i, x in enumerate(entry) if i != 8)


def test_connect_torus_flat(workdir, capsys):
    art = workdir / "torus.connection.json"
    code, _ = run(capsys, ["connect", str(workdir / "torus.json"), "--out", str(art)])
    assert code == 0
    obj = json.loads(art.read_text())
    for row in obj["table"]:
        for entry in row:
            assert all(x == "0" for x in entry)
    # the value matrix kills the central generators: columns 0 and 9 within
    # each generator block sum against the unit coordinates; spot-check by
    # applying to the first central basis vector through the spec data
    spec = load_spec(workdir / "torus.json")
    from tamecalc.specfile import connection_from_json
    from dense_reference import vec_is_zero

    nabla, _ = connection_from_json(obj, spec.calculus.tensor_square.dim,
                                    spec.calculus.one_forms.dim)
    for z in central_basis(spec.calculus):
        assert vec_is_zero(nabla.apply(z))


def test_connect_rerun_byte_identical(workdir, capsys, tmp_path):
    a1 = tmp_path / "a1.json"
    a2 = tmp_path / "a2.json"
    assert main(["connect", str(workdir / "fuzzy.json"), "--out", str(a1)]) == 0
    capsys.readouterr()
    assert main(["connect", str(workdir / "fuzzy.json"), "--out", str(a2)]) == 0
    capsys.readouterr()
    assert a1.read_bytes() == a2.read_bytes()


def test_connect_with_metric_override(workdir, capsys, tmp_path):
    # doubling the metric leaves the unique connection unchanged
    obj = json.loads((workdir / "fuzzy.json").read_text())
    doubled = [[_scale2(x) for x in row] for row in obj["metric"]]
    override = tmp_path / "metric2.json"
    override.write_text(json.dumps({"metric": doubled}))
    art1 = tmp_path / "base.json"
    art2 = tmp_path / "doubled.json"
    assert main(["connect", str(workdir / "fuzzy.json"), "--out", str(art1)]) == 0
    capsys.readouterr()
    assert main(["connect", str(workdir / "fuzzy.json"), "--metric", str(override),
                 "--out", str(art2)]) == 0
    capsys.readouterr()
    a1 = json.loads(art1.read_text())
    a2 = json.loads(art2.read_text())
    assert a1["nabla"] == a2["nabla"]


def _scale2(x):
    if isinstance(x, dict):
        return {k: _scale2(v) for k, v in x.items()}
    from fractions import Fraction

    return str(Fraction(x) * 2)


def test_connect_refuses_the_frame_option(workdir, capsys, tmp_path):
    # the direct route solves for the connection itself and reads no
    # reference frame, so --frame is an unknown option
    frame = tmp_path / "frame.json"
    frame.write_text("[]")
    assert main(["connect", str(workdir / "fuzzy.json"), "--frame", str(frame),
                 "--out", str(tmp_path / "never.json")]) == 2
    assert "unrecognized arguments: --frame" in _input_error(capsys)
    assert not (tmp_path / "never.json").exists()


def test_spec_frame_key_is_ignored(workdir, capsys, tmp_path):
    # "frame" is no spec key: a spec carrying one, here a single central
    # generator that splits nothing, loads, saves back without it and
    # connects to the default connection
    from tamecalc.specfile import vector_to_json

    spec = load_spec(workdir / "fuzzy.json")
    obj = json.loads((workdir / "fuzzy.json").read_text())
    obj["frame"] = [vector_to_json(central_basis(spec.calculus)[0])]
    framed = tmp_path / "framed.json"
    framed.write_text(dumps_canonical(obj))
    saved = tmp_path / "saved.json"
    save_spec(load_spec(framed), saved)
    assert saved.read_bytes() == (workdir / "fuzzy.json").read_bytes()
    default, art = tmp_path / "default.json", tmp_path / "framed.connection.json"
    assert main(["connect", str(workdir / "fuzzy.json"), "--out", str(default)]) == 0
    assert main(["connect", str(framed), "--out", str(art)]) == 0
    capsys.readouterr()
    a, b = json.loads(default.read_text()), json.loads(art.read_text())
    assert a.pop("input_digest") != b.pop("input_digest")
    assert a == b


def test_connect_builds_no_reference_connection(workdir, capsys, tmp_path, line_geo):
    # the direct route solves for nabla(z_j) outright: the engine has no
    # Grassmann splitting, reference connection or whole torsion to build
    # (they are oracles in dense_reference), and connect and the route on
    # K[x]/(x^3), whose generators have relations, run without them
    from tamecalc import connection
    from tamecalc.connection import Geometry, levi_civita_direct

    for name in ("nabla_zero", "grassmann", "frame_splitting", "torsion"):
        assert not hasattr(connection, name), name
    assert main(["connect", str(workdir / "fuzzy.json"), "--out", str(tmp_path / "c.json")]) == 0
    capsys.readouterr()
    geo = Geometry(line_geo.calc, line_geo.sigma, line_geo.metric)
    assert levi_civita_direct(geo) == \
        levi_civita_direct(line_geo)


def _one_form_centers(monkeypatch):
    """Record every module_center call made from tamecalc; the returned
    function counts those on the one-forms of the spec the command loaded."""
    import sys

    from tamecalc import bimodule

    specs, centers = [], []
    real_load, real_center = cli.load_spec, bimodule.module_center

    def loaded(path):
        specs.append(real_load(path))
        return specs[-1]

    def counted(e):
        centers.append(e)
        return real_center(e)

    monkeypatch.setattr(cli, "load_spec", loaded)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tamecalc" and \
                getattr(module, "module_center", None) is real_center:
            monkeypatch.setattr(module, "module_center", counted)
    return lambda: sum(e is spec.calculus.one_forms for spec in specs for e in centers)


@pytest.mark.parametrize("command", ["check", "connect"])
def test_one_forms_are_tested_for_centeredness_once(workdir, capsys, tmp_path, monkeypatch,
                                                    command):
    # the symmetry, E* and the connection layer share one decision, the
    # `spans` of the one-forms' central generators, and one center of E
    one_form_centers = _one_form_centers(monkeypatch)
    argv = [command, str(workdir / "fuzzy.json")]
    if command == "connect":
        argv += ["--out", str(tmp_path / "conn.json")]
    assert main(argv) == 0
    capsys.readouterr()
    assert one_form_centers() == 1


@pytest.mark.parametrize("command, built", [("check", 2), ("connect", 3), ("verify", 3)])
def test_each_central_family_is_eliminated_once(workdir, capsys, tmp_path, monkeypatch,
                                                command, built):
    # E, E (x)_A E and E* each get one CentralGenerators (E* only once
    # there are vector fields), no map is solved from scratch, and no
    # family z_j . a_s is eliminated a second time as a Subspace (centeredness
    # is read off E's CentralGenerators, over the one center of E)
    import sys

    from tamecalc import bimodule, linalg

    artifact = tmp_path / "conn.json"
    if command == "verify":
        assert main(["connect", str(workdir / "fuzzy.json"), "--out", str(artifact)]) == 0
        capsys.readouterr()
    families, solves, spans = [], [], []
    real_init = bimodule.CentralGenerators.__init__
    real_solve = linalg.solve_through

    def counted_init(self, source, zs):
        zs = list(zs)
        families.append([linalg._apply_sparse(source.right[s], z)
                         for z in zs for s in range(source.algebra.dim)])
        real_init(self, source, zs)

    def counted_solve(*args, **kwargs):
        solves.append(args)
        return real_solve(*args, **kwargs)

    class RecordedSubspace(linalg.Subspace):
        def __init__(self, ambient_dim, vectors=()):
            vectors = list(vectors)
            spans.append(vectors)
            super().__init__(ambient_dim, vectors)

    monkeypatch.setattr(bimodule.CentralGenerators, "__init__", counted_init)
    one_form_centers = _one_form_centers(monkeypatch)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "tamecalc":
            continue
        if getattr(module, "solve_through", None) is real_solve:
            monkeypatch.setattr(module, "solve_through", counted_solve)
        if module is not linalg and getattr(module, "Subspace", None) is linalg.Subspace:
            monkeypatch.setattr(module, "Subspace", RecordedSubspace)
    argv = [command, str(workdir / "fuzzy.json")]
    if command == "connect":
        argv += ["--out", str(artifact)]
    if command == "verify":
        argv += [str(artifact)]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(families) == built
    assert one_form_centers() == 1
    assert solves == []
    assert spans and not any(vectors == family for vectors in spans for family in families)


def _stops_at_axiom(capsys, tmp_path, spec_text: str, axiom: str):
    """check --json on a spec whose calculus fails axiom: the report names
    it, and no tameness or metric line follows.  Returns the loaded spec
    and the axiom's witness."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec_text)
    code, out = run(capsys, ["check", str(spec_path), "--json"])
    assert code == 1
    report = json.loads(out)
    validate_report_schema(report)
    checks = {c["name"]: c for c in report["checks"]}
    assert not checks[axiom]["ok"]
    assert checks.keys().isdisjoint({"tame_certificate", *cli.TAMENESS_CHECKS, "metric_valid"})
    assert report["summary"] == {"calculus_valid": False, "tame": False, "metric_valid": False}
    return load_spec(spec_path), checks[axiom]["witness"]


def test_check_reports_central_tensors_that_do_not_span(workdir, capsys, tmp_path):
    # a one-form action that breaks associativity leaves E centered, but the
    # central tensors no longer span its tensor square; tameness is defined
    # only on a valid calculus, so the report stops at the failing axiom
    spec = json.loads((workdir / "torus.json").read_text())
    spec["one_forms"]["left"][2][0][1] = "1"
    _, witness = _stops_at_axiom(capsys, tmp_path, json.dumps(spec), "one_forms_bimodule_axioms")
    assert witness == "bimodule: (ab)e != a(be) at basis pair (1, 5)"


def test_readme_documents_exactly_the_command_options():
    # every --option of a subcommand is in README's command-line section,
    # and that section names no option the parser lacks
    import argparse

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", section))
    sub, = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {opt for parser in sub.choices.values() for action in parser._actions
              for opt in action.option_strings if opt.startswith("--") and opt != "--help"}
    assert documented == parsed


def test_readme_library_example_runs():
    # the one fenced python block of README's library section runs as
    # written; it asserts its own results
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    block, = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(block, "README.md", "exec"), {})


# -- verify --------------------------------------------------------------------

def test_verify_levi_civita_artifact(workdir, capsys):
    art = workdir / "fuzzy.connection.json"
    if not art.exists():
        assert main(["connect", str(workdir / "fuzzy.json"), "--out", str(art)]) == 0
        capsys.readouterr()
    code, out = run(capsys, ["verify", str(workdir / "fuzzy.json"), str(art)])
    assert code == 0
    assert "torsionless: true" in out
    assert "compatible: true" in out


def test_verify_grassmann_artifact_has_torsion(workdir, capsys, tmp_path):
    spec = load_spec(workdir / "fuzzy.json")
    from tamecalc.calculus import build_symmetry

    sigma = build_symmetry(validated(spec.calculus))
    conn = grassmann(spec.calculus, sigma)
    art = tmp_path / "grassmann.json"
    art.write_text(dumps_canonical(connection_to_json(
        conn, [], {}, input_digest((workdir / "fuzzy.json").read_bytes()))))
    code, out = run(capsys, ["verify", "--json", str(workdir / "fuzzy.json"), str(art)])
    assert code == 1
    report = json.loads(out)
    validate_report_schema(report)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["leibniz"]["ok"]
    assert not by_name["torsion_zero_form"]["ok"]
    assert not by_name["torsion_zero_covariant"]["ok"]
    assert by_name["torsion_zero_covariant"]["witness"]


def test_verify_reference_connection_is_torsionless_but_not_compatible(workdir, capsys,
                                                                      tmp_path):
    # on matrix-derivations-2 the reference connection passes both torsion
    # checks and fails only compatibility
    spec = load_spec(workdir / "fuzzy.json")
    from tamecalc.calculus import build_symmetry

    sigma = build_symmetry(validated(spec.calculus))
    conn = nabla_zero(spec.calculus, sigma)
    art = tmp_path / "reference.json"
    art.write_text(dumps_canonical(connection_to_json(conn, [], {}, spec.digest)))
    code, out = run(capsys, ["verify", "--json", str(workdir / "fuzzy.json"), str(art)])
    assert code == 1
    report = json.loads(out)
    validate_report_schema(report)
    failed = {c["name"] for c in report["checks"] if not c["ok"]}
    assert failed == {"compatibility_covariant"}
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["torsion_zero_form"]["ok"] and by_name["torsion_zero_covariant"]["ok"]
    assert by_name["compatibility_covariant"]["witness"].startswith("failing field triples")
    assert report["summary"]["torsionless"] is True
    assert report["summary"]["compatible"] is False


def test_verify_zero_map_fails_leibniz(workdir, capsys, tmp_path):
    spec = load_spec(workdir / "fuzzy.json")
    t2_dim = spec.calculus.tensor_square.dim
    zero = [["0"] * spec.calculus.one_forms.dim for _ in range(t2_dim)]
    art = tmp_path / "zero.json"
    art.write_text(json.dumps({"nabla": zero}))
    code, out = run(capsys, ["verify", "--json", str(workdir / "fuzzy.json"), str(art)])
    assert code == 1
    report = json.loads(out)
    by_name = {c["name"]: c for c in report["checks"]}
    assert not by_name["leibniz"]["ok"]
    assert report["summary"]["valid_connection"] is False


def _tampered(workdir, capsys, tmp_path, edit):
    art = tmp_path / "fresh.connection.json"
    assert main(["connect", str(workdir / "fuzzy.json"), "--out", str(art)]) == 0
    capsys.readouterr()
    obj = json.loads(art.read_text())
    edit(obj)
    bad = tmp_path / "tampered.connection.json"
    bad.write_text(dumps_canonical(obj))
    code, out = run(capsys, ["verify", "--json", str(workdir / "fuzzy.json"), str(bad)])
    report = json.loads(out)
    validate_report_schema(report)
    failed = {c["name"] for c in report["checks"] if not c["ok"]}
    return code, failed


def test_verify_rejects_tampered_table(workdir, capsys, tmp_path):
    def edit(obj):
        assert obj["table"][0][1][8] == "1"
        obj["table"][0][1][8] = "7"
    code, failed = _tampered(workdir, capsys, tmp_path, edit)
    assert code == 1
    assert failed == {"table_matches_connection"}


def test_verify_rejects_wrong_input_digest(workdir, capsys, tmp_path):
    def edit(obj):
        obj["input_digest"] = "sha256:" + "0" * 64
    code, failed = _tampered(workdir, capsys, tmp_path, edit)
    assert code == 1
    assert failed == {"input_digest_matches"}


def test_verify_table_of_wrong_shape_mismatches(workdir, capsys, tmp_path):
    def edit(obj):
        obj["table"] = [row[:2] for row in obj["table"][:2]]
    code, failed = _tampered(workdir, capsys, tmp_path, edit)
    assert code == 1
    assert failed == {"table_matches_connection"}


def test_verify_malformed_artifact_exits_two(workdir, capsys, tmp_path):
    art = tmp_path / "malformed.json"
    art.write_text(json.dumps({"nabla": [["0", "0"]]}))
    assert main(["verify", str(workdir / "fuzzy.json"), str(art)]) == 2


@pytest.mark.parametrize("artifact, message", [
    ({}, "connection: missing value matrix"),
    ({"nabla": [["1"]]}, "connection.nabla: expected 36 rows"),
], ids=["empty", "one-entry"])
def test_verify_checks_the_artifact_shape_when_a_check_fails(workdir, capsys, tmp_path,
                                                            artifact, message):
    # a spec that fails wedge_middle_linear and a malformed artifact: the
    # artifact is parsed whether or not the checks pass, so bad input wins
    obj = json.loads((workdir / "fuzzy.json").read_text())
    obj["wedge"][0][1] = "7"
    spec = tmp_path / "broken-wedge.json"
    spec.write_text(json.dumps(obj))
    art = tmp_path / "artifact.json"
    art.write_text(json.dumps(artifact))
    assert main(["verify", str(spec), str(art)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in _input_error_line(captured.err)


def _input_error(capsys) -> str:
    """The one stderr line of a command refused as bad input."""
    return _input_error_line(capsys.readouterr().err)


def _input_error_line(err: str) -> str:
    assert err.startswith("input error: ") and err.count("\n") == 1, err
    return err


# a scalar object's fields must be strings or integers: a list or null used
# to end in a TypeError traceback, a float or a bool to load silently
MALFORMED_SCALARS = [{"re": [1]}, {"re": None}, {"re": 0.1}, {"im": True}]


@pytest.mark.parametrize("scalar", MALFORMED_SCALARS, ids=["list", "null", "float", "bool"])
def test_malformed_scalar_object_in_spec_exits_two(workdir, capsys, tmp_path, scalar):
    obj = json.loads((workdir / "fuzzy.json").read_text())
    obj["d0"][1][0] = scalar
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["check", str(bad)]) == 2
    assert "spec.d0[1]: bad scalar" in _input_error(capsys)


@pytest.fixture(scope="module")
def fuzzy_artifact(workdir):
    art = workdir / "fuzzy.scalars.connection.json"
    assert main(["connect", str(workdir / "fuzzy.json"), "--out", str(art)]) == 0
    return json.loads(art.read_text())


@pytest.mark.parametrize("scalar", MALFORMED_SCALARS, ids=["list", "null", "float", "bool"])
def test_malformed_scalar_object_in_verify_table_exits_two(workdir, fuzzy_artifact, capsys,
                                                           tmp_path, scalar):
    obj = json.loads(json.dumps(fuzzy_artifact))
    obj["table"][0][1][8] = scalar
    bad = tmp_path / "bad.connection.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["verify", str(workdir / "fuzzy.json"), str(bad)]) == 2
    assert "connection.table[0][1]: bad scalar" in _input_error(capsys)


# Fraction expands 10**exp, so nine characters ("1e3000000") stalled the
# loader for minutes; tamecalc writes no exponent and reads none
@pytest.mark.parametrize("where", ["spec", "metric", "table"])
@pytest.mark.parametrize("scalar", ["1e5", {"re": "1", "im": "2E3"}, "1e3000000"],
                         ids=["bare", "field", "huge"])
def test_scalar_with_an_exponent_exits_two(workdir, fuzzy_artifact, capsys, tmp_path,
                                           where, scalar):
    spec = workdir / "fuzzy.json"
    bad = tmp_path / "bad.json"
    if where == "spec":
        obj = json.loads(spec.read_text())
        obj["d0"][1][0] = scalar
        argv, name = ["check", str(bad)], "spec.d0[1]"
    elif where == "metric":
        obj = {"metric": json.loads(spec.read_text())["metric"]}
        obj["metric"][0][0] = scalar
        argv, name = ["check", str(spec), "--metric", str(bad)], "metric override[0]"
    else:
        obj = json.loads(json.dumps(fuzzy_artifact))
        obj["table"][0][1][8] = scalar
        argv, name = ["verify", str(spec), str(bad)], "connection.table[0][1]"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(argv) == 2
    assert f"{name}: bad scalar (exponents are not allowed: " in _input_error(capsys)


@pytest.mark.parametrize("command", ["gen", "connect", "connect-to-directory"])
def test_unwritable_out_path_exits_two(workdir, capsys, tmp_path, monkeypatch, command):
    # connect refuses the path before either Levi-Civita route runs
    def solver(geo):
        raise AssertionError("a solver ran before --out was checked")

    monkeypatch.setattr(cli, "levi_civita_koszul", solver)
    monkeypatch.setattr(cli, "levi_civita_direct", solver)
    out = tmp_path / "missing" / "dir" / "x.json"
    if command == "gen":
        argv = ["gen", "abelian-torus", "--n", "2", "--out", str(out)]
    else:
        if command == "connect-to-directory":
            out = tmp_path
        argv = ["connect", str(workdir / "fuzzy.json"), "--out", str(out)]
    assert main(argv) == 2
    assert f"cannot write {out}: " in _input_error(capsys)


# bytes that are not UTF-8, and arrays nested past the JSON parser's
# recursion limit: both used to end in a traceback
UNPARSABLE = {"not-utf8": b"\xff\xfe{}", "too-deep": b"[" * 100000 + b"]" * 100000}


@pytest.mark.parametrize("kind", ["spec", "metric", "artifact"])
@pytest.mark.parametrize("content", sorted(UNPARSABLE))
def test_unparsable_file_exits_two(workdir, capsys, tmp_path, kind, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(UNPARSABLE[content])
    spec = str(workdir / "fuzzy.json")
    argv = {"spec": ["check", str(bad)],
            "metric": ["check", spec, "--metric", str(bad)],
            "artifact": ["verify", spec, str(bad)]}[kind]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {bad}: invalid JSON (")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "connect", "verify"])
def test_each_command_reads_the_spec_once(workdir, capsys, tmp_path, monkeypatch, command):
    # one read of the spec is parsed and hashed; the report and the
    # artifact carry that read's digest
    import builtins

    spec = workdir / "fuzzy.json"
    artifact = tmp_path / "conn.json"
    if command == "verify":
        assert main(["connect", str(spec), "--out", str(artifact)]) == 0
        capsys.readouterr()
    digest = "sha256:" + hashlib.sha256(spec.read_bytes()).hexdigest()
    reads = []

    def counted(real):
        def wrapper(target, *args, **kwargs):
            if str(target) == str(spec):
                reads.append(real.__name__)
            return real(target, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(Path, "read_bytes", counted(Path.read_bytes))
    monkeypatch.setattr(Path, "read_text", counted(Path.read_text))
    monkeypatch.setattr(builtins, "open", counted(builtins.open))
    argv = [command, str(spec), "--json"]
    if command == "connect":
        argv += ["--out", str(artifact)]
    if command == "verify":
        argv += [str(artifact)]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert reads == ["read_bytes"]
    assert report["input_digest"] == digest
    if command != "check":
        assert json.loads(artifact.read_text())["input_digest"] == digest


def _trivial_spec() -> dict:
    """A = Q(i) with zero one- and two-forms, which check accepts."""
    return {"field": "Q(i)", "name": "trivial",
            "algebra": {"dim": 1, "basis": ["1"], "unit": ["1"], "mul": [[["1"]]]},
            "one_forms": {"dim": 0, "left": [[]], "right": [[]]},
            "two_forms": {"dim": 0, "left": [[]], "right": [[]]},
            "d0": [], "d1": [], "wedge": [], "metric": [[]]}


@pytest.mark.parametrize("block, value, message", [
    ("algebra", True, "spec.algebra.dim: expected a positive integer"),
    ("one_forms", False, "spec.one_forms.dim: expected a nonnegative integer"),
    ("two_forms", False, "spec.two_forms.dim: expected a nonnegative integer")])
def test_boolean_dimension_exits_two(capsys, tmp_path, block, value, message):
    # true == 1 and false == 0 in Python; a JSON boolean is still no dimension
    good = tmp_path / "trivial.json"
    good.write_text(json.dumps(_trivial_spec()))
    assert main(["check", str(good)]) == 0
    capsys.readouterr()
    obj = _trivial_spec()
    obj[block]["dim"] = value
    bad = tmp_path / "bool.json"
    bad.write_text(json.dumps(obj))
    assert main(["check", str(bad)]) == 2
    assert message in _input_error(capsys)


@pytest.fixture
def bad_inputs(tmp_path):
    paths = {"missing": tmp_path / "missing.json", "garbled": tmp_path / "garbled.json",
             "shape": tmp_path / "shape.json", "unwritable": tmp_path / "no" / "dir" / "x.json"}
    paths["garbled"].write_text("{not json")
    paths["shape"].write_text(json.dumps([["1"]]))
    return paths


# (argv after the spec, the bad file the error names)
READ_BEFORE_CHECKS = {
    "check-metric-missing": (["check", "--metric", "{missing}"], "missing"),
    "check-metric-shape": (["check", "--metric", "{shape}"], "shape"),
    "connect-metric-garbled": (["connect", "--metric", "{garbled}", "--out", "{out}"], "garbled"),
    "verify-metric-missing": (["verify", "{out}", "--metric", "{missing}"], "missing"),
    "verify-artifact-missing": (["verify", "{missing}"], "missing"),
    "verify-artifact-garbled": (["verify", "{garbled}"], "garbled"),
    "connect-out-unwritable": (["connect", "--out", "{unwritable}"], "unwritable"),
}


@pytest.mark.parametrize("case", sorted(READ_BEFORE_CHECKS))
def test_input_files_are_read_before_any_check(workdir, capsys, tmp_path, monkeypatch,
                                               bad_inputs, case):
    def checked(calc):
        raise AssertionError("a check ran before every input file was read")

    monkeypatch.setattr(cli, "validate_calculus", checked)
    args, named = READ_BEFORE_CHECKS[case]
    paths = {**bad_inputs, "out": tmp_path / "x.json"}
    command, *rest = [a.format(**paths) for a in args]
    capsys.readouterr()
    assert main([command, str(workdir / "fuzzy.json"), *rest]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = _input_error_line(captured.err)
    if named == "shape":
        assert "metric override" in err
    else:
        assert str(bad_inputs[named]) in err


def test_a_contract_violation_inside_an_axiom_is_no_report_line(workdir, capsys, monkeypatch):
    # a failed axiom comes back as its text; a raised ContractViolationError
    # is a broken contract, which main writes as one stderr line (exit 1)
    def broken(self):
        raise ContractViolationError("bimodule: broken contract")

    monkeypatch.setattr(bimodule.Bimodule, "validate", broken)
    assert main(["check", str(workdir / "fuzzy.json")]) == 1
    assert capsys.readouterr() == ("", "ContractViolation: bimodule: broken contract\n")


def test_bad_input_file_outranks_a_failing_check(workdir, capsys, tmp_path):
    # a spec that fails the algebra axioms with a missing --metric exits 2;
    # it exited 1, because the metric file was read only after the checks
    obj = json.loads((workdir / "fuzzy.json").read_text())
    obj["algebra"]["mul"][1][1] = obj["algebra"]["mul"][1][2]
    broken = tmp_path / "bad-algebra.json"
    broken.write_text(json.dumps(obj))
    assert main(["check", str(broken)]) == 1
    capsys.readouterr()
    assert main(["check", str(broken), "--metric", str(tmp_path / "missing.json")]) == 2
    assert "missing.json" in _input_error(capsys)


@pytest.mark.parametrize("argv, message", [
    (["check"], "tamecalc check: the following arguments are required: spec"),
    (["gen", "abelian-torus", "--n", "x"], "tamecalc gen: argument --n: invalid int value"),
    (["gen", "klein-bottle"], "tamecalc gen: argument preset: invalid choice: 'klein-bottle'"),
    ([], "tamecalc: the following arguments are required: command"),
])
def test_bad_command_line_is_one_input_error(capsys, argv, message):
    # argparse's own usage text would be two lines; bad input is one
    assert main(argv) == 2
    assert message in _input_error(capsys)


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["gen", "--help"]])
def test_help_and_version_exit_zero_on_stdout(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith(("tamecalc 0.1.0", "usage: tamecalc")) and err == ""


def test_gen_offers_exactly_the_shipped_presets():
    # cli names the presets without importing builders; --help lists them sorted
    import argparse

    sub, = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    preset, = (a for a in sub.choices["gen"]._actions if a.dest == "preset")
    assert list(preset.choices) == sorted(PRESETS)


def test_gen_of_an_unshipped_size_exits_two(capsys, tmp_path):
    out = tmp_path / "torus3.json"
    assert main(["gen", "abelian-torus", "--n", "3", "--out", str(out)]) == 2
    assert "abelian-torus --n 3" in _input_error(capsys)
    assert not out.exists()


# -- full round trip -------------------------------------------------------------

def test_round_trip_all_presets(capsys, tmp_path):
    for preset, n in (("matrix-derivations", 2), ("abelian-torus", 2)):
        spec_path = tmp_path / f"{preset}-{n}.json"
        art_path = tmp_path / f"{preset}-{n}.connection.json"
        assert main(["gen", preset, "--n", str(n), "--out", str(spec_path)]) == 0
        assert main(["check", str(spec_path)]) == 0
        assert main(["connect", str(spec_path), "--out", str(art_path)]) == 0
        assert main(["verify", str(spec_path), str(art_path)]) == 0
        capsys.readouterr()


# sha256 of the connect artifacts of the two small presets, default metric
GOLDEN_ARTIFACTS = {
    "matrix-derivations": "8b78bb41bfae161284e7aed924e21a733677856a3fcf05cd609169441367c6f5",
    "abelian-torus": "0a19bcfccd8eb8295e81d821fbb7e3eb61b66bbd8f9fbe0e8b6e9b8a67c4187b",
}


def test_connect_artifacts_match_golden_digests(capsys, tmp_path):
    for preset, digest in GOLDEN_ARTIFACTS.items():
        spec_path = tmp_path / f"{preset}-2.json"
        art_path = tmp_path / f"{preset}-2.connection.json"
        assert main(["gen", preset, "--n", "2", "--out", str(spec_path)]) == 0
        assert main(["connect", str(spec_path), "--out", str(art_path)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(art_path.read_bytes()).hexdigest() == digest, preset


# sha256 of the matrix-derivations-2 connect artifact under the constant
# metric GRAM_3 on the frame one-forms, where V_g^{-1} is dense
GOLDEN_DENSE_INVERSE = "99c93e567353617e8bc27848ae83185ad2c5f1a720e29396ede0a8ef2e413451"


def test_connect_artifact_with_dense_inverse_metric_matches_golden(capsys, tmp_path):
    spec_path = tmp_path / "matrix-derivations-2.json"
    metric_path = tmp_path / "gram3.metric.json"
    art_path = tmp_path / "matrix-derivations-2.connection.json"
    assert main(["gen", "matrix-derivations", "--n", "2", "--out", str(spec_path)]) == 0
    g = constant_metric_plain(matrix_derivations_chevalley(2), GRAM_3)
    metric_path.write_text(dumps_canonical({"metric": matrix_to_json(g)}), encoding="utf-8")
    assert main(["connect", str(spec_path), "--metric", str(metric_path),
                 "--out", str(art_path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(art_path.read_bytes()).hexdigest() == GOLDEN_DENSE_INVERSE


def test_small_preset_outputs_match_the_digest_manifest():
    # tests/digests.py pins what every command prints, exits with and
    # writes; its cases on the two small presets run here
    import digests

    manifest = json.loads(digests.MANIFEST.read_text())
    assert digests.differences(digests.compute(small_only=True), manifest,
                               small_only=True) == []


# -- refusal witnesses -------------------------------------------------------------
#
# A refused tameness or metric check names its witness in the report, a
# vector written sparse.  Each refusal class of the digest manifest is run
# on the manifest's input, and the witness is recomputed without the check.

def _refused(capsys, tmp_path, spec_text: str, metric_text: str | None = None):
    """check --json on the texts: the spec and the one failed refusal check."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec_text)
    argv = ["check", str(spec_path), "--json"]
    if metric_text is not None:
        (tmp_path / "metric.json").write_text(metric_text)
        argv += ["--metric", str(tmp_path / "metric.json")]
    code, out = run(capsys, argv)
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    failed = [name for name in ("tame_certificate", "metric_valid")
              if name in checks and not checks[name]["ok"]]
    assert len(failed) == 1
    return load_spec(spec_path), checks[failed[0]]["witness"]


def _sparse_witness(text: str, prefix: str) -> dict:
    """The {index: value} vector after prefix, parsed back."""
    assert text.startswith(prefix), text
    body = text[len(prefix):]
    assert body[0] == "{" and body[-1] == "}", body
    pairs = (item.split(": ") for item in body[1:-1].split(", "))
    return {int(j): qi(v) for j, v in pairs}


def test_not_symmetric_names_the_first_column_sigma_moves(capsys, tmp_path):
    import digests

    spec, witness = _refused(capsys, tmp_path, *digests.bench_texts("fuzzy-sphere-3", "asym3"))
    w = _sparse_witness(witness, "NotSymmetric: g(sigma(x)) != g(x); witness ")
    calc = spec.calculus
    g_in = load_metric_override(tmp_path / "metric.json", calc.one_forms.dim, calc.algebra.dim)
    qt = calc.tensor_square
    zs = central_basis(calc)
    sigma = through_central_tensors(calc, [qt.bimodule.right[r].apply(pure(qt, zq, zp))
                                           for zp in zs for zq in zs
                                           for r in range(calc.algebra.dim)], qt.dim)
    g = g_in @ qt.section
    moved = [j for j, c in enumerate((g @ sigma - g).sparse_cols()) if c]
    assert w == {moved[0]: ONE}


def test_not_bilinear_names_the_first_relation_the_metric_keeps(capsys, tmp_path):
    import digests

    text = digests._bumped(digests.preset_text("matrix-derivations", 2), *digests.BUMPS["metric"])
    spec, witness = _refused(capsys, tmp_path, text)
    w = _sparse_witness(witness, "NotBilinear: metric on plain tensors does not kill "
                                 "the (x)_A relations; witness ")
    # e.a (x) f - e (x) a.f over every basis element a and basis vectors e, f
    e = spec.calculus.one_forms
    n = e.dim
    rels = []
    for r in range(e.algebra.dim):
        for i in range(n):
            for j in range(n):
                ea = e.right[r].apply(basis_vector(n, i))
                af = e.left[r].apply(basis_vector(n, j))
                rels.append([(ea[s] if t == j else ZERO) - (af[t] if s == i else ZERO)
                             for s in range(n) for t in range(n)])
    g_in = spec.metric_plain
    kept = [row for row in Subspace(n * n, rels).rows
            if vec_to_sparse(g_in.apply(tuple(row.get(k, ZERO) for k in range(n * n))))]
    assert w == kept[0]


@pytest.mark.parametrize("preset, bump, condition", [
    ("matrix-derivations", ("one_forms", "left", 1, 0, 1), "FlipNotWellDefined"),
    ("abelian-torus", ("one_forms", "left", 2, 0, 1), "CentralTensorsDoNotSpan"),
])
def test_a_refusal_without_witness_names_none(capsys, tmp_path, preset, bump, condition):
    # condition was this input's refusal while tameness ran after a failed
    # axiom; the theory rules it out on a valid calculus, so check stops at
    # the axiom, and build_symmetry forced to run raises
    import digests
    from tamecalc.calculus import build_symmetry, validate_calculus

    spec, _ = _stops_at_axiom(capsys, tmp_path,
                              digests._bumped(digests.preset_text(preset, 2), *bump),
                              "one_forms_bimodule_axioms")
    calc = spec.calculus
    assert calc.algebra.validate() is None and not validate_calculus(calc).ok
    calc.validated = True
    ruled_out = {"FlipNotWellDefined": "values break a relation",
                 "CentralTensorsDoNotSpan": "central tensors do not span"}
    with pytest.raises(InternalInconsistencyError, match=ruled_out[condition]):
        build_symmetry(calc)


def test_every_manifest_refusal_witness_is_sparse_a_label_or_none(monkeypatch):
    # each refusal the manifest's check cases reach, as the report gets it
    import digests

    seen: dict[str, list] = {}
    report = cli.refusal_text

    def record(refusal):
        seen.setdefault(refusal.condition, []).append(refusal.witness)
        return report(refusal)

    monkeypatch.setattr(cli, "refusal_text", record)
    for name, (_, case) in digests.cases().items():
        if name.startswith("refuse-check/"):
            digests.run_case(name, case)
    # the two tameness refusals a valid calculus can reach, and the metric's
    assert set(seen) == {"NotCentered", "PsymRangeMismatch", "NotBilinear", "NotSymmetric",
                         "VgNotInvertible"}
    for condition, witnesses in seen.items():
        for w in witnesses:
            assert w is None or isinstance(w, str) or (
                type(w) is dict and w and all(type(j) is int and isinstance(v, Scalar)
                                              and v is not ZERO for j, v in w.items())), (condition, w)


def test_no_manifest_case_decides_tameness_after_a_failed_axiom(capsys, monkeypatch, tmp_path):
    # tameness and the metric are defined only on a valid calculus: in each
    # small refuse-check case, no tameness or metric line follows a failed
    # axiom, and the two tameness refusals are reached on valid calculi
    import digests

    decided = ("tame_certificate", *cli.TAMENESS_CHECKS, "metric_valid")
    refused = set()
    for name, (small, case) in digests.cases().items():
        if not (small and name.startswith("refuse-check/")):
            continue
        workdir = tmp_path / name.replace("/", "_")
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main(case()) == 1
        lines = capsys.readouterr().out.splitlines()
        checks = [line.split("] ")[1].split(":")[0] for line in lines if line.startswith("  [")]
        failed = [line.startswith("  [FAIL]") for line in lines if line.startswith("  [")]
        first = failed.index(True)
        if checks[first] not in decided:
            assert not set(checks[first:]) & set(decided), name
        elif checks[first] == "tame_certificate":
            refused.add(lines[first].split(": ")[1])
    assert refused == {"NotCentered", "PsymRangeMismatch"}


def test_refusal_text_writes_a_complex_witness_by_index():
    # written in index order, the negative imaginary part without "+-"
    refusal = Refusal("C", "detail", {1: qi("1/2", "-1/2"), 0: qi("1/2", "1/2")})
    assert cli.refusal_text(refusal) == "C: detail; witness {0: (1/2+1/2i), 1: (1/2-1/2i)}"


def _manifest_texts(monkeypatch, tmp_path, label: str) -> list[str]:
    """The spec text, and the --metric text if any, of a manifest refusal
    case, written by the case itself."""
    import digests

    monkeypatch.chdir(tmp_path)
    args = {**digests.REFUSALS, **digests.AXIOM_FAILURES}[label]()
    return [Path(args[0]).read_text(), *(Path(a).read_text() for a in args[2:3])]


def test_vg_not_invertible_names_the_first_kernel_vector(capsys, monkeypatch, tmp_path):
    spec, witness = _refused(capsys, tmp_path,
                             *_manifest_texts(monkeypatch, tmp_path, "matrix-derivations-2.zero-metric"))
    w = _sparse_witness(witness, "VgNotInvertible: V_g has a nontrivial kernel; witness ")
    # V_g(e_i) is the functional e_j -> g(e_i (x) e_j): its kernel is that of
    # the matrix with row (j, c) holding g(e_i (x) e_j)_c over i, whatever
    # basis E* is written in, and its RREF basis is canonical
    calc = spec.calculus
    n = calc.one_forms.dim
    g_in = load_metric_override(tmp_path / "metric.json", n, calc.algebra.dim)
    g_cols = g_in.sparse_cols()
    rows = [{i: g_cols[i * n + j][c] for i in range(n) if c in g_cols[i * n + j]}
            for j in range(n) for c in range(calc.algebra.dim)]
    kernel = Subspace(n, kernel_rows(rows, n))
    assert kernel.dim > 0 and w == kernel.rows[0]


def test_psym_range_mismatch_names_a_vector_in_one_space_only(capsys, monkeypatch, tmp_path):
    spec, witness = _refused(capsys, tmp_path,
                             *_manifest_texts(monkeypatch, tmp_path, "abelian-torus-2.no-two-forms"))
    w = _sparse_witness(witness, "PsymRangeMismatch: the symmetrizer image differs from the "
                                 "kernel of the wedge; witness ")
    calc = spec.calculus
    qt = calc.tensor_square
    zs = central_basis(calc)
    sigma = through_central_tensors(calc, [qt.bimodule.right[r].apply(pure(qt, zq, zp))
                                           for zp in zs for zq in zs
                                           for r in range(calc.algebra.dim)], qt.dim)
    ran_p = Subspace(qt.dim, symmetrizer(calc, sigma).transpose().sparse_rows())
    ker_w = Subspace(qt.dim, kernel_rows((calc.wedge_plain @ qt.section).sparse_rows(), qt.dim))
    # the first RREF basis row of the range outside ker W, else of ker W
    # outside the range
    outside = [row for space, other in ((ran_p, ker_w), (ker_w, ran_p))
               for row in space.rows if other._residual(dict(row))]
    assert outside and w == outside[0]


def test_q_not_invertible_counts_the_complement_of_ker_wedge(capsys, monkeypatch, tmp_path):
    # the complement of ker(wedge) is smaller than the two-forms exactly
    # when the wedge misses some of them, and check stops at that axiom
    spec, witness = _stops_at_axiom(capsys, tmp_path, *_manifest_texts(
        monkeypatch, tmp_path, "matrix-derivations-2.doubled-two-forms"), "wedge_surjective")
    calc = spec.calculus
    qt = calc.tensor_square
    complement = qt.dim - len(kernel_rows((calc.wedge_plain @ qt.section).sparse_rows(), qt.dim))
    assert complement < calc.two_forms.dim
    assert witness == "wedge does not reach all of the two-forms"


def test_not_centered_names_the_first_direction_outside_the_span(capsys, monkeypatch, tmp_path):
    spec, witness = _refused(capsys, tmp_path,
                             *_manifest_texts(monkeypatch, tmp_path, "two-point-graph"))
    w = _sparse_witness(witness, "NotCentered: the center of the one-forms does not generate "
                                 "them as a right module; witness ")
    # e_j is the first direction outside the right span of the center when
    # the span, cut to coordinates 0..j, first has rank below j + 1
    e = spec.calculus.one_forms
    span = [e.right[r].apply(z) for z in central_basis(spec.calculus) for r in range(e.algebra.dim)]
    j = next(j for j in range(e.dim)
             if Subspace(j + 1, [v[:j + 1] for v in span]).dim < j + 1)
    assert w == {j: ONE}


def test_spec_files_round_trip_exactly(workdir):
    spec = load_spec(workdir / "fuzzy.json")
    from tamecalc.specfile import spec_from_json, spec_to_json

    again = spec_from_json(spec_to_json(spec))
    assert again.calculus.d0 == spec.calculus.d0
    assert again.calculus.wedge_plain == spec.calculus.wedge_plain
    assert again.metric_plain == spec.metric_plain
    assert again.calculus.algebra.mul == spec.calculus.algebra.mul


def _report_digest(report: dict) -> str:
    """sha256 of a --json report without its run time and input path."""
    kept = {k: v for k, v in report.items() if k not in ("timing_ms", "input")}
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()


# sha256 of the abelian-torus-4 spec that `gen` writes, and of its
# `check --json` report without timing_ms and the input path
GOLDEN_TORUS4_SPEC = "757febec2b2bb1de0a6c8c0054efacbbb771f62644bcddf3e10324363671cc76"
GOLDEN_TORUS4_CHECK = "5e46ae6e65459fc45c6736a7c9893f0e81f2bea275a83e52692a435648d32f13"


def test_abelian_torus_4_spec_and_check_report_match_golden(capsys, tmp_path):
    spec_path = tmp_path / "abelian-torus-4.json"
    assert main(["gen", "abelian-torus", "--n", "4", "--out", str(spec_path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(spec_path.read_bytes()).hexdigest() == GOLDEN_TORUS4_SPEC
    code, out = run(capsys, ["check", str(spec_path), "--json"])
    assert code == 0
    assert _report_digest(json.loads(out)) == GOLDEN_TORUS4_CHECK


def test_files_are_written_without_the_stdlib_indent_encoder(capsys, tmp_path, monkeypatch):
    """json.dumps(indent=...) steps json.encoder._make_iterencode; the
    canonical writer never reaches it, for a spec, an artifact or a report."""
    def refuse(*args, **kwargs):
        raise AssertionError("the stdlib indent encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    spec_path = tmp_path / "abelian-torus-4.json"
    assert main(["gen", "abelian-torus", "--n", "4", "--out", str(spec_path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(spec_path.read_bytes()).hexdigest() == GOLDEN_TORUS4_SPEC
    code, out = run(capsys, ["check", str(spec_path), "--json"])
    assert code == 0 and json.loads(out)["ok"]
    small, art = tmp_path / "matrix-derivations-2.json", tmp_path / "md2.connection.json"
    assert main(["gen", "matrix-derivations", "--n", "2", "--out", str(small)]) == 0
    capsys.readouterr()
    code, out = run(capsys, ["connect", str(small), "--json", "--out", str(art)])
    assert code == 0 and json.loads(out)["ok"]
    assert hashlib.sha256(art.read_bytes()).hexdigest() == GOLDEN_ARTIFACTS["matrix-derivations"]


def test_gen_certifies_nothing(capsys, tmp_path, monkeypatch):
    """Builders build and `check` certifies: with every certification
    patched to raise, `gen` still writes the pinned spec."""
    def refuse(*args, **kwargs):
        raise AssertionError("gen certified the calculus")

    monkeypatch.setattr(algebra.Algebra, "validate", refuse)
    monkeypatch.setattr(bimodule.Bimodule, "validate", refuse)
    monkeypatch.setattr(calculus, "validate_calculus", refuse)
    monkeypatch.setattr(cli, "validate_calculus", refuse)
    spec_path = tmp_path / "abelian-torus-4.json"
    assert main(["gen", "abelian-torus", "--n", "4", "--out", str(spec_path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(spec_path.read_bytes()).hexdigest() == GOLDEN_TORUS4_SPEC


def _identity_action():
    spec = truncated_line_spec()
    return ChevalleySpec(spec.algebra, 1, spec.brackets, (Matrix.identity(3),))


def _zero_brackets():
    spec = matrix_derivations_chevalley(2)
    flat = tuple(tuple(zero_vector(3) for _ in range(3)) for _ in range(3))
    return ChevalleySpec(spec.algebra, 3, flat, spec.actions)


@pytest.mark.parametrize("broken, named", [(_identity_action, "d0_leibniz"),
                                           (_zero_brackets, "d_squared_zero")])
def test_broken_lie_datum_fails_a_named_check(capsys, tmp_path, broken, named):
    # an action that is no derivation, or actions that do not represent the
    # bracket, reach `check` through a spec file: exit 1, the named item,
    # no traceback
    spec = broken()
    path = tmp_path / "broken-lie.json"
    save_spec(SpecData(name="broken-lie", calculus=build_chevalley(spec),
                       metric_plain=euclidean_metric_plain(spec)), path)
    code = main(["check", "--json", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["exit_code"] == 1
    failed = {c["name"] for c in report["checks"] if not c["ok"]}
    assert named in failed


@pytest.mark.parametrize("command", ["check", "connect"])
@pytest.mark.parametrize("spec", ["fuzzy.json", "torus.json"])
def test_json_report_bytes_are_the_stdlib_form(workdir, capsys, tmp_path, command, spec):
    argv = [command, str(workdir / spec), "--json"]
    if command == "connect":
        argv += ["--out", str(tmp_path / "artifact.json")]
    code, out = run(capsys, argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


# -- which actions of the tensor square are read ----------------------------------

class RecordedReads(tuple):
    """A tuple of action matrices that logs the index of every read."""

    def __new__(cls, items, log):
        obj = super().__new__(cls, items)
        obj.log = log
        return obj

    def __getitem__(self, i):
        self.log.append(i)
        return super().__getitem__(i)


@pytest.fixture(scope="module")
def fuzzy3_input(tmp_path_factory):
    inputs = load_perfbench("inputs")
    return inputs.write_input("fuzzy-sphere-3", {"A3": inputs.BASES["A3"]},
                              tmp_path_factory.mktemp("fuzzy3"))


def test_tensor_square_left_actions_are_read_on_generators(fuzzy3_input, capsys, tmp_path,
                                                           monkeypatch):
    # Only validate_metric (g is bilinear) reads the left actions of
    # E (x)_A E, through Algebra.first_failure: on a passing connect just
    # the algebra's generators; the whole basis is read only to name a
    # failure.  build_symmetry reads none, as sigma is a bimodule map by
    # construction.
    spec = load_spec(fuzzy3_input.spec_path)
    qt = spec.calculus.tensor_square
    gens = list(spec.calculus.algebra.generators)
    assert len(gens) < spec.calculus.algebra.dim
    # a metric that kills the relations but breaks bilinearity, at E11
    g = spec.metric_plain @ qt.section
    rows = [dict(r) for r in g.sparse_rows()]
    rows[1] = _lincomb(((ONE, rows[1]), (ONE, {0: ONE})))
    bad = tmp_path / "bad.metric.json"
    bad.write_text(dumps_canonical({"metric": matrix_to_json(
        Matrix.from_sparse_rows(rows, g.cols) @ qt.project)}), encoding="utf-8")

    log: list[int] = []
    init = bimodule.QuotientTensor.__init__

    def recorded_init(self, *args):
        init(self, *args)
        self.bimodule.left = RecordedReads(self.bimodule.left, log)

    monkeypatch.setattr(bimodule.QuotientTensor, "__init__", recorded_init)
    assert main(["connect", str(fuzzy3_input.spec_path), "--metric",
                 str(fuzzy3_input.metrics["A3"].path), "--out", str(tmp_path / "a.json")]) == 0
    assert log == gens
    log.clear()
    code, out = run(capsys, ["check", str(fuzzy3_input.spec_path), "--metric", str(bad)])
    assert code == 1 and "NotBilinear: metric is not right-linear" in out
    # the first generator fails, and the rerun over the whole basis stops
    # at the same first element
    assert log == [0, 0]


# -- exit contract ---------------------------------------------------------------

@pytest.mark.parametrize("command, target", [
    ("connect", "tamecalc.connection.solve_sparse"),
    ("check", "tamecalc.bimodule.ColumnSolver"),
])
def test_escaped_linalg_error_exits_one_without_traceback(workdir, capsys, tmp_path,
                                                          monkeypatch, command, target):
    from tamecalc.linalg import LinAlgError

    def broken_solver(*args, **kwargs):
        raise LinAlgError("rhs length does not match the system")

    monkeypatch.setattr(target, broken_solver)
    argv = [command, str(workdir / "fuzzy.json")]
    if command == "connect":
        argv += ["--out", str(tmp_path / "never.json")]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err == "LinAlgError: rhs length does not match the system\n"
    assert not (tmp_path / "never.json").exists()


def _connect_refused(workdir, capsys, tmp_path) -> dict:
    art = tmp_path / "never.json"
    code, out = run(capsys, ["connect", str(workdir / "fuzzy.json"), "--out", str(art), "--json"])
    assert code == 1
    assert not art.exists()
    report = json.loads(out)
    validate_report_schema(report)
    return {c["name"]: c for c in report["checks"] if not c["ok"]}


@pytest.mark.parametrize("verdicts", [
    {"leibniz": (0, 1)},
    {"leibniz": None, "table": (), "torsion_witnesses": ((0, 1),)},
    {"leibniz": None, "table": (), "compat_witnesses": ((0, 0, 0),)},
], ids=["leibniz", "torsion", "compatibility"])
def test_connect_writes_its_certified_checks_only_when_they_hold(workdir, capsys, tmp_path,
                                                                 monkeypatch, verdicts):
    # the artifact's leibniz, torsion_zero and compatibility are written
    # True: the Koszul route raises unless certify passes its connection
    from tamecalc import connection

    monkeypatch.setattr(connection, "certify", lambda geo, nabla: connection.Verdicts(**verdicts))
    failed = _connect_refused(workdir, capsys, tmp_path)
    assert list(failed) == ["solver_InternalInconsistency"]
    assert failed["solver_InternalInconsistency"]["witness"] == \
        "Koszul connection fails certification or does not regenerate its table"


def test_connect_writes_a_zero_kernel_only_when_it_is_zero(workdir, capsys, tmp_path,
                                                           monkeypatch):
    # the artifact's uniqueness_kernel_zero is written True: the direct
    # route raises unless its system has full rank
    from tamecalc import connection

    real = connection.solve_sparse

    def one_short(rows, ncols, rhs):
        solutions, rank = real(rows, ncols, rhs)
        return solutions, rank - 1

    monkeypatch.setattr(connection, "solve_sparse", one_short)
    failed = _connect_refused(workdir, capsys, tmp_path)
    assert list(failed) == ["solver_NonUniqueSolution"]
    assert failed["solver_NonUniqueSolution"]["witness"] == \
        "constraint system has a nontrivial kernel"


# -- process start ---------------------------------------------------------------

# Runs `python -m tamecalc.cli ARGS`, then names on its last stderr line the
# modules of START_UP_ONLY it imported.
START_UP_ONLY = ("dataclasses", "inspect", "tamecalc.builders")
RUN_CLI = f"""
import runpy, sys
try:
    runpy.run_module("tamecalc.cli", run_name="__main__", alter_sys=True)
finally:
    print("imported:", *sorted(set(sys.modules) & set({START_UP_ONLY!r})), file=sys.stderr)
"""


def _cli_run(argv, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, "-c", RUN_CLI, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def _cli_process(argv, cwd) -> tuple[int, list[str]]:
    proc = _cli_run(argv, cwd)
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("imported:"), proc.stderr
    return proc.returncode, last.split()[1:]


def test_only_gen_imports_builders_and_no_command_imports_dataclasses(tmp_path):
    # where no bytecode is cached every command compiles what it imports:
    # builders is gen's alone, and dataclasses (which imports inspect) no command's
    torus4 = tmp_path / "abelian-torus-4.json"
    assert _cli_process(["gen", "abelian-torus", "--n", "4", "--out", str(torus4)],
                        tmp_path) == (0, ["tamecalc.builders"])
    assert hashlib.sha256(torus4.read_bytes()).hexdigest() == GOLDEN_TORUS4_SPEC
    spec, art = tmp_path / "matrix-derivations-2.json", tmp_path / "md2.connection.json"
    assert main(["gen", "matrix-derivations", "--n", "2", "--out", str(spec)]) == 0
    for argv in (["check", str(spec)], ["connect", str(spec), "--out", str(art)],
                 ["verify", str(spec), str(art)]):
        assert _cli_process(argv, tmp_path) == (0, []), argv
    assert hashlib.sha256(art.read_bytes()).hexdigest() == GOLDEN_ARTIFACTS["matrix-derivations"]


def test_no_module_in_src_imports_dataclasses():
    # each @dataclass execs its generated methods when its module loads
    src = Path(cli.__file__).resolve().parent.parent
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert all(a.name.split(".")[0] != "dataclasses" for a in node.names), path
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "dataclasses", path


def test_outputs_do_not_depend_on_object_addresses(tmp_path):
    # scalars hash by identity, and addresses differ between processes: a
    # scalar-keyed set or dict whose order reached an output would show here
    inputs = load_perfbench("inputs")
    made = inputs.write_input("fuzzy-sphere-2", {"A3": inputs.BASES["A3"]}, tmp_path)
    spec, metric = str(made.spec_path), str(made.metrics["A3"].path)
    art = tmp_path / "out.connection.json"
    runs = []
    for _ in range(2):
        connect = _cli_run(["connect", spec, "--metric", metric, "--out", str(art), "--json"],
                           tmp_path)
        verify = _cli_run(["verify", spec, str(art), "--metric", metric, "--json"], tmp_path)
        assert (connect.returncode, verify.returncode) == (0, 0), connect.stderr + verify.stderr
        reports = []
        for proc in (connect, verify):
            report = json.loads(proc.stdout)
            assert report["ok"] and report.pop("timing_ms") >= 0
            reports.append(report)
        runs.append((art.read_bytes(), reports))
    assert runs[0] == runs[1]
