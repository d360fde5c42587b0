"""End-to-end command-line behavior: gen, check, connect, verify.

Everything runs in-process through cli.main so exit codes and stdout are
asserted directly; artifacts land in tmp_path.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from conftest import GRAM_3, constant_metric_plain
from tamecalc.builders import matrix_derivations_chevalley
from tamecalc.cli import main
from tamecalc.connection import grassmann
from tamecalc.specfile import (
    connection_to_json,
    dumps_canonical,
    input_digest,
    load_spec,
    matrix_to_json,
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
    from tamecalc.calculus import build_symmetry
    from tamecalc.specfile import connection_from_json
    from tamecalc.linalg import vec_is_zero

    cert = build_symmetry(spec.calculus).certificate
    nabla, _ = connection_from_json(obj, spec.calculus.tensor_square.dim,
                                    spec.calculus.one_forms.dim)
    for z in cert.central_basis:
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


def test_connect_with_frame_override(workdir, capsys, tmp_path):
    # a frame of algebra-translates of the central generators still splits,
    # and the unique connection is unchanged
    spec = load_spec(workdir / "fuzzy.json")
    from tamecalc.calculus import build_symmetry
    from tamecalc.specfile import vector_to_json

    cert = build_symmetry(spec.calculus).certificate
    e = spec.calculus.one_forms
    gens = list(cert.central_basis)
    gens.append(e.right[1].apply(gens[0]))  # redundant translate
    override = tmp_path / "frame.json"
    override.write_text(json.dumps({"frame": [vector_to_json(v) for v in gens]}))
    art1 = tmp_path / "f1.json"
    art2 = tmp_path / "f2.json"
    assert main(["connect", str(workdir / "fuzzy.json"), "--out", str(art1)]) == 0
    assert main(["connect", str(workdir / "fuzzy.json"), "--frame", str(override),
                 "--out", str(art2)]) == 0
    capsys.readouterr()
    a1 = json.loads(art1.read_text())
    a2 = json.loads(art2.read_text())
    assert a1["nabla"] == a2["nabla"]


@pytest.mark.parametrize("command", ["check", "connect"])
def test_one_forms_are_tested_for_centeredness_once(workdir, capsys, tmp_path, monkeypatch,
                                                    command):
    # the tameness certificate, E* and the connection layer share one
    # decision and one set of central generators
    from tamecalc import bimodule

    calls = []
    real = bimodule.is_centered

    def counted(e):
        calls.append(e)
        return real(e)

    monkeypatch.setattr(bimodule, "is_centered", counted)
    argv = [command, str(workdir / "fuzzy.json")]
    if command == "connect":
        argv += ["--out", str(tmp_path / "conn.json")]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("command, built", [("check", 2), ("connect", 3), ("verify", 3)])
def test_each_central_family_is_eliminated_once(workdir, capsys, tmp_path, monkeypatch,
                                                command, built):
    # E, E (x)_A E and E* each get one CentralGenerators (E* only once
    # there are vector fields), and no map is solved from scratch
    import sys

    from tamecalc import bimodule, linalg

    artifact = tmp_path / "conn.json"
    if command == "verify":
        assert main(["connect", str(workdir / "fuzzy.json"), "--out", str(artifact)]) == 0
        capsys.readouterr()
    families, solves = [], []
    real_init = bimodule.CentralGenerators.__init__
    real_solve = linalg.solve_through

    def counted_init(self, source, zs):
        families.append(source)
        real_init(self, source, zs)

    def counted_solve(*args, **kwargs):
        solves.append(args)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(bimodule.CentralGenerators, "__init__", counted_init)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tamecalc" and getattr(module, "solve_through", None) is real_solve:
            monkeypatch.setattr(module, "solve_through", counted_solve)
    argv = [command, str(workdir / "fuzzy.json")]
    if command == "connect":
        argv += ["--out", str(artifact)]
    if command == "verify":
        argv += [str(artifact)]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(families) == built
    assert solves == []


def test_check_reports_central_tensors_that_do_not_span(workdir, capsys, tmp_path):
    # a one-form action that breaks associativity leaves E centered, but the
    # central tensors no longer span its tensor square: the report still
    # names the failing axiom
    spec = json.loads((workdir / "torus.json").read_text())
    spec["one_forms"]["left"][2][0][1] = "1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    code, out = run(capsys, ["check", str(bad), "--json"])
    assert code == 1
    report = json.loads(out)
    validate_report_schema(report)
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["one_forms_bimodule_axioms"]["witness"] == \
        "bimodule: (ab)e != a(be) at basis pair (1, 5)"
    assert not checks["tame_certificate"]["ok"]
    assert checks["tame_certificate"]["witness"].startswith("CentralTensorsDoNotSpan: ")
    assert report["summary"] == {"calculus_valid": False, "tame": False, "metric_valid": False}


def test_connect_with_non_spanning_frame_fails(workdir, capsys, tmp_path):
    spec = load_spec(workdir / "fuzzy.json")
    from tamecalc.calculus import build_symmetry
    from tamecalc.specfile import vector_to_json

    cert = build_symmetry(spec.calculus).certificate
    override = tmp_path / "bad-frame.json"
    override.write_text(json.dumps(
        {"frame": [vector_to_json(cert.central_basis[0])]}))
    code = main(["connect", str(workdir / "fuzzy.json"), "--frame", str(override),
                 "--out", str(tmp_path / "never.json")])
    capsys.readouterr()
    assert code == 1


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

    cert = build_symmetry(spec.calculus).certificate
    conn = grassmann(spec.calculus, cert)
    art = tmp_path / "grassmann.json"
    art.write_text(dumps_canonical(connection_to_json(
        conn.nabla, [], {}, input_digest(workdir / "fuzzy.json"))))
    code, out = run(capsys, ["verify", "--json", str(workdir / "fuzzy.json"), str(art)])
    assert code == 1
    report = json.loads(out)
    validate_report_schema(report)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["leibniz"]["ok"]
    assert not by_name["torsion_zero_form"]["ok"]
    assert not by_name["torsion_zero_covariant"]["ok"]
    assert by_name["torsion_zero_covariant"]["witness"]


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
