"""Byte-identical outputs: a manifest of what every command writes.

Each case runs `tamecalc.cli.main` in process, in a fresh directory and on
relative paths, on inputs built with `tamecalc.builders` and
`perfbench/inputs.write_input`.  It records the sha256 of stdout (with the
`timing_ms` value masked), of stderr and of every file the command wrote,
and the exit code.  The manifest `digests.json` next to this file pins them:

    python tests/digests.py --write    # regenerate digests.json
    python tests/digests.py --check    # print each moved or missing key

`--check` also names each key the manifest lacks, and exits 1 on any
difference.  The tier-1 tests check the cases marked small (everything but
fuzzy-sphere-3 and abelian-torus-4) against the same manifest.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import sys
import tempfile
from fractions import Fraction
from functools import cache
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "digests.json"
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from tamecalc import cli, specfile  # noqa: E402

TIMING = re.compile(r'"timing_ms": [-+0-9.eE]+')
MD2, AT2 = "matrix-derivations-2", "abelian-torus-2"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


# -- inputs, as file texts ---------------------------------------------------------

@cache
def preset_text(preset: str, n: int) -> str:
    from tamecalc.builders import PRESETS

    return specfile.dumps_canonical(specfile.spec_to_json(PRESETS[preset](n)))


def _perfbench_inputs():
    name = "perfbench_inputs"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "inputs.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module   # its dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules[name]


@cache
def bench_texts(calculus: str, base: str) -> tuple[str, str]:
    """The spec text and the `base` metric text of one benchmark input."""
    inputs = _perfbench_inputs()
    with tempfile.TemporaryDirectory() as d:
        made = inputs.write_input(calculus, {base: inputs.BASES[base]}, Path(d))
        return made.spec_path.read_text(), made.metrics[base].path.read_text()


def _edited(text: str, change, *path) -> str:
    """The spec text with the value at path replaced by change(value)."""
    root = obj = json.loads(text)
    *outer, last = path
    for key in outer:
        obj = obj[key]
    obj[last] = change(obj[last])
    return specfile.dumps_canonical(root)


def _bumped(text: str, *path) -> str:
    """The spec text with the scalar at path raised by one."""
    return _edited(text, lambda x: str(Fraction(x) + 1), *path)


# -- cases ------------------------------------------------------------------------------
#
# A case writes its inputs into the current directory and returns the argv
# of the one recorded run.

def _spec(name: str, text: str) -> str:
    Path(name).write_text(text)
    return name


def _generated(preset: str) -> str:
    kind, n = preset.rsplit("-", 1)
    return _spec(f"{preset}.json", preset_text(kind, int(n)))


def _bench(calculus: str, base: str) -> list[str]:
    spec, metric = bench_texts(calculus, base)
    _spec(f"{calculus}.json", spec)
    _spec(f"{calculus}.{base}.metric.json", metric)
    return [f"{calculus}.json", "--metric", f"{calculus}.{base}.metric.json"]


def _connected(spec_args: list[str]) -> str:
    """Connect quietly and return the artifact path, for a verify case."""
    if _quiet_main(["connect", *spec_args, "--out", "input.connection.json"]) != 0:
        raise RuntimeError(f"connect {spec_args} failed while preparing a case")
    return "input.connection.json"


def _command_case(command: str, as_json: bool, inputs):
    def case() -> list[str]:
        spec_args = inputs()
        flag = ["--json"] if as_json else []
        if command == "connect":
            return ["connect", *spec_args, *flag, "--out", "out.connection.json"]
        if command == "verify":
            spec, *rest = spec_args
            return ["verify", spec, _connected(spec_args), *rest, *flag]
        return [command, *spec_args, *flag]
    return case


def _bumped_case(command: str, path, preset: str = "matrix-derivations"):
    def case() -> list[str]:
        spec = _spec("bumped.json", _bumped(preset_text(preset, 2), *path))
        out = ["--out", "out.connection.json"] if command == "connect" else []
        return [command, spec, *out]
    return case


def _bumped_nabla() -> list[str]:
    spec = _generated(MD2)
    art = _connected([spec])
    Path(art).write_text(_bumped(Path(art).read_text(), "nabla", 0, 1))
    return ["verify", spec, art]


def _shifted_nabla() -> list[str]:
    # nabla plus the map e -> pi(e (x) z_0), right-linear because z_0 is
    # central: Leibniz still holds, compatibility no longer does
    from tamecalc.linalg import ONE, Matrix

    spec = _generated(MD2)
    art = _connected([spec])
    calc = specfile.load_spec(spec).calculus
    qt, ne = calc.tensor_square, calc.one_forms.dim
    z0 = calc.one_forms.central_generators.zs[0]
    shift = Matrix.from_sparse_cols([qt.pure_sparse({j: ONE}, z0) for j in range(ne)], qt.dim)
    obj = json.loads(Path(art).read_text())
    nabla = specfile.matrix_from_json(obj["nabla"], qt.dim, ne, "nabla")
    obj["nabla"] = specfile.matrix_to_json(nabla + shift)
    Path(art).write_text(specfile.dumps_canonical(obj))
    return ["verify", spec, art]


def _malformed_artifact(artifact: dict):
    # the spec fails a check, the artifact is malformed: bad input wins
    def case() -> list[str]:
        obj = json.loads(preset_text("matrix-derivations", 2))
        obj["wedge"][0][1] = "7"
        spec = _spec("broken-wedge.json", specfile.dumps_canonical(obj))
        Path("artifact.json").write_text(json.dumps(artifact))
        return ["verify", spec, "artifact.json"]
    return case


def _zeroed(text: str, key: str) -> dict:
    """The spec of text with every entry of its block key set to zero."""
    obj = json.loads(text)
    obj[key] = [["0"] * len(row) for row in obj[key]]
    return obj


def _zero_metric() -> list[str]:
    # V_g is zero, so its kernel is everything: VgNotInvertible
    metric = _zeroed(preset_text("matrix-derivations", 2), "metric")["metric"]
    _spec("zero.metric.json", specfile.dumps_canonical({"metric": metric}))
    return [_generated(MD2), "--metric", "zero.metric.json"]


def _zero_wedge() -> list[str]:
    # the wedge reaches none of the two-forms, and d(da.b) != -da^db
    text = specfile.dumps_canonical(_zeroed(preset_text("matrix-derivations", 2), "wedge"))
    return [_spec("zero-wedge.json", text)]


def _doubled_two_forms() -> list[str]:
    # two copies of the two-forms, the wedge and d1 into the first: the
    # wedge misses the second copy
    obj = json.loads(preset_text("matrix-derivations", 2))
    w2 = obj["two_forms"]
    n = w2["dim"]

    def doubled(m: list) -> list:
        return [row + ["0"] * n for row in m] + [["0"] * n + row for row in m]

    obj["two_forms"] = {"dim": 2 * n, "left": [doubled(m) for m in w2["left"]],
                        "right": [doubled(m) for m in w2["right"]]}
    for key in ("d1", "wedge"):
        obj[key] += [["0"] * len(obj[key][0]) for _ in range(n)]
    return [_spec("doubled-two-forms.json", specfile.dumps_canonical(obj))]


def _twisted_line() -> list[str]:
    # one-forms over K[x]/(x^2 - 1) with x acting by -1 on the left and
    # d = 0: the exact forms span nothing
    from tamecalc.algebra import Algebra
    from tamecalc.bimodule import Bimodule
    from tamecalc.calculus import Calculus
    from tamecalc.linalg import ONE, ZERO, Matrix

    e0, e1 = (ONE, ZERO), (ZERO, ONE)
    alg = Algebra(2, ("1", "x"), e0, [[e0, e1], [e1, e0]])
    reg = Bimodule.regular(alg)
    twisted = Bimodule(alg, 2, [reg.left[0], -reg.left[1]], list(reg.right))
    calc = Calculus(alg, twisted, Bimodule.zero(alg),
                    Matrix.zeros(2, 2), Matrix.zeros(0, 2), Matrix.zeros(0, 4))
    specfile.save_spec(specfile.SpecData(name="twisted-line", calculus=calc,
                                         metric_plain=Matrix.zeros(2, 4)), "twisted-line.json")
    return ["twisted-line.json"]


def _conjugated_right() -> list[str]:
    # P R_a P^-1 with P = I + E_01 is still a right action, but no longer
    # commutes with the left one: (a e) b != a (e b)
    from tamecalc.bimodule import Bimodule
    from tamecalc.builders import preset_matrix_derivations
    from tamecalc.calculus import Calculus
    from tamecalc.linalg import ONE, Matrix

    preset = preset_matrix_derivations(2)
    calc, e = preset.calculus, preset.calculus.one_forms
    p = Matrix.from_sparse_rows([{0: ONE, 1: ONE}, *({j: ONE} for j in range(1, e.dim))], e.dim)
    p_inv = p.inverse()
    conjugated = Bimodule(calc.algebra, e.dim, e.left, [p @ m @ p_inv for m in e.right])
    broken = Calculus(calc.algebra, conjugated, calc.two_forms, calc.d0, calc.d1,
                      calc.wedge_plain)
    specfile.save_spec(specfile.SpecData(preset.name, broken, preset.metric_plain),
                       "conjugated-right.json")
    return ["conjugated-right.json"]


def _two_point_graph() -> list[str]:
    # a valid calculus whose one-forms have no nonzero central element:
    # NotCentered
    from calculi import two_point_graph
    from tamecalc.linalg import Matrix

    specfile.save_spec(specfile.SpecData("two-point-graph", two_point_graph(), Matrix.zeros(2, 4)),
                       "two-point-graph.json")
    return ["two-point-graph.json"]


def _no_two_forms() -> list[str]:
    # abelian-torus-2 with Omega^2 = 0, a valid calculus: ker W is the
    # whole tensor square, the symmetrizer's range is not (PsymRangeMismatch)
    from calculi import without_two_forms
    from tamecalc.builders import preset_abelian_torus

    preset = preset_abelian_torus(2)
    calc = preset.calculus
    flat = without_two_forms(calc.algebra, calc.one_forms, calc.d0)
    specfile.save_spec(specfile.SpecData(preset.name, flat, preset.metric_plain),
                       "no-two-forms.json")
    return ["no-two-forms.json"]


def _bumped_spec(*path):
    def make() -> list[str]:
        return [_spec("bumped.json", _bumped(preset_text("matrix-derivations", 2), *path))]
    return make


# the axioms, each failing at its own line: the algebra's unit law and
# associativity, the unit acting as the identity on either side, the two
# actions commuting, the wedge's reach and the span of the exact forms
AXIOM_FAILURES = {f"{MD2}.unit": _bumped_spec("algebra", "unit", 0),
                  f"{MD2}.mul": _bumped_spec("algebra", "mul", 1, 2, 3),
                  f"{MD2}.one-form-left-unit": _bumped_spec("one_forms", "left", 0, 0, 1),
                  f"{MD2}.one-form-right-unit": _bumped_spec("one_forms", "right", 0, 0, 1),
                  f"{MD2}.conjugated-right": _conjugated_right,
                  f"{MD2}.zero-wedge": _zero_wedge,
                  f"{MD2}.doubled-two-forms": _doubled_two_forms,
                  "twisted-line": _twisted_line}


def _file(name: str, data: bytes) -> str:
    Path(name).write_bytes(data)
    return name


def _md2_with(change, *path) -> str:
    return _spec("bad.json", _edited(preset_text("matrix-derivations", 2), change, *path))


# each class of bad input README lists, and the command line's own exits
BAD_INPUTS = {
    "not-utf8": lambda: ["check", _file("bad.json", b"\xff\xfe{}")],
    "not-json": lambda: ["check", _spec("bad.json", "{not json")],
    "too-deep": lambda: ["check", _file("bad.json", b"[" * 100000 + b"]" * 100000)],
    "exponent": lambda: ["check", _md2_with(lambda _: "1e5", "d0", 1, 0)],
    "boolean-dim": lambda: ["check", _md2_with(lambda _: True, "one_forms", "dim")],
    "missing-file": lambda: ["check", "missing.json"],
    "bad-metric": lambda: ["check", _generated(MD2), "--metric",
                           _spec("shape.metric.json", '[["1"]]')],
    "unwritable-out": lambda: ["connect", _generated(MD2), "--out", "no/dir/x.json"],
    "gen-n": lambda: ["gen", "abelian-torus", "--n", "3", "--out", "x.json"],
    "command-line": lambda: ["gen", "klein-bottle"],
}
USAGE = {"version": lambda: ["--version"], "help": lambda: ["--help"]}


# the refusal classes no bumped preset reaches, each on a valid calculus:
# the two tameness refusals a valid calculus can reach, and V_g singular
REFUSALS = {f"{MD2}.zero-metric": _zero_metric,
            "two-point-graph": _two_point_graph,
            f"{AT2}.no-two-forms": _no_two_forms}


BUMPS = {
    "wedge": ("wedge", 0, 1),
    "d0": ("d0", 1, 0),
    "d1": ("d1", 0, 0),
    "metric": ("metric", 0, 0),
    "one-form-left": ("one_forms", "left", 1, 0, 1),
    "one-form-right": ("one_forms", "right", 1, 0, 1),
    "two-form-left": ("two_forms", "left", 1, 0, 1),
}


def cases() -> dict[str, tuple[bool, object]]:
    """Case name -> (small, the case)."""
    out: dict[str, tuple[bool, object]] = {}
    for preset, n in (("matrix-derivations", 2), ("abelian-torus", 2), ("abelian-torus", 4)):
        out[f"gen/{preset}-{n}"] = (n == 2, lambda p=preset, n=n: [
            "gen", p, "--n", str(n), "--out", f"{p}-{n}.json"])
    inputs = {MD2: (True, lambda: [_generated(MD2)]),
              AT2: (True, lambda: [_generated(AT2)]),
              f"{MD2}.A3": (True, lambda: _bench(MD2, "A3")),
              f"{AT2}.A2": (True, lambda: _bench(AT2, "A2")),
              f"{MD2}.B3": (True, lambda: _bench(MD2, "B3")),
              f"{AT2}.B2": (True, lambda: _bench(AT2, "B2")),
              "fuzzy-sphere-3.A3": (False, lambda: _bench("fuzzy-sphere-3", "A3"))}
    for label, (small, make) in inputs.items():
        for command in ("check", "connect", "verify"):
            for as_json in (False, True):
                name = f"{command}{'-json' if as_json else ''}/{label}"
                out[name] = (small, _command_case(command, as_json, make))
    out["check-json/abelian-torus-4"] = (False, lambda: [
        "check", _spec("abelian-torus-4.json", preset_text("abelian-torus", 4)), "--json"])
    for command in ("check", "connect"):
        out[f"refuse-{command}/fuzzy-sphere-3.asym3"] = (
            False, _command_case(command, False, lambda: _bench("fuzzy-sphere-3", "asym3")))
        out[f"refuse-{command}/{MD2}.asym3"] = (
            True, _command_case(command, False, lambda: _bench(MD2, "asym3")))
        for label, path in BUMPS.items():
            out[f"refuse-{command}/{MD2}.{label}"] = (True, _bumped_case(command, path))
        # E stays centered, and fails its bimodule axioms
        out[f"refuse-{command}/{AT2}.one-form-left"] = (True, _bumped_case(
            command, ("one_forms", "left", 2, 0, 1), "abelian-torus"))
    for label, make in {**REFUSALS, **AXIOM_FAILURES}.items():
        for as_json in (False, True):
            out[f"refuse-check{'-json' if as_json else ''}/{label}"] = (
                True, _command_case("check", as_json, make))
    out[f"refuse-verify/{MD2}.nabla"] = (True, _bumped_nabla)
    out[f"refuse-verify/{MD2}.nabla-plus-central"] = (True, _shifted_nabla)
    for label, make in BAD_INPUTS.items():
        out[f"bad-input/{label}"] = (True, make)
    for label, make in USAGE.items():
        out[f"usage/{label}"] = (True, make)
    out[f"verify/{MD2}.broken-wedge.empty-artifact"] = (True, _malformed_artifact({}))
    out[f"verify/{MD2}.broken-wedge.one-entry-artifact"] = (
        True, _malformed_artifact({"nabla": [["1"]]}))
    return out


# -- running ------------------------------------------------------------------------------

def run_case(name: str, case) -> dict[str, object]:
    """The digests of one case, by key: exit code, stdout, stderr, files.

    argparse ends --help and --version with SystemExit, whose code is the
    exit code, and wraps help text to the terminal, pinned here at 80."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as d, mock.patch.dict(os.environ, COLUMNS="80"):
        os.chdir(d)
        try:
            argv = case()
            before = {p.name: p.read_bytes() for p in Path(".").iterdir()}
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            written = {p.name: p.read_bytes() for p in Path(".").iterdir()
                       if before.get(p.name) != p.read_bytes()}
        finally:
            os.chdir(cwd)
    got: dict[str, object] = {
        f"{name}/exit": code,
        f"{name}/stdout": _sha(TIMING.sub('"timing_ms": 0', out.getvalue()).encode()),
        f"{name}/stderr": _sha(err.getvalue().encode()),
    }
    for fname, data in sorted(written.items()):
        got[f"{name}/file/{fname}"] = _sha(data)
    return got


def compute(small_only: bool = False) -> dict[str, object]:
    got: dict[str, object] = {}
    for name, (small, case) in cases().items():
        if small or not small_only:
            got.update(run_case(name, case))
    return got


def case_of(key: str) -> str:
    """The case name of a manifest key."""
    if "/file/" in key:
        return key.split("/file/")[0]
    return key.rsplit("/", 1)[0]


def differences(got: dict[str, object], manifest: dict[str, object],
                small_only: bool = False) -> list[str]:
    """Each key of the manifest that moved or is missing, and each new key."""
    if small_only:
        names = {name for name, (small, _) in cases().items() if small}
        manifest = {k: v for k, v in manifest.items() if case_of(k) in names}
    lines = [f"moved: {k}: {manifest[k]} -> {got[k]}" for k in sorted(manifest)
             if k in got and got[k] != manifest[k]]
    lines += [f"missing: {k}" for k in sorted(manifest) if k not in got]
    lines += [f"new: {k}" for k in sorted(got) if k not in manifest]
    return lines


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        MANIFEST.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
        return 0
    if argv == ["--check"]:
        lines = differences(compute(), json.loads(MANIFEST.read_text()))
        print("\n".join(lines) if lines else "all digests equal")
        return 1 if lines else 0
    print(__doc__.split("\n\n")[2], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
