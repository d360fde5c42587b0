"""Command-line surface: gen, check, connect, verify.

Exit codes: 0 success, 1 mathematical failure, 2 unreadable or malformed
input, a bad command line included.  Every input file is read, and connect's --out checked, before the
first check runs, so bad input exits 2 even where a check would fail.  A
linear-algebra failure that escapes a command (a singular or inconsistent
system on an accepted spec) exits 1 with one line on stderr.
Reports go to stdout, human-readable by default, machine-readable with
--json; the connect artifact written to disk contains no timing, so reruns
on the same input are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import __version__
from .calculus import build_symmetry, validate_calculus
from .connection import Geometry, certify, levi_civita_direct, levi_civita_koszul
from .errors import ContractViolationError, EngineError, Refusal, SpecFileError
from .linalg import LinAlgError, Matrix
from .metric import validate_metric
from .specfile import (
    SpecData,
    check_writable,
    connection_from_json,
    connection_to_json,
    dumps_canonical,
    load_json,
    load_metric_override,
    load_spec,
    save_spec,
    write_file,
)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2
PRESET_NAMES = ("abelian-torus", "matrix-derivations")   # builders.PRESETS, imported by gen only
# what tameness establishes, each true whenever build_symmetry returns sigma
TAMENESS_CHECKS = ("tameness_centered", "tameness_psym_projects_onto_ker_wedge",
                   "tameness_sigma_bilinear", "tameness_sigma_involution",
                   "tameness_sigma_well_defined")


class ReportBuilder:
    def __init__(self, command: str, path: str | None, seed: int | None):
        self.command = command
        self.path = path
        self.seed = seed
        self.digest: str | None = None   # the spec's, set by run_structure_checks
        self.checks: list[dict] = []
        self.summary: dict = {}
        self.t0 = time.monotonic()

    def add(self, name: str, ok: bool, witness=None) -> None:
        self.checks.append({
            "name": name,
            "ok": bool(ok),
            "witness": None if witness is None else str(witness),
        })

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def emit(self, exit_code: int, as_json: bool) -> int:
        """Write the report to stdout, as JSON or as text, and return its
        exit code."""
        if as_json:
            sys.stdout.write(dumps_canonical({
                "tool": "tamecalc",
                "version": __version__,
                "command": self.command,
                "input": self.path,
                "input_digest": self.digest,
                "seed": self.seed,
                "checks": self.checks,
                "summary": self.summary,
                "ok": self.ok,
                "exit_code": exit_code,
                "timing_ms": round((time.monotonic() - self.t0) * 1000.0, 3),
            }))
            return exit_code
        for c in self.checks:
            mark = "ok  " if c["ok"] else "FAIL"
            line = f"  [{mark}] {c['name']}"
            if not c["ok"] and c.get("witness"):
                line += f": {c['witness']}"
            print(line)
        for key, value in self.summary.items():
            print(f"{key}: {str(value).lower() if isinstance(value, bool) else value}")
        return exit_code


# ---------------------------------------------------------------------------
# Shared pipeline pieces
# ---------------------------------------------------------------------------

def read_metric(spec: SpecData, metric_path: str | None) -> Matrix:
    """The metric to check: the spec's own, or the --metric file's."""
    if metric_path is None:
        return spec.metric_plain
    calc = spec.calculus
    return load_metric_override(metric_path, calc.one_forms.dim, calc.algebra.dim)


def refusal_text(refusal: Refusal) -> str:
    """A refused check's report witness: condition and detail, then the
    refusal's own witness, a sparse vector written by index (index: value)
    or the label it is."""
    text = f"{refusal.condition}: {refusal.detail}"
    w = refusal.witness
    if w is None:
        return text
    if isinstance(w, dict):
        w = "{" + ", ".join(f"{j}: {v}" for j, v in sorted(w.items())) + "}"
    return f"{text}; witness {w}"


def run_structure_checks(spec: SpecData, rb: ReportBuilder, g_in: Matrix):
    """Algebra, calculus, tameness and validation of the metric g_in on plain
    tensor coordinates; returns what passed.  Each stage runs only when the
    ones before it passed.  Every input file is read before it runs."""
    rb.digest = spec.digest
    calc = spec.calculus
    failure = calc.algebra.validate()
    rb.add("algebra_axioms", failure is None, failure)
    if failure is None:
        for item in validate_calculus(calc):
            rb.add(item.name, item.ok, item.witness)
    # tameness and the metric are defined only on a valid calculus
    if not calc.validated:
        rb.summary.update(calculus_valid=False, tame=False, metric_valid=False)
        return None, None
    rb.summary["calculus_valid"] = True

    sigma = build_symmetry(calc)
    rb.summary["tame"] = not isinstance(sigma, Refusal)
    if isinstance(sigma, Refusal):
        rb.add("tame_certificate", False, refusal_text(sigma))
        rb.summary["metric_valid"] = False
        return None, None
    rb.add("tame_certificate", True)
    for name in TAMENESS_CHECKS:
        rb.add(name, True)

    metric = validate_metric(calc, sigma, g_in)
    rb.summary["metric_valid"] = not isinstance(metric, Refusal)
    if isinstance(metric, Refusal):
        rb.add("metric_valid", False, refusal_text(metric))
        return sigma, None
    rb.add("metric_valid", True)
    return sigma, metric


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    from .builders import PRESETS

    maker = PRESETS[args.preset]
    try:
        spec = maker(args.n)
    except ContractViolationError as exc:
        # a size the preset does not ship is bad input, not a failed check
        raise SpecFileError(f"{args.preset} --n {args.n}: {exc}")
    out = args.out or f"{spec.name}.json"
    save_spec(spec, out)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_check(args) -> int:
    rb = ReportBuilder("check", args.spec, args.seed)
    spec = load_spec(args.spec)
    _, metric = run_structure_checks(spec, rb, read_metric(spec, args.metric))
    return rb.emit(EXIT_OK if (rb.ok and metric is not None) else EXIT_MATH, args.json)


def cmd_connect(args) -> int:
    rb = ReportBuilder("connect", args.spec, args.seed)
    spec = load_spec(args.spec)
    g_in = read_metric(spec, args.metric)
    out = args.out or str(Path(args.spec).with_suffix("")) + ".connection.json"
    check_writable(out)
    sigma, metric = run_structure_checks(spec, rb, g_in)
    if metric is None or not rb.ok:
        return rb.emit(EXIT_MATH, args.json)

    geo = Geometry(spec.calculus, sigma, metric)
    try:
        nabla, table = levi_civita_koszul(geo)
        direct = levi_civita_direct(geo)
    except EngineError as exc:
        rb.add(f"solver_{exc.code}", False, exc)
        return rb.emit(EXIT_MATH, args.json)

    # the Koszul route raised unless its connection certified (Leibniz,
    # torsion, compatibility), and the direct route unless its kernel is 0
    checks = {
        "leibniz": True,
        "route_equality": nabla == direct,
        "torsion_zero": True,
        "compatibility": True,
        "table_in_fields": all(geo.fields.contains(entry) for row in table for entry in row),
        "uniqueness_kernel_zero": True,
    }
    for name, ok in sorted(checks.items()):
        rb.add(name, ok)
    rb.summary["levi_civita"] = all(checks.values())

    artifact = connection_to_json(nabla, table, checks, spec.digest)
    write_file(out, dumps_canonical(artifact))
    rb.summary["artifact"] = out
    return rb.emit(EXIT_OK if all(checks.values()) else EXIT_MATH, args.json)


def cmd_verify(args) -> int:
    rb = ReportBuilder("verify", args.spec, args.seed)
    spec = load_spec(args.spec)
    g_in = read_metric(spec, args.metric)
    obj, _ = load_json(args.connection)
    sigma, metric = run_structure_checks(spec, rb, g_in)
    # the artifact's shape is checked whether or not the checks passed
    calc = spec.calculus
    nabla, table = connection_from_json(obj, calc.tensor_square.dim, calc.one_forms.dim)
    if metric is None or not rb.ok:
        return rb.emit(EXIT_MATH, args.json)

    verdicts = certify(Geometry(calc, sigma, metric), nabla)

    rb.add("leibniz", verdicts.leibniz is None, verdicts.leibniz)
    rb.summary["valid_connection"] = verdicts.leibniz is None
    if verdicts.leibniz is not None:
        return rb.emit(EXIT_MATH, args.json)

    tw, cw = verdicts.torsion_witnesses, verdicts.compat_witnesses
    rb.add("torsion_zero_form", not tw)
    rb.add("torsion_zero_covariant", not tw, f"failing field pairs {list(tw)[:3]}" if tw else None)
    rb.add("compatibility_covariant", not cw,
           f"failing field triples {list(cw)[:3]}" if cw else None)
    if table is not None:
        rb.add("table_matches_connection", tuple(map(tuple, table)) == verdicts.table)
    if "input_digest" in obj:
        rb.add("input_digest_matches", obj["input_digest"] == spec.digest)
    rb.summary["torsionless"] = not tw
    rb.summary["compatible"] = not cw
    return rb.emit(EXIT_OK if rb.ok else EXIT_MATH, args.json)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A bad command line is bad input: one `input error:` line, exit 2."""

    def error(self, message):
        raise SpecFileError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="tamecalc",
        description="Exact tameness checks and Levi-Civita connections for "
                    "finite-dimensional differential calculi over Q(i).")
    ap.add_argument("--version", action="version", version=f"tamecalc {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write a preset spec file")
    g.add_argument("preset", choices=PRESET_NAMES)
    g.add_argument("--n", type=int, default=2, help="preset size parameter")
    g.add_argument("--out", help="output path (default <preset>-<n>.json)")
    g.set_defaults(fn=cmd_gen)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.add_argument("--metric", help="metric override file")
        p.add_argument("--seed", type=int, default=None, help="recorded in the report")

    c = sub.add_parser("check", help="validate calculus axioms, tameness and the metric")
    c.add_argument("spec")
    common(c)
    c.set_defaults(fn=cmd_check)

    k = sub.add_parser("connect", help="compute the Levi-Civita connection both ways")
    k.add_argument("spec")
    common(k)
    k.add_argument("--out", help="artifact path (default <spec>.connection.json)")
    k.set_defaults(fn=cmd_connect)

    v = sub.add_parser("verify", help="check a connection artifact against a spec")
    v.add_argument("spec")
    v.add_argument("connection")
    common(v)
    v.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SpecFileError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except EngineError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return EXIT_MATH
    except LinAlgError as exc:
        print(f"LinAlgError: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
