"""Command-line surface: gen, check, connect, verify.

Exit codes: 0 success, 1 mathematical failure, 2 unreadable or malformed
input.  Every input file is read, and connect's --out checked, before the
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
from .builders import PRESETS
from .calculus import build_symmetry, validate_calculus
from .connection import (
    Connection,
    Geometry,
    certify,
    levi_civita_direct,
    levi_civita_koszul,
)
from .errors import ContractViolationError, EngineError, SpecFileError
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


class ReportBuilder:
    def __init__(self, command: str, path: str | None, seed: int | None):
        self.command = command
        self.path = path
        self.seed = seed
        self.digest: str | None = None   # the spec's, set by run_structure_checks
        self.checks: list[dict] = []
        self.summary: dict = {}
        self.t0 = time.monotonic()

    def add(self, name: str, ok: bool, witness=None) -> bool:
        self.checks.append({
            "name": name,
            "ok": bool(ok),
            "witness": None if witness is None else str(witness),
        })
        return ok

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def finish(self, exit_code: int) -> dict:
        report = {
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
        }
        return report


def emit(report: dict, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(dumps_canonical(report))
        return
    for c in report["checks"]:
        mark = "ok  " if c["ok"] else "FAIL"
        line = f"  [{mark}] {c['name']}"
        if not c["ok"] and c.get("witness"):
            line += f": {c['witness']}"
        print(line)
    for key, value in report["summary"].items():
        print(f"{key}: {str(value).lower() if isinstance(value, bool) else value}")


# ---------------------------------------------------------------------------
# Shared pipeline pieces
# ---------------------------------------------------------------------------

def read_metric(spec: SpecData, metric_path: str | None) -> Matrix:
    """The metric to check: the spec's own, or the --metric file's."""
    if metric_path is None:
        return spec.metric_plain
    calc = spec.calculus
    return load_metric_override(metric_path, calc.one_forms.dim, calc.algebra.dim)


def run_structure_checks(spec: SpecData, rb: ReportBuilder, g_in: Matrix):
    """Algebra, calculus, tameness and validation of the metric g_in on plain
    tensor coordinates; returns what passed.  Every input file is read
    before it runs."""
    rb.digest = spec.digest
    calc = spec.calculus
    try:
        calc.algebra.validate()
        rb.add("algebra_axioms", True)
    except ContractViolationError as exc:
        rb.add("algebra_axioms", False, exc)
        rb.summary.update(calculus_valid=False, tame=False, metric_valid=False)
        return None, None

    calc_report = validate_calculus(calc)
    for item in calc_report:
        rb.add(item.name, item.ok, item.witness)
    rb.summary["calculus_valid"] = calc_report.ok

    outcome = build_symmetry(calc)
    if outcome.ok:
        rb.add("tame_certificate", True)
        for flag, value in sorted(outcome.certificate.flags.items()):
            rb.add(f"tameness_{flag}", value)
    else:
        rb.add("tame_certificate", False,
               f"{outcome.failure.condition}: {outcome.failure.detail}")
    rb.summary["tame"] = outcome.ok
    if not outcome.ok:
        rb.summary["metric_valid"] = False
        return None, None
    cert = outcome.certificate

    m_out = validate_metric(calc, cert, g_in)
    if m_out.ok:
        rb.add("metric_valid", True)
    else:
        rb.add("metric_valid", False, f"{m_out.failure.reason}: {m_out.failure.detail}")
    rb.summary["metric_valid"] = m_out.ok
    return (cert, m_out.metric) if m_out.ok else (cert, None)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    maker = PRESETS[args.preset]
    try:
        preset = maker(args.n)
    except ContractViolationError as exc:
        # a size the preset does not ship is bad input, not a failed check
        raise SpecFileError(f"{args.preset} --n {args.n}: {exc}")
    spec = SpecData(name=preset.name, calculus=preset.calculus,
                    metric_plain=preset.metric_plain)
    out = args.out or f"{preset.name}.json"
    save_spec(spec, out)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_check(args) -> int:
    rb = ReportBuilder("check", args.spec, args.seed)
    spec = load_spec(args.spec)
    cert, metric = run_structure_checks(spec, rb, read_metric(spec, args.metric))
    code = EXIT_OK if (rb.ok and metric is not None) else EXIT_MATH
    emit(rb.finish(code), args.json)
    return code


def cmd_connect(args) -> int:
    rb = ReportBuilder("connect", args.spec, args.seed)
    spec = load_spec(args.spec)
    g_in = read_metric(spec, args.metric)
    out = args.out or str(Path(args.spec).with_suffix("")) + ".connection.json"
    check_writable(out)
    cert, metric = run_structure_checks(spec, rb, g_in)
    if cert is None or metric is None or not rb.ok:
        emit(rb.finish(EXIT_MATH), args.json)
        return EXIT_MATH

    geo = Geometry(spec.calculus, cert, metric)
    try:
        koszul = levi_civita_koszul(geo)
        direct = levi_civita_direct(geo)
    except EngineError as exc:
        rb.add(f"solver_{exc.code}", False, exc)
        emit(rb.finish(EXIT_MATH), args.json)
        return EXIT_MATH

    conn = koszul.connection
    verdicts = koszul.verdicts
    checks = {
        "leibniz": verdicts.leibniz is None,
        "route_equality": conn.nabla == direct.connection.nabla,
        "torsion_zero": not verdicts.torsion_witnesses,
        "compatibility": not verdicts.compat_witnesses,
        "table_in_fields": koszul.table_in_fields,
        "uniqueness_kernel_zero": direct.kernel_dim == 0,
    }
    for name, ok in sorted(checks.items()):
        rb.add(name, ok)
    rb.summary["levi_civita"] = all(checks.values())

    artifact = connection_to_json(conn.nabla, koszul.table, checks, spec.digest)
    write_file(out, dumps_canonical(artifact))
    rb.summary["artifact"] = out
    code = EXIT_OK if all(checks.values()) else EXIT_MATH
    emit(rb.finish(code), args.json)
    return code


def cmd_verify(args) -> int:
    rb = ReportBuilder("verify", args.spec, args.seed)
    spec = load_spec(args.spec)
    g_in = read_metric(spec, args.metric)
    obj, _ = load_json(args.connection)
    cert, metric = run_structure_checks(spec, rb, g_in)
    if cert is None or metric is None or not rb.ok:
        emit(rb.finish(EXIT_MATH), args.json)
        return EXIT_MATH

    calc = spec.calculus
    nabla, table = connection_from_json(obj, calc.tensor_square.dim, calc.one_forms.dim)
    verdicts = certify(Geometry(calc, cert, metric), Connection(nabla))

    rb.add("leibniz", verdicts.leibniz is None, verdicts.leibniz)
    rb.summary["valid_connection"] = verdicts.leibniz is None
    if verdicts.leibniz is not None:
        emit(rb.finish(EXIT_MATH), args.json)
        return EXIT_MATH

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
    code = EXIT_OK if rb.ok else EXIT_MATH
    emit(rb.finish(code), args.json)
    return code


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tamecalc",
        description="Exact tameness checks and Levi-Civita connections for "
                    "finite-dimensional differential calculi over Q(i).")
    ap.add_argument("--version", action="version", version=f"tamecalc {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write a preset spec file")
    g.add_argument("preset", choices=sorted(PRESETS))
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
    args = build_parser().parse_args(argv)
    try:
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
