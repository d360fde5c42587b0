"""Self-contained JSON spec files and connection artifacts.

A spec file carries the whole input: algebra structure constants, both form
bimodules with their action matrices, d0, d1, the wedge on plain tensor
coordinates, and the metric.  Scalars travel as exact strings ("3/2") or
{"re", "im"} objects, so files round-trip bit for bit and fixtures diff
cleanly.  Shape problems raise SpecFileError (CLI exit 2); mathematical
failures are left for the check pipeline to report (exit 1).

Every file tamecalc writes, and every --json report, is dumps_canonical's
text: `json.dumps(value, indent=2, sort_keys=True)` plus one newline
(ASCII escapes, sorted keys), so the standard library reproduces any of
them byte for byte.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
from dataclasses import dataclass, replace
from itertools import groupby
from pathlib import Path
from typing import Any, Sequence

from .algebra import Algebra
from .bimodule import Bimodule
from .calculus import Calculus
from .errors import ContractViolationError, SpecFileError
from .linalg import (
    LinAlgError,
    Matrix,
    Scalar,
    Vector,
    scalar_from_json,
    scalar_to_json,
    sparse_to_vec,
)

FIELD_TAG = "Q(i)"


@dataclass(frozen=True)
class SpecData:
    name: str
    calculus: Calculus
    metric_plain: Matrix
    digest: str | None = None   # input_digest of the file it was loaded from


# ---------------------------------------------------------------------------
# Low-level converters
# ---------------------------------------------------------------------------

def vector_to_json(v: Sequence[Scalar]) -> list:
    return [scalar_to_json(x) for x in v]


def vector_from_json(obj: Any, n: int, where: str) -> Vector:
    return sparse_to_vec(_sparse_from_json(obj, n, where), n)


def _sparse_from_json(obj: Any, n: int, where: str) -> dict[int, Scalar]:
    """A JSON vector parsed straight into a zero-free sparse vector."""
    if not isinstance(obj, list) or len(obj) != n:
        raise SpecFileError(f"{where}: expected a vector of length {n}")
    if obj.count("0") == n:   # a zero row, most rows of a dense spec
        return {}
    try:
        parsed = {j: scalar_from_json(x) for j, x in enumerate(obj) if x != "0"}
    except (LinAlgError, ValueError, ZeroDivisionError) as exc:
        raise SpecFileError(f"{where}: bad scalar ({exc})")
    return {j: v for j, v in parsed.items() if v.rn or v.im}


def matrix_to_json(m: Matrix) -> list:
    """Dense JSON rows straight from the sparse rows, zeros as "0"."""
    out = []
    for row in m.sparse_rows():
        line: list = ["0"] * m.cols
        for j, v in row.items():
            line[j] = scalar_to_json(v)
        out.append(line)
    return out


def matrix_from_json(obj: Any, rows: int, cols: int, where: str) -> Matrix:
    if not isinstance(obj, list) or len(obj) != rows:
        raise SpecFileError(f"{where}: expected {rows} rows")
    return Matrix.from_sparse_rows([_sparse_from_json(r, cols, f"{where}[{i}]")
                                    for i, r in enumerate(obj)], cols)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SpecFileError(msg)


# ---------------------------------------------------------------------------
# Spec files
# ---------------------------------------------------------------------------

def spec_to_json(spec: SpecData) -> dict:
    calc = spec.calculus
    alg = calc.algebra
    return {
        "field": FIELD_TAG,
        "name": spec.name,
        "algebra": {
            "dim": alg.dim,
            "basis": list(alg.labels),
            "unit": vector_to_json(alg.unit),
            "mul": [[vector_to_json(alg.mul[i][j]) for j in range(alg.dim)]
                    for i in range(alg.dim)],
        },
        "one_forms": _bimodule_to_json(calc.one_forms),
        "two_forms": _bimodule_to_json(calc.two_forms),
        "d0": matrix_to_json(calc.d0),
        "d1": matrix_to_json(calc.d1),
        "wedge": matrix_to_json(calc.wedge_plain),
        "metric": matrix_to_json(spec.metric_plain),
    }


def _bimodule_to_json(b: Bimodule) -> dict:
    return {
        "dim": b.dim,
        "left": [matrix_to_json(m) for m in b.left],
        "right": [matrix_to_json(m) for m in b.right],
    }


def _bimodule_from_json(obj: Any, alg: Algebra, where: str) -> Bimodule:
    _require(isinstance(obj, dict), f"{where}: expected an object")
    _require(type(obj.get("dim")) is int and obj["dim"] >= 0,   # true and false are not
             f"{where}.dim: expected a nonnegative integer")
    dim = obj["dim"]
    for side in ("left", "right"):
        _require(isinstance(obj.get(side), list) and len(obj[side]) == alg.dim,
                 f"{where}.{side}: expected {alg.dim} action matrices")
    left = [matrix_from_json(m, dim, dim, f"{where}.left[{i}]")
            for i, m in enumerate(obj["left"])]
    right = [matrix_from_json(m, dim, dim, f"{where}.right[{i}]")
             for i, m in enumerate(obj["right"])]
    try:
        return Bimodule(alg, dim, left, right)
    except ContractViolationError as exc:
        raise SpecFileError(f"{where}: {exc}")


def spec_from_json(obj: Any) -> SpecData:
    _require(isinstance(obj, dict), "spec: expected a JSON object")
    _require(obj.get("field") == FIELD_TAG,
             f'spec.field: expected "{FIELD_TAG}"')
    a = obj.get("algebra")
    _require(isinstance(a, dict), "spec.algebra: expected an object")
    _require(type(a.get("dim")) is int and a["dim"] >= 1,   # true and false are not
             "spec.algebra.dim: expected a positive integer")
    dim = a["dim"]
    labels = a.get("basis")
    _require(isinstance(labels, list) and len(labels) == dim
             and all(isinstance(x, str) for x in labels),
             f"spec.algebra.basis: expected {dim} labels")
    unit = vector_from_json(a.get("unit"), dim, "spec.algebra.unit")
    mul_obj = a.get("mul")
    _require(isinstance(mul_obj, list) and len(mul_obj) == dim
             and all(isinstance(r, list) and len(r) == dim for r in mul_obj),
             "spec.algebra.mul: expected a dim x dim table")
    mul = [[vector_from_json(mul_obj[i][j], dim, f"spec.algebra.mul[{i}][{j}]")
            for j in range(dim)] for i in range(dim)]
    try:
        alg = Algebra(dim, labels, unit, mul)
    except ContractViolationError as exc:
        raise SpecFileError(f"spec.algebra: {exc}")

    one_forms = _bimodule_from_json(obj.get("one_forms"), alg, "spec.one_forms")
    two_forms = _bimodule_from_json(obj.get("two_forms"), alg, "spec.two_forms")
    ne, nw = one_forms.dim, two_forms.dim
    d0 = matrix_from_json(obj.get("d0"), ne, dim, "spec.d0")
    d1 = matrix_from_json(obj.get("d1"), nw, ne, "spec.d1")
    wedge = matrix_from_json(obj.get("wedge"), nw, ne * ne, "spec.wedge")
    metric = matrix_from_json(obj.get("metric"), dim, ne * ne, "spec.metric")
    try:
        calc = Calculus(alg, one_forms, two_forms, d0, d1, wedge)
    except ContractViolationError as exc:
        raise SpecFileError(f"spec: {exc}")
    name = obj.get("name")
    return SpecData(name=name if isinstance(name, str) else "unnamed",
                    calculus=calc, metric_plain=metric)


def dumps_canonical(obj: Any) -> str:
    """Exactly `json.dumps(obj, indent=2, sort_keys=True) + "\\n"`.  json's
    C encoder is off whenever `indent` is set, so the stdlib call steps a
    Python generator once per scalar; here each run of strings, most of a
    dense matrix row, is escaped and joined in C.  A dict key that is not a
    str raises TypeError (from the sort or the escape) rather than being
    written some other way."""
    return _encode(obj, "\n") + "\n"


_escape = json.encoder.encode_basestring_ascii


def _encode(obj: Any, nl: str) -> str:
    """obj's text under the indent that nl (a newline and the enclosing
    indent) sets; leaves other than strings go to json.dumps."""
    if isinstance(obj, str):
        return _escape(obj)
    inner = nl + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = sep.join(f"{_escape(k)}: {_encode(obj[k], inner)}" for k in sorted(obj))
        return f"{{{inner}{body}{nl}}}"   # one copy of body, where + makes three
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = sep.join(sep.join(map(_escape, run)) if kind is str
                        else sep.join(_encode(x, inner) for x in run)
                        for kind, run in groupby(obj, type))
        return f"[{inner}{body}{nl}]"
    return json.dumps(obj)


def write_file(path: str | Path, text: str) -> None:
    """Write an output file; a path that cannot be written is bad input."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SpecFileError(f"cannot write {path}: {exc}")


def check_writable(path: str | Path) -> None:
    """Refuse, before any work, an output path whose directory write_file
    would refuse, with the error that writing would raise."""
    p = Path(path)
    for bad, code in ((p.is_dir(), errno.EISDIR), (not p.parent.exists(), errno.ENOENT),
                      (not p.parent.is_dir(), errno.ENOTDIR),
                      (not os.access(p.parent, os.W_OK), errno.EACCES)):
        if bad:
            raise SpecFileError(f"cannot write {path}: {OSError(code, os.strerror(code), str(p))}")


def save_spec(spec: SpecData, path: str | Path) -> None:
    write_file(path, dumps_canonical(spec_to_json(spec)))


def load_json(path: str | Path) -> tuple[Any, str]:
    """The parsed file and its input_digest, from one read; every way the
    file can be unreadable, undecodable or not JSON is bad input."""
    p = Path(path)
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise SpecFileError(f"cannot read {p}: {exc}")
    digest = input_digest(data)
    try:
        text = data.decode("utf-8")
        del data   # the parse's peak memory holds the text, not the bytes too
        return json.loads(text), digest
    except (ValueError, RecursionError) as exc:   # not UTF-8, not JSON, nested too deep
        raise SpecFileError(f"{p}: invalid JSON ({exc})")


def load_spec(path: str | Path) -> SpecData:
    obj, digest = load_json(path)
    return replace(spec_from_json(obj), digest=digest)


def input_digest(data: bytes) -> str:
    return f"sha256:{hashlib.sha256(data).hexdigest()}"


def load_metric_override(path: str | Path, ne: int, na: int) -> Matrix:
    """A metric override file: either a bare matrix or {"metric": matrix}.

    Plain-tensor coordinates (ne^2 columns) are expected, matching the spec
    file's own metric block.
    """
    obj, _ = load_json(path)
    if isinstance(obj, dict) and "metric" in obj:
        obj = obj["metric"]
    return matrix_from_json(obj, na, ne * ne, "metric override")


# ---------------------------------------------------------------------------
# Connection artifacts
# ---------------------------------------------------------------------------

def connection_to_json(nabla: Matrix, table: Sequence[Sequence[dict[int, Scalar]]],
                       checks: dict[str, bool], spec_digest: str) -> dict:
    """The artifact, with each sparse table entry written as a dense vector
    of E* coordinates (dim E* == dim E, the columns of nabla)."""
    return {
        "schema": "tamecalc.connection.v1",
        "input_digest": spec_digest,
        "nabla": matrix_to_json(nabla),
        "table": [[vector_to_json(sparse_to_vec(entry, nabla.cols)) for entry in row]
                  for row in table],
        "checks": dict(sorted(checks.items())),
    }


def connection_from_json(obj: Any, t2_dim: int,
                         ne: int) -> tuple[Matrix, list[list[dict[int, Scalar]]] | None]:
    _require(isinstance(obj, dict), "connection: expected a JSON object")
    _require("nabla" in obj, "connection: missing value matrix")
    nabla = matrix_from_json(obj["nabla"], t2_dim, ne, "connection.nabla")
    table = None
    if obj.get("table"):
        raw = obj["table"]
        _require(isinstance(raw, list), "connection.table: expected a list")
        table = []
        for i, row in enumerate(raw):
            _require(isinstance(row, list) and len(row) == len(raw),
                     "connection.table: expected a square table")
            table.append([_sparse_from_json(v, ne, f"connection.table[{i}][{j}]")
                          for j, v in enumerate(row)])
    return nabla, table
