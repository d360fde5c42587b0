"""Span recorder for the traced benchmark mode.

The recorder wraps tamecalc's public functions from outside the package:
each wrapped call records a span (id, name, start, end, parent id) and bumps
the call counter of its layer.  Spans stay in memory and are written out
once, when the traced process ends.  Only the outermost call of a layer
opens a span, so a solve that calls another solve is one elimination, not
two.

Run as a script, it executes one tamecalc command under the recorder:

    python3 perfbench/spans.py OUT.json connect spec.json --json

writes the spans and counts to OUT.json and exits with the command's code.
A name the package no longer has is skipped and listed under "unwrapped".
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (layer, module, names) of every callable that opens a span; "Cls.meth"
# names a method.
SPANS = [
    ("specfile.load", "tamecalc.specfile", ["load_spec", "load_metric_override",
                                            "load_json", "connection_from_json",
                                            "input_digest"]),
    ("specfile.write", "tamecalc.specfile", ["save_spec", "connection_to_json",
                                             "dumps_canonical"]),
    ("algebra.validate", "tamecalc.algebra", ["Algebra.validate"]),
    ("bimodule.tensor_square", "tamecalc.bimodule", ["tensor_over_A"]),
    ("bimodule.hom", "tamecalc.bimodule", ["hom_A", "dual_module"]),
    ("bimodule.pair_apply", "tamecalc.bimodule", ["pair_apply"]),
    ("calculus.validate", "tamecalc.calculus", ["validate_calculus"]),
    ("calculus.symmetry", "tamecalc.calculus", ["build_symmetry"]),
    ("metric.validate", "tamecalc.metric", ["validate_metric"]),
    ("metric.fields", "tamecalc.metric", ["vector_fields"]),
    ("connection.reference", "tamecalc.connection", ["nabla_zero"]),
    ("connection.koszul", "tamecalc.connection", ["levi_civita_koszul"]),
    ("connection.direct", "tamecalc.connection", ["levi_civita_direct"]),
    ("connection.covariant_derivative", "tamecalc.connection", ["covariant_derivative"]),
    ("connection.lie_bracket", "tamecalc.connection", ["lie_bracket"]),
    ("linalg.elim", "tamecalc.linalg", [
        "Subspace.__init__", "Subspace.reduce", "Subspace.coordinates",
        "ColumnSolver.__init__", "ColumnSolver.solve", "kernel_rows", "solve",
        "solve_many", "solve_through", "solve_sparse", "Matrix.rank",
        "Matrix.kernel", "Matrix.inverse"]),
    ("linalg.matmul", "tamecalc.linalg", ["Matrix.__matmul__"]),
    ("linalg.apply", "tamecalc.linalg", ["Matrix.apply"]),
]

# The certification calls that cmd_connect and cmd_verify make themselves;
# the solvers' own internal checks stay inside connection.koszul.
CERTIFY = ("connection.certify", "tamecalc.cli",
           ["leibniz_witness", "torsion", "check_compat_cov", "check_torsionless_cov"])

# Counted on every call, from wherever it comes; they open no span.
COUNTED = ("tamecalc.connection",
           ["leibniz_witness", "torsion", "pi_g_matrix", "koszul_rhs", "covariant_table"])


class Tracer:
    """Spans and counters of one process, kept in memory until dump()."""

    def __init__(self):
        self.modules: list = []
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.stack: list[tuple[int, str]] = []
        self.open: Counter = Counter()
        self.unwrapped: list[str] = []

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span unless a span of the same layer is open."""
        if self.open[name]:
            return fn(*args, **kwargs)
        sid = len(self.spans) + len(self.stack)
        parent = self.stack[-1][0] if self.stack else -1
        self.stack.append((sid, name))
        self.open[name] += 1
        self.counts[name + ".calls"] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.open[name] -= 1
            self.stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def innermost(self, prefix: str) -> str | None:
        """The innermost open span whose name starts with prefix."""
        for _, name in reversed(self.stack):
            if name.startswith(prefix):
                return name
        return None

    def spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.run(name, fn, *args, **kwargs)
        return wrapper

    def counted(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import tamecalc.cli  # noqa: F401  (loads every module the CLI uses)

        self.modules = [m for n, m in sys.modules.items()
                        if n == "tamecalc" or n.startswith("tamecalc.")]
        modname, attrs = COUNTED
        for attr in attrs:
            self._wrap(modname, attr, lambda fn, a=attr: self.counted(a + ".calls", fn))
        name, modname, attrs = CERTIFY
        cli = sys.modules.get(modname)
        for attr in attrs:
            if hasattr(cli, attr):
                setattr(cli, attr, self.spanned(name, getattr(cli, attr)))
            else:
                self.unwrapped.append(f"{modname}.{attr}")
        for name, modname, attrs in SPANS:
            for attr in attrs:
                self._wrap(modname, attr, lambda fn, n=name: self.spanned(n, fn))
        self._count_elimination_rows()
        self._count_direct_system()

    def _wrap(self, modname: str, attr: str, make) -> None:
        """Wrap modname.attr and every other module's binding of it."""
        mod = sys.modules.get(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            if cls is None or meth not in vars(cls):
                self.unwrapped.append(f"{modname}.{attr}")
                return
            setattr(cls, meth, make(vars(cls)[meth]))
            return
        original = getattr(mod, attr, None)
        if original is None:
            self.unwrapped.append(f"{modname}.{attr}")
            return
        wrapped = make(original)
        for other in self.modules:
            if vars(other).get(attr) is original:
                setattr(other, attr, wrapped)

    def _count_elimination_rows(self) -> None:
        """Rows and stored entries handed to the sparse elimination kernel."""
        linalg = sys.modules.get("tamecalc.linalg")
        rref = getattr(linalg, "_rref", None)
        if rref is None:
            self.unwrapped.append("tamecalc.linalg._rref")
            return
        counts = self.counts

        def counted_rows(rows):
            for row in rows:
                counts["linalg.elim_rows"] += 1
                counts["linalg.elim_nnz"] += len(row)
                yield row

        @functools.wraps(rref)
        def wrapper(rows, stop_col):
            return rref(counted_rows(rows), stop_col)
        linalg._rref = wrapper

    def _count_direct_system(self) -> None:
        """Size of the system the direct route hands to solve_sparse."""
        conn = sys.modules.get("tamecalc.connection")
        solve_sparse = getattr(conn, "solve_sparse", None)
        if solve_sparse is None:
            self.unwrapped.append("tamecalc.connection.solve_sparse")
            return

        @functools.wraps(solve_sparse)
        def wrapper(rows, ncols, rhs):
            if self.innermost("connection.") == "connection.direct":
                self.counts["connection.direct_rows"] += len(rows)
                self.counts["connection.direct_unknowns"] += ncols
            return solve_sparse(rows, ncols, rhs)
        conn.solve_sparse = wrapper

    def dump(self, path: str, code: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"exit_code": code, "counts": dict(self.counts),
                       "unwrapped": self.unwrapped, "spans": self.spans}, fh)


def main(argv: list[str]) -> int:
    out, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["tamecalc.cli"]
    code = tracer.run("op", cli.main, args)
    tracer.dump(out, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
