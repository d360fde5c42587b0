"""What the benchmark under perfbench/ needs from tamecalc.

The suite does not collect perfbench/, so these tests hold the names and
call shapes the harness uses: its input writer must still produce loadable
specs, and every linalg name its span recorder wraps must still resolve.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

from tamecalc import connection, linalg
from tamecalc.specfile import load_spec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_benchmark_input_writer_produces_loadable_specs(tmp_path):
    inputs = _load_inputs()
    written = inputs.write_input("abelian-torus-2", {"g0": inputs.BASES["A2"]}, tmp_path)
    spec = load_spec(written.spec_path)
    assert spec.calculus.one_forms.dim == written.calculus.one_forms.dim == 18
    assert written.metrics["g0"].path.exists()


def test_traced_linalg_names_resolve():
    assert list(inspect.signature(linalg._rref).parameters) == ["rows", "stop_col"]
    for name in ("apply", "__matmul__", "rank", "kernel", "inverse"):
        assert callable(vars(linalg.Matrix)[name]), name
    for name in ("solve_sparse", "solve_through", "kernel_rows"):
        assert callable(getattr(linalg, name)), name
    for name in ("__init__", "solve"):
        assert callable(vars(linalg.ColumnSolver)[name]), name
    for name in ("__init__", "reduce", "coordinates"):
        assert callable(vars(linalg.Subspace)[name]), name
    # the direct route calls it as connection.solve_sparse(rows, ncols, rhs_list)
    assert connection.solve_sparse is linalg.solve_sparse
    assert len(inspect.signature(linalg.solve_sparse).parameters) == 3
