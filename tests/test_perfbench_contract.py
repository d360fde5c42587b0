"""What the benchmark under perfbench/ needs from tamecalc.

The suite does not collect perfbench/, so these tests hold the names and
call shapes the harness uses: its input writer must still produce loadable
specs, its oracle check must still read tables through E*, and every name
its span recorder wraps must still resolve.
"""

import importlib
import inspect
from fractions import Fraction

from conftest import load_perfbench
from tamecalc import bimodule, connection, linalg
from tamecalc.bimodule import dual_module
from tamecalc.linalg import ONE, ZERO, Scalar, basis_vector
from tamecalc.specfile import connection_to_json, load_spec


def test_benchmark_input_writer_produces_loadable_specs(tmp_path):
    inputs = load_perfbench("inputs")
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


def test_oracle_reader_and_hom_layer_resolve():
    # read_table builds E* as dual_module(calc.one_forms) and evaluates
    # table entries through HomModule.value
    params = list(inspect.signature(bimodule.dual_module).parameters.values())
    assert len(params) == 1
    assert params[0].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    assert callable(vars(bimodule.HomModule)["value"])
    layers = {name: (modname, attrs) for name, modname, attrs in load_perfbench("spans").SPANS}
    modname, attrs = layers["bimodule.hom"]
    assert modname == "tamecalc.bimodule"
    assert {"hom_A", "dual_module"} <= set(attrs)
    for name in attrs:
        assert callable(getattr(bimodule, name)), name


def test_oracle_reader_evaluates_dense_coordinates(fuzzy_geo):
    # read_table is the benchmark's one dense E* edge: it indexes
    # Algebra.unit, builds dense thetas and evaluates dense artifact
    # coordinates through HomModule.value, which must answer densely
    calc = fuzzy_geo.calc
    unit = calc.algebra.unit
    assert isinstance(unit, tuple) and len(unit) == calc.algebra.dim
    assert all(isinstance(u, Scalar) for u in unit) and unit[0] == ONE
    e_star = dual_module(calc.one_forms)
    coords = tuple(ONE if k == 8 else ZERO for k in range(e_star.dim))
    value = e_star.value(coords, basis_vector(calc.one_forms.dim, 8))
    assert isinstance(value, tuple) and len(value) == calc.algebra.dim
    assert value == e_star.basis[8].apply(basis_vector(calc.one_forms.dim, 8))
    # and it reads a real artifact table: (nabla_{X_1} X_2)(theta^3) = 1
    koszul = connection.levi_civita_koszul(fuzzy_geo)
    artifact = connection_to_json(koszul.connection.nabla, koszul.table, {}, "sha256:" + "0" * 64)
    read = load_perfbench("run").read_table(artifact["table"], calc)
    assert read is not None and read[0][1] == [Fraction(0), Fraction(0), Fraction(1)]


def test_traced_stage_names_resolve():
    # the traced breakdown reads these layers; a renamed target would leave
    # its metric at zero without failing the benchmark
    spans = load_perfbench("spans")
    layers = {name: (modname, attrs) for name, modname, attrs in spans.SPANS}
    for layer, modname, name in (
            ("algebra.validate", "tamecalc.algebra", "Algebra.validate"),
            ("bimodule.tensor_square", "tamecalc.bimodule", "tensor_over_A"),
            ("calculus.validate", "tamecalc.calculus", "validate_calculus"),
            ("calculus.symmetry", "tamecalc.calculus", "build_symmetry"),
            ("metric.validate", "tamecalc.metric", "validate_metric")):
        assert layers[layer][0] == modname
        assert name in layers[layer][1], name
        module = importlib.import_module(modname)
        if "." in name:
            cls, meth = name.split(".")
            assert callable(vars(getattr(module, cls))[meth]), name
        else:
            assert callable(getattr(module, name)), name
    modname, attrs = spans.COUNTED
    assert modname == "tamecalc.connection"
    for name in ("leibniz_witness", "torsion"):
        assert name in attrs
        assert callable(getattr(connection, name)), name
