"""The sparse connection-layer kernels against their dense definitions.

Both geometries carry a constant metric with a dense Gram matrix on the
frame one-forms, so V_g^{-1} mixes frame directions and no kernel can lean
on a diagonal metric.  Examples are drawn by Hypothesis with a fixed
derandomised seed and a bounded count.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GRAM_2, GRAM_3, certified, constant_metric_plain
from dense_reference import (
    g_tilde_dense,
    leibniz_witness_dense,
    left_action,
    pair_apply_dense,
    right_action,
)
from tamecalc.bimodule import hom_A, pair_apply
from tamecalc.builders import abelian_torus_chevalley, build_chevalley, matrix_derivations_chevalley
from tamecalc.calculus import build_symmetry
from tamecalc.connection import Connection, Geometry, leibniz_witness, nabla_zero
from tamecalc.linalg import Matrix, qi, sparse_to_vec, vec_to_sparse
from tamecalc.metric import validate_metric

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


def _constant_geometry(spec, gram):
    calc = build_chevalley(certified(spec))
    cert = build_symmetry(calc).certificate
    metric = validate_metric(calc, cert, constant_metric_plain(spec, gram)).metric
    return Geometry(calc, cert, metric)


@pytest.fixture(scope="module")
def geometries():
    geos = (_constant_geometry(matrix_derivations_chevalley(2), GRAM_3),
            _constant_geometry(abelian_torus_chevalley(2), GRAM_2))
    for geo in geos:
        # V_g^{-1} is not diagonal on the frame, which the kernels must survive
        inv = geo.metric.v_g_inv
        assert any(not inv.entries[i][j].is_zero()
                   for i in range(inv.rows) for j in range(inv.cols) if i != j)
    return geos


@pytest.fixture(scope="module")
def hom_bases(geometries):
    """Hom_A(E, E (x)_A E) per geometry: the Leibniz-preserving shifts."""
    return [hom_A(geo.calc.one_forms, geo.calc.tensor_square.bimodule).basis
            for geo in geometries]


def vectors(n: int):
    """Sparse-ish vectors of small integers (imaginary parts included)."""
    entry = st.one_of(st.just(0), st.just(0), st.integers(-2, 2),
                      st.builds(qi, st.integers(-2, 2), st.integers(-1, 1)))
    return st.lists(entry, min_size=n, max_size=n).map(
        lambda xs: tuple(x if not isinstance(x, int) else qi(x) for x in xs))


@SETTINGS
@given(st.data())
def test_g_tilde_matches_dense_reference(geometries, data):
    for geo in geometries:
        n = geo.metric.e_star.dim
        phi = data.draw(vectors(n))
        psi = data.draw(vectors(n))
        want = g_tilde_dense(geo.calc, geo.metric, phi, psi)
        got = geo.pair_forms(geo.dual(vec_to_sparse(phi)).form, geo.dual(vec_to_sparse(psi)).form)
        assert got == vec_to_sparse(want)


@SETTINGS
@given(st.data())
def test_pair_apply_matches_dense_reference(geometries, data):
    for geo in geometries:
        e_star = geo.metric.e_star
        qt = geo.calc.tensor_square
        phi = e_star.matrix_of(vec_to_sparse(data.draw(vectors(e_star.dim))))
        psi = e_star.matrix_of(vec_to_sparse(data.draw(vectors(e_star.dim))))
        x = data.draw(vectors(qt.dim))
        assert pair_apply(qt, phi, psi, vec_to_sparse(x)) == vec_to_sparse(
            pair_apply_dense(qt, phi, psi, x))


@SETTINGS
@given(st.data())
def test_sparse_actions_match_action_matrices(geometries, data):
    for geo in geometries:
        for bm in (geo.calc.one_forms, geo.metric.e_star.bimodule,
                   geo.calc.tensor_square.bimodule):
            a = data.draw(vectors(bm.algebra.dim))
            v = data.draw(vectors(bm.dim))
            sa, sv = vec_to_sparse(a), vec_to_sparse(v)
            assert sparse_to_vec(bm.act_right(sa, sv), bm.dim) == right_action(bm, a).apply(v)
            assert sparse_to_vec(bm.act_left(sa, sv), bm.dim) == left_action(bm, a).apply(v)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.data())
def test_leibniz_witness_matches_dense_reference(geometries, hom_bases, data):
    # a right-linear shift keeps the Leibniz rule; a changed entry of the
    # value matrix usually breaks it
    for geo, basis in zip(geometries, hom_bases):
        nabla = nabla_zero(geo.calc, geo.cert).nabla
        shifts = data.draw(st.lists(st.tuples(st.integers(0, len(basis) - 1),
                                              st.integers(-2, 2)), max_size=3))
        for k, c in shifts:
            nabla = nabla + basis[k].scale(qi(c))
        breaks = data.draw(st.booleans())
        if breaks:
            i = data.draw(st.integers(0, nabla.rows - 1))
            j = data.draw(st.integers(0, nabla.cols - 1))
            entries = [list(r) for r in nabla.entries]
            entries[i][j] = entries[i][j] + qi(data.draw(st.sampled_from((-1, 1, 2))))
            nabla = Matrix(nabla.rows, nabla.cols, entries)
        conn = Connection(nabla)
        got = leibniz_witness(geo.calc, conn)
        assert got == leibniz_witness_dense(geo.calc, conn)
        if not breaks:
            assert got is None


def test_engine_modules_import_no_dense_vector_helpers():
    # between the spec loader and the artifact writer a vector is a
    # zero-free sparse dict; the calculus, metric and connection layers
    # import no dense vector type or converter
    import ast
    from pathlib import Path

    import tamecalc

    dense = {"Vector", "vec_to_sparse", "sparse_to_vec", "zero_vector", "vec_is_zero"}
    src = Path(tamecalc.__file__).parent
    for name in ("calculus.py", "connection.py", "metric.py"):
        tree = ast.parse((src / name).read_text())
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not imported & dense, (name, imported & dense)


# Defined in src/ but called only by the benchmark under perfbench/, which
# wraps them by name; no engine code calls them.
BENCHMARK_PINNED = {"solve_through", "Subspace.reduce", "Subspace.coordinates", "Matrix.apply"}


def test_every_definition_in_src_has_a_caller():
    # a function or method no other src/ code names is dead, unless the
    # package exports it or the benchmark pins it; special methods are
    # called by the language
    import ast
    from pathlib import Path

    import tamecalc

    src = Path(tamecalc.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    defined = []   # (module, qualified name, name)

    def collect(module, node, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((module, f"{cls}.{child.name}" if cls else child.name, child.name))
                collect(module, child)
            elif isinstance(child, ast.ClassDef):
                collect(module, child, child.name)
            else:
                collect(module, child, cls)

    named = set()
    for module, tree in trees.items():
        collect(module, tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    dead = [(module, qual) for module, qual, name in defined
            if name not in named and name not in tamecalc.__all__
            and qual not in BENCHMARK_PINNED
            and not (name.startswith("__") and name.endswith("__"))]
    assert dead == []
    # the pinned names are still defined, and still have no engine caller
    qualified = {qual for _, qual, _ in defined}
    assert BENCHMARK_PINNED <= qualified
    assert not {qual.split(".")[-1] for qual in BENCHMARK_PINNED} & named


def test_certification_runs_only_where_check_runs_it():
    # builders build and `check` certifies: in src/, .validate() is called
    # on the algebra in cli.run_structure_checks and on the two form
    # bimodules in calculus.validate_calculus, and nowhere else
    import ast
    from pathlib import Path

    import tamecalc

    src = Path(tamecalc.__file__).parent
    sites = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "validate"):
                    sites.append((path.name, top.name, ast.unparse(node.func.value)))
    assert sites == [("calculus.py", "validate_calculus", "e"),
                     ("calculus.py", "validate_calculus", "w2"),
                     ("cli.py", "run_structure_checks", "calc.algebra")]
