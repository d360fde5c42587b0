"""The sparse connection-layer kernels against their dense definitions.

Both geometries carry a constant metric with a dense Gram matrix on the
frame one-forms, so V_g^{-1} mixes frame directions and no kernel can lean
on a diagonal metric.  Examples are drawn by Hypothesis with a fixed
derandomised seed and a bounded count.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GRAM_2, GRAM_3, constant_metric_plain, validated
from dense_reference import (
    g_tilde_dense,
    leibniz_witness_dense,
    left_action,
    nabla_zero,
    pair_apply_dense,
    right_action,
)
from tamecalc.bimodule import hom_A, pair_apply
from tamecalc.builders import abelian_torus_chevalley, build_chevalley, matrix_derivations_chevalley
from tamecalc.calculus import build_symmetry
from tamecalc.connection import Geometry, leibniz_witness
from tamecalc.linalg import Matrix, qi, sparse_to_vec, vec_to_sparse
from tamecalc.metric import validate_metric

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


def _constant_geometry(spec, gram):
    calc = validated(build_chevalley(spec))
    sigma = build_symmetry(calc)
    metric = validate_metric(calc, sigma, constant_metric_plain(spec, gram))
    return Geometry(calc, sigma, metric)


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
        nabla = nabla_zero(geo.calc, geo.sigma)
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
        got = leibniz_witness(geo.calc, nabla)
        assert got == leibniz_witness_dense(geo.calc, nabla)
        if not breaks:
            assert got is None


def test_engine_modules_import_no_dense_vector_helpers():
    # between the spec loader and the artifact writer a vector is a
    # zero-free sparse dict; the calculus, metric and connection layers
    # import no dense vector type or converter
    import ast
    from pathlib import Path

    import tamecalc

    dense = {"Vector", "vec_to_sparse", "sparse_to_vec", "zero_vector", "vec_is_zero",
             "basis_vector"}
    src = Path(tamecalc.__file__).parent
    # bimodule keeps the dense helpers of the benchmark-pinned HomModule.value,
    # but builds no witness as a dense basis vector
    for name, forbidden in (("calculus.py", dense), ("connection.py", dense),
                            ("metric.py", dense), ("bimodule.py", {"basis_vector"})):
        tree = ast.parse((src / name).read_text())
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not imported & forbidden, (name, imported & forbidden)


# Defined in src/ but called only by the benchmark under perfbench/, which
# wraps them by name; no engine code calls them.
BENCHMARK_PINNED = {"solve_through", "Subspace.reduce", "Subspace.coordinates", "Matrix.apply"}

# Called by the standard library: argparse reports every bad command line
# through the parser's error().
LIBRARY_HOOKS = {"_Parser.error"}


def test_every_definition_in_src_has_a_caller():
    # a function or method no other src/ code names is dead, unless the
    # benchmark pins it or the standard library calls it; special methods
    # are called by the language, and exporting a name is no caller
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
            if name not in named and qual not in BENCHMARK_PINNED | LIBRARY_HOOKS
            and not (name.startswith("__") and name.endswith("__"))]
    assert dead == []
    # the exempt names are still defined, and the pinned ones still have no
    # engine caller
    qualified = {qual for _, qual, _ in defined}
    assert BENCHMARK_PINNED | LIBRARY_HOOKS <= qualified
    assert not {qual.split(".")[-1] for qual in BENCHMARK_PINNED} & named


def unread_fields(sources: dict[str, str]) -> list[tuple[str, str, str]]:
    """(module, class, field) for each __slots__ name and each self.x an
    __init__ sets that no module of sources reads as an attribute.  Dunder
    slots (__weakref__, __dict__) are the interpreter's, and so exempt."""
    import ast

    stored = []   # (module, Class, field)
    read = set()
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (isinstance(item, ast.Assign)
                        and any(isinstance(t, ast.Name) and t.id == "__slots__"
                                for t in item.targets)):
                    stored.extend((name, node.name, elt.value) for elt in item.value.elts
                                  if not (elt.value.startswith("__") and elt.value.endswith("__")))
                elif isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    stored.extend((name, node.name, target.attr)
                                  for target in ast.walk(item)
                                  if isinstance(target, ast.Attribute)
                                  and isinstance(target.ctx, ast.Store)
                                  and isinstance(target.value, ast.Name)
                                  and target.value.id == "self")
    return sorted({field for field in stored if field[2] not in read})


def test_every_stored_field_in_src_is_read():
    # each __slots__ name, and each self.x an __init__ sets, is read as an
    # attribute by some src/ code: a field no caller reads is carried for
    # nothing, so drop it, or compute it in the test that wants it
    from pathlib import Path

    import tamecalc

    src = Path(tamecalc.__file__).parent
    assert unread_fields({path.name: path.read_text() for path in sorted(src.glob("*.py"))}) == []


def test_stored_field_rule_exempts_only_dunder_slots():
    # __weakref__ is read by the interpreter, a made-up slot by no one
    text = ("class Cell:\n"
            "    __slots__ = ('value', 'spare', '__weakref__')\n"
            "    def __init__(self, value):\n"
            "        self.value = value\n"
            "        self.extra = 0\n"
            "def read(cell):\n"
            "    return cell.value\n")
    assert unread_fields({"cell.py": text}) == [("cell.py", "Cell", "extra"),
                                                 ("cell.py", "Cell", "spare")]


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


def test_axiom_failures_are_returned_not_raised():
    # a failed axiom is a value from the engine to the report: no src/ code
    # returns an exception object, and the check path catches none
    import ast
    from pathlib import Path

    import tamecalc

    src = Path(tamecalc.__file__).parent
    returned, caught = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Return) and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                    and node.value.func.id.endswith("Error")):
                returned.append((path.name, node.lineno))
            if (isinstance(node, ast.FunctionDef)
                    and node.name in ("validate_calculus", "run_structure_checks")):
                caught.extend((path.name, node.name) for inner in ast.walk(node)
                              if isinstance(inner, ast.Try))
    assert returned == []
    assert caught == []


def test_tameness_keeps_two_refusals_and_trusts_validation():
    # on a valid calculus only NotCentered and PsymRangeMismatch can fail,
    # so build_symmetry constructs no other Refusal; and the checks that
    # require a validated calculus run on the algebra's generators, so no
    # src/ call hands calc.validated to first_failure
    import ast
    from pathlib import Path

    import tamecalc

    src = Path(tamecalc.__file__).parent
    tree = ast.parse((src / "calculus.py").read_text())
    symmetry, = (node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "build_symmetry")
    conditions = [ast.literal_eval(node.args[0]) for node in ast.walk(symmetry)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "Refusal"]
    assert sorted(conditions) == ["NotCentered", "PsymRangeMismatch"]
    handed = [(path.name, node.lineno) for path in sorted(src.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "first_failure"
              and any("calc.validated" in ast.unparse(arg) for arg in node.args[1:])]
    assert handed == []
