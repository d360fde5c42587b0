"""Axioms checked on a generating set of the algebra.

An identity that is linear in a and holds for a1 and a2 holds for a1 a2
once the axioms it rests on hold, so checking it on `Algebra.generators`
(and at the unit, where that case is not free) decides it for all of A.
These tests hold the generators to their definition, the generated
relation subspace to the full-basis one, and every validate_calculus
report to the full-basis reference in dense_reference.py.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import certified, truncated_line_spec
from dense_reference import (
    NotRightLinearError,
    contains_vector,
    from_rows,
    leibniz_witness_dense,
    multiply_dense,
    nabla_zero,
    torsion,
    validate_calculus_reference,
)
from tamecalc.algebra import Algebra
from tamecalc.bimodule import Bimodule, module_center, tensor_over_A
from tamecalc.builders import preset_abelian_torus, preset_matrix_derivations
from tamecalc.calculus import Calculus, build_symmetry, validate_calculus
from tamecalc.connection import leibniz_witness
from tamecalc.errors import ContractViolationError
from tamecalc.linalg import (
    ONE,
    ZERO,
    Matrix,
    Scalar,
    Subspace,
    _lincomb,
    basis_vector,
    commutator_rows,
    qi,
    zero_vector,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _fuzzy_sphere_3_algebra() -> Algebra:
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.fuzzy_sphere_chevalley(3).algebra


def _k_times_k() -> Algebra:
    """K x K on the idempotents e1, e2, with unit e1 + e2."""
    e1, e2 = basis_vector(2, 0), basis_vector(2, 1)
    z = zero_vector(2)
    alg = Algebra(2, ("e1", "e2"), (ONE, ONE), [[e1, z], [z, e2]])
    assert alg.validate() is None
    return alg


PRESETS = {
    "matrix-derivations-2": lambda: preset_matrix_derivations(2).calculus.algebra,
    "abelian-torus-2": lambda: preset_abelian_torus(2).calculus.algebra,
    "abelian-torus-4": lambda: preset_abelian_torus(4).calculus.algebra,
}
ALGEBRAS = {
    **PRESETS,
    "fuzzy-sphere-3": _fuzzy_sphere_3_algebra,
    "truncated-line": lambda: truncated_line_spec().algebra,
    "k-times-k": _k_times_k,
}


def _generated(alg: Algebra, gens) -> Subspace:
    """The span of the unit and every word in gens, grown by multiplying on
    the left until it stops growing."""
    span = Subspace(alg.dim, [alg.unit])
    while True:
        grown = Subspace(alg.dim, [*span.basis, *(multiply_dense(alg, basis_vector(alg.dim, g), v)
                                                  for g in gens for v in span.basis)])
        if grown == span:
            return span
        span = grown


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_generators_generate_the_algebra(name):
    alg = ALGEBRAS[name]()
    gens = alg.generators
    assert _generated(alg, gens).dim == alg.dim
    # greedy in basis order: each kept element is new over the earlier ones
    # and each skipped element is already generated by the kept ones before it
    for i in range(alg.dim):
        earlier = _generated(alg, [g for g in gens if g < i])
        assert contains_vector(earlier, basis_vector(alg.dim, i)) == (i not in gens), i


def test_generator_counts():
    counts = {name: (len(ALGEBRAS[name]().generators), ALGEBRAS[name]().dim)
              for name in ("abelian-torus-4", "abelian-torus-2", "matrix-derivations-2",
                           "k-times-k")}
    assert counts == {"abelian-torus-4": (9, 25), "abelian-torus-2": (5, 9),
                      "matrix-derivations-2": (2, 4), "k-times-k": (1, 2)}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_generated_relations_and_center_equal_the_full_basis(name):
    maker = {"matrix-derivations-2": lambda: preset_matrix_derivations(2),
             "abelian-torus-2": lambda: preset_abelian_torus(2),
             "abelian-torus-4": lambda: preset_abelian_torus(4)}[name]
    e = certified(maker().calculus).one_forms
    assert e.validate() is None
    assert e.validated and len(e.algebra.generators) < e.algebra.dim
    qt = tensor_over_A(e, e)
    rows = commutator_rows((e.right[i].transpose(), e.left[i]) for i in range(e.algebra.dim))
    assert qt.relations == Subspace(qt.ambient_dim, rows)
    assert qt.bimodule.validated
    full = Bimodule(e.algebra, e.dim, e.left, e.right)    # not validated: whole basis
    assert module_center(e) == module_center(full)


def test_d0_leibniz_checks_the_unit():
    # E = K with e2 acting as 1 on both sides and d(e1) = 0, d(e2) = 1: the
    # only generator e1 satisfies d(e1 b) = d(e1) b + e1 db for every b, but
    # d(1) != 0, so the rule fails, first at (e2, e2)
    alg = _k_times_k()
    assert alg.generators == (0,)
    e2_only = Matrix.zeros(1, 1), Matrix.identity(1)
    one_forms = Bimodule(alg, 1, e2_only, e2_only)
    zero = Bimodule.zero(alg)
    d0 = from_rows([(ZERO, ONE)])
    calc = Calculus(alg, one_forms, zero, d0, Matrix.zeros(0, 1), Matrix.zeros(0, 1))
    items = {item.name: item for item in validate_calculus(calc)}
    assert items["one_forms_bimodule_axioms"].ok and items["two_forms_bimodule_axioms"].ok
    assert items["d0_leibniz"].witness == "d(ab) != da.b + a.db at basis pair (e2, e2)"
    assert [(i.name, i.ok, i.witness) for i in validate_calculus(calc)] == \
        validate_calculus_reference(calc)
    assert not calc.validated


# -- bumped calculi against the full-basis reference --------------------------------

CALCULI = [certified(preset_matrix_derivations(2).calculus),
           certified(preset_abelian_torus(2).calculus)]
scalars = st.builds(Scalar, st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 2)).filter(
    lambda x: not x.is_zero())


def _bumped(m: Matrix, i: int, j: int, by: Scalar) -> Matrix:
    rows = [list(r) for r in m.entries]
    rows[i][j] = rows[i][j] + by
    return from_rows(rows)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_bumped_calculus_report_matches_full_basis_reference(data):
    # one entry of an action at an index outside the generators, or of d0,
    # d1 or the wedge, bumped; the checks that run over the generators must
    # report what the whole-basis reference reports, witnesses included
    calc = data.draw(st.sampled_from(CALCULI))
    alg = calc.algebra
    by = data.draw(scalars)

    def bump(m: Matrix) -> Matrix:
        return _bumped(m, data.draw(st.integers(0, m.rows - 1)),
                       data.draw(st.integers(0, m.cols - 1)), by)

    e, w2, d0, d1, wedge = (calc.one_forms, calc.two_forms, calc.d0, calc.d1,
                            calc.wedge_plain)
    part = data.draw(st.sampled_from(["one_forms", "two_forms", "d0", "d1", "wedge"]))
    if part in ("one_forms", "two_forms"):
        outside = [i for i in range(alg.dim) if i not in alg.generators]
        a = data.draw(st.sampled_from(outside))
        module = e if part == "one_forms" else w2
        left, right = list(module.left), list(module.right)
        acts = data.draw(st.sampled_from([left, right]))
        acts[a] = bump(acts[a])
        module = Bimodule(alg, module.dim, left, right)
        e, w2 = (module, w2) if part == "one_forms" else (e, module)
    elif part == "d0":
        d0 = bump(d0)
    elif part == "d1":
        d1 = bump(d1)
    else:
        wedge = bump(wedge)
    broken = Calculus(alg, e, w2, d0, d1, wedge)
    report = [(item.name, item.ok, item.witness) for item in validate_calculus(broken)]
    assert report == validate_calculus_reference(broken)
    assert broken.validated == all(ok for _, ok, _ in report)


def test_presets_pass_on_generators_and_reference():
    for calc in CALCULI:
        report = validate_calculus(calc)
        assert report.ok and calc.validated
        assert [(i.name, i.ok, i.witness) for i in report] == validate_calculus_reference(calc)


def _first_nonassociative_triple(alg: Algebra):
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                b = [basis_vector(alg.dim, x) for x in (i, j, k)]
                if multiply_dense(alg, multiply_dense(alg, b[0], b[1]), b[2]) != \
                        multiply_dense(alg, b[0], multiply_dense(alg, b[1], b[2])):
                    return (i, j, k)
    return None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(-1, 1), min_size=12, max_size=12))
def test_associativity_witness_is_the_first_triple(coeffs):
    # a unital table on 1, x, y with random products of x and y: the unit
    # laws hold, so associativity is checked on the generators and a failure
    # names the first failing triple in basis order
    z = zero_vector(3)
    e = [basis_vector(3, k) for k in range(3)]
    mul = [[e[0], e[1], e[2]], [e[1], z, z], [e[2], z, z]]
    for n, (a, b) in enumerate(((1, 1), (1, 2), (2, 1), (2, 2))):
        mul[a][b] = tuple(qi(c) for c in coeffs[3 * n:3 * n + 3])
    alg = Algebra(3, ("1", "x", "y"), e[0], mul)
    want = _first_nonassociative_triple(alg)
    if want is None:
        assert alg.validate() is None
        assert alg.validated
    else:
        i, j, k = (alg.labels[x] for x in want)
        assert alg.validate() == f"associativity fails on basis triple ({i}, {j}, {k})"
        assert not alg.validated


@pytest.mark.parametrize("part, a, entry, witness", [
    ("one_forms", 5, (0, 0), "bimodule: e(ab) != (ea)b at basis pair (0, 5)"),
    ("one_forms", 7, (2, 3), "bimodule: e(ab) != (ea)b at basis pair (0, 7)"),
    ("two_forms", 5, (0, 1), "bimodule: e(ab) != (ea)b at basis pair (1, 5)"),
])
def test_generator_failure_reruns_for_the_first_pair(part, a, entry, witness):
    # a right action bumped at a non-generator of M_3: the generators see the
    # failure at a later pair than the whole basis does, and the report names
    # the whole basis's first pair
    calc = CALCULI[1]
    module = getattr(calc, part)
    right = list(module.right)
    right[a] = _bumped(right[a], *entry, ONE)
    module = Bimodule(calc.algebra, module.dim, module.left, right)
    e, w2 = (module, calc.two_forms) if part == "one_forms" else (calc.one_forms, module)
    broken = Calculus(calc.algebra, e, w2, calc.d0, calc.d1, calc.wedge_plain)
    report = [(item.name, item.ok, item.witness) for item in validate_calculus(broken)]
    assert report == validate_calculus_reference(broken)
    assert (f"{part}_bimodule_axioms", False, witness) in report


@pytest.mark.parametrize("calc_index", [0, 1])
@pytest.mark.parametrize("row, s, t", [(0, 0, 0), (0, 0, 1), (3, 7, 4), (4, 3, 9), (2, 6, 0)])
@pytest.mark.parametrize("through_quotient", [False, True])
def test_wedge_failure_is_named_as_the_reference_names_it(calc_index, row, s, t,
                                                          through_quotient):
    # the wedge's bimodule-map axiom is compared as whole sparse products
    # and the witness searched only where they differ; a wedge entry bumped
    # at (s, t) fails middle-linearity first, so the axiom runs over the
    # whole basis.  Bumped through the quotient (plus the project row of
    # the class of e_s (x) e_t) it stays middle-linear, and the axiom runs
    # on the generators first.  The report names what the reference names.
    calc = CALCULI[calc_index]
    ne = calc.one_forms.dim
    if through_quotient:
        project = calc.tensor_square.project
        q = min(project.sparse_cols()[s * ne + t])
        rows = list(calc.wedge_plain.sparse_rows())
        rows[row] = _lincomb(((ONE, rows[row]), (ONE, project.sparse_rows()[q])))
        wedge = Matrix.from_sparse_rows(rows, ne * ne)
    else:
        wedge = _bumped(calc.wedge_plain, row, s * ne + t, ONE)
    broken = Calculus(calc.algebra, calc.one_forms, calc.two_forms, calc.d0, calc.d1, wedge)
    report = [(item.name, item.ok, item.witness) for item in validate_calculus(broken)]
    assert report == validate_calculus_reference(broken)
    items = {name: (ok, witness) for name, ok, witness in report}
    assert items["wedge_middle_linear"][0] == through_quotient
    assert not items["wedge_bimodule_map"][0]


def test_connection_checks_match_on_a_validated_calculus():
    # leibniz_witness runs over the generators, on a validated calculus
    # only, and the torsion oracle does once the calculus validated; they
    # name what the whole-basis scan names
    for preset in (preset_matrix_derivations(2), preset_abelian_torus(2)):
        calc = certified(preset.calculus)
        unchecked = Calculus(calc.algebra, calc.one_forms, calc.two_forms,
                             calc.d0, calc.d1, calc.wedge_plain)
        assert validate_calculus(calc).ok and calc.validated and not unchecked.validated
        sigma = build_symmetry(calc)
        n0 = nabla_zero(calc, sigma)
        with pytest.raises(ContractViolationError, match="not validated"):
            leibniz_witness(unchecked, n0)
        for r, c in ((0, 0), (0, 6), (7, 4), (3, 1)):
            broken = _bumped(n0, r, c, ONE)
            assert leibniz_witness(calc, broken) == leibniz_witness_dense(calc, broken)
            witnesses = []
            for target in (calc, unchecked):
                try:
                    torsion(target, broken)
                    witnesses.append(None)
                except NotRightLinearError as exc:
                    witnesses.append(exc.witness)
            assert witnesses[0] == witnesses[1]
