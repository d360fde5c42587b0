"""Preset builders: dimensions, validity, tameness, error paths."""

import pytest

from tamecalc.builders import (
    ChevalleySpec,
    abelian_torus_chevalley,
    build_chevalley,
    euclidean_metric_plain,
    matrix_derivations_chevalley,
)
from tamecalc.calculus import build_symmetry, validate_calculus
from tamecalc.errors import ContractViolationError, Refusal
from tamecalc.linalg import (
    Matrix,
    Subspace,
    basis_vector,
    qi,
    zero_vector,
)
from tamecalc.metric import validate_metric

from conftest import load_perfbench, truncated_line_spec
from dense_reference import center, lie_table_failure


def test_fuzzy_preset_dimensions(fuzzy_preset):
    calc = fuzzy_preset.calculus
    assert calc.algebra.dim == 4
    assert calc.one_forms.dim == 12
    assert calc.two_forms.dim == 12


def test_fuzzy_center_is_scalars(fuzzy_preset):
    alg = fuzzy_preset.calculus.algebra
    assert center(alg) == Subspace(4, [basis_vector(4, 0)])


def test_fuzzy_ad_u_of_v(fuzzy_preset):
    alg = fuzzy_preset.calculus.algebra
    got = alg.ad(basis_vector(4, 1)).apply(basis_vector(4, 2))
    assert got == tuple(qi(2) * x for x in basis_vector(4, 3))


def test_lie_dim_zero_gives_trivial_calculus():
    spec = truncated_line_spec()
    trivial = ChevalleySpec(spec.algebra, 0, (), ())
    calc = build_chevalley(trivial)
    assert calc.one_forms.dim == 0
    assert calc.two_forms.dim == 0
    assert validate_calculus(calc).ok


def test_truncated_line_builder_shape():
    calc = build_chevalley(truncated_line_spec())
    assert calc.one_forms.dim == 3   # free of rank 1 over a 3-dim algebra
    assert calc.two_forms.dim == 0   # second exterior power of a line is zero


def test_presets_are_produced_through_the_lie_builder(fuzzy_preset):
    spec = matrix_derivations_chevalley(2)
    again = build_chevalley(spec)
    assert again.d0 == fuzzy_preset.calculus.d0
    assert again.wedge_plain == fuzzy_preset.calculus.wedge_plain


def test_torus_preset_properties(torus_preset, torus_geo):
    calc = torus_preset.calculus
    assert calc.algebra.dim == 9
    assert calc.one_forms.dim == 18
    # two commuting fields, free of rank 2 over the scalars' center
    assert torus_geo.fields.count == 2
    d1, d2 = torus_geo.fields.deltas
    assert d1 @ d2 == d2 @ d1


def test_every_builder_output_is_tame(fuzzy_preset, torus_preset):
    for preset in (fuzzy_preset, torus_preset):
        assert validate_calculus(preset.calculus).ok
        sigma = build_symmetry(preset.calculus)
        assert not isinstance(sigma, Refusal), sigma.detail
        m = validate_metric(preset.calculus, sigma, preset.metric_plain)
        assert not isinstance(m, Refusal), m.detail


def test_euclidean_metric_shape(fuzzy_preset):
    spec = matrix_derivations_chevalley(2)
    g = euclidean_metric_plain(spec)
    assert (g.rows, g.cols) == (4, 144)


def test_unshipped_sizes_rejected():
    with pytest.raises(ContractViolationError):
        matrix_derivations_chevalley(3)
    with pytest.raises(ContractViolationError):
        abelian_torus_chevalley(3)


def test_torus_n4_builds():
    spec = abelian_torus_chevalley(4)
    assert spec.algebra.dim == 25
    assert spec.lie_dim == 2  # two torus directions at every size
    assert spec.algebra.validate() is None
    assert validate_calculus(build_chevalley(spec)).ok


def _failed_items(spec: ChevalleySpec) -> dict:
    """Build spec, then certify it as `check` does: the algebra first, then
    the calculus axioms.  The failed items, by name, with their witnesses."""
    calc = build_chevalley(spec)
    assert calc.algebra.validate() is None
    return {item.name: item.witness for item in validate_calculus(calc) if not item.ok}


def test_invalid_action_is_rejected():
    # the identity is no derivation: d(1) = 1, so Leibniz fails at (1, 1)
    spec = truncated_line_spec()
    broken = ChevalleySpec(spec.algebra, 1, spec.brackets, (Matrix.identity(3),))
    assert _failed_items(broken) == {
        "d0_leibniz": "d(ab) != da.b + a.db at basis pair (1, 1)"}


def test_non_representing_actions_are_rejected(fuzzy_preset):
    # inner derivations with a zero bracket table: d1 d0 evaluates
    # [X_p, X_q] - X_[p,q], which is not zero
    spec = matrix_derivations_chevalley(2)
    z3 = zero_vector(3)
    flat = tuple(tuple(z3 for _ in range(3)) for _ in range(3))
    broken = ChevalleySpec(spec.algebra, 3, flat, spec.actions)
    failed = _failed_items(broken)
    assert failed["d_squared_zero"] == "d1 . d0 != 0"
    assert "d0_leibniz" not in failed


def test_tables_of_the_wrong_size_are_refused():
    spec = matrix_derivations_chevalley(2)
    with pytest.raises(ContractViolationError):
        ChevalleySpec(spec.algebra, 2, spec.brackets, spec.actions)
    with pytest.raises(ContractViolationError):
        ChevalleySpec(spec.algebra, 3, spec.brackets, spec.actions[:2])
    with pytest.raises(ContractViolationError):
        ChevalleySpec(spec.algebra, 3, spec.brackets[:2] + (spec.brackets[2][:2],), spec.actions)
    with pytest.raises(ContractViolationError):
        ChevalleySpec(spec.algebra, 1, ((zero_vector(1),),), (Matrix.identity(3),))


SHIPPED = {
    "matrix-derivations-2": lambda: matrix_derivations_chevalley(2),
    "abelian-torus-2": lambda: abelian_torus_chevalley(2),
    "abelian-torus-4": lambda: abelian_torus_chevalley(4),
    "fuzzy-sphere-2": lambda: load_perfbench("inputs").fuzzy_sphere_chevalley(2),
    "fuzzy-sphere-3": lambda: load_perfbench("inputs").fuzzy_sphere_chevalley(3),
}


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_bracket_tables_are_lie_algebras(name):
    # no command checks antisymmetry or Jacobi, so the tables are tested here
    assert lie_table_failure(SHIPPED[name]().brackets) is None


def test_lie_table_check_names_the_broken_identity():
    # the helper itself: a table that is not antisymmetric, and an
    # antisymmetric one whose Jacobi identity fails ([X_0, X_1] = X_0,
    # [X_1, X_2] = X_1, [X_0, X_2] = 0)
    one, z = qi(1), zero_vector(3)
    e = [tuple(one if k == i else qi(0) for k in range(3)) for i in range(3)]
    neg = [tuple(-x for x in v) for v in e]
    lopsided = ((z, e[0], z), (e[0], z, z), (z, z, z))
    assert lie_table_failure(lopsided) == (0, 1)
    broken = ((z, e[0], z), (neg[0], z, e[1]), (z, neg[1], z))
    assert lie_table_failure(broken) == (0, 1, 2)


def test_wedge_kills_relations_by_construction(fuzzy_preset):
    calc = fuzzy_preset.calculus
    for v in calc.tensor_square.relations.basis:
        assert all(x.is_zero() for x in calc.wedge_plain.apply(v))
