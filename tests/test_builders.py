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
from tamecalc.errors import ContractViolationError, InvalidActionError
from tamecalc.linalg import (
    Matrix,
    Subspace,
    basis_vector,
    qi,
    zero_vector,
)
from tamecalc.metric import validate_metric

from conftest import truncated_line_spec
from dense_reference import center


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
        outcome = build_symmetry(preset.calculus)
        assert outcome.ok, outcome.failure
        m = validate_metric(preset.calculus, outcome.certificate, preset.metric_plain)
        assert m.ok


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
    spec.validate()


def test_invalid_action_is_rejected():
    spec = truncated_line_spec()
    broken = ChevalleySpec(spec.algebra, 1, spec.brackets, (Matrix.identity(3),))
    with pytest.raises(InvalidActionError):
        build_chevalley(broken)


def test_non_representing_actions_are_rejected(fuzzy_preset):
    spec = matrix_derivations_chevalley(2)
    z3 = zero_vector(3)
    flat = tuple(tuple(z3 for _ in range(3)) for _ in range(3))
    broken = ChevalleySpec(spec.algebra, 3, flat, spec.actions)
    with pytest.raises(InvalidActionError):
        broken.validate()


def test_wedge_kills_relations_by_construction(fuzzy_preset):
    calc = fuzzy_preset.calculus
    for v in calc.tensor_square.relations.basis:
        assert all(x.is_zero() for x in calc.wedge_plain.apply(v))
