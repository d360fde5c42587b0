"""The structural identity suite, exact on every prepared geometry.

Each test pins one identity of the underlying theory on an exhaustive basis
family: symmetry flips, centrality of metric values, the vector-field
characterizations, the covariant-derivative module axioms, and the
translation rules the Koszul formula leans on.  The commutative fixture
exercises the identities whose content is only visible when the algebra
center is bigger than the scalars.
"""

import pytest

import lemma_checks as lc
from dense_reference import central_basis, grassmann, nabla_zero


@pytest.fixture(scope="module", params=["fuzzy", "torus"])
def geo(request, fuzzy_geo, torus_geo):
    return fuzzy_geo if request.param == "fuzzy" else torus_geo


@pytest.fixture(scope="module")
def square(geo):
    return lc.metric_square(geo.calc, geo.sigma, geo.metric)


def test_symmetry_flips_with_one_central_leg(geo):
    assert lc.sigma_flips_one_central(geo)


def test_metric_symmetric_with_one_central_leg(geo):
    assert lc.metric_symmetric_one_central(geo)


def test_metric_values_on_central_pairs_are_central(geo):
    assert lc.central_pair_values_central(geo)


def test_differentials_of_central_scalars_are_central(geo):
    assert lc.central_scalar_differentials_central(geo)


def test_squared_metric_contraction_matches_field_tensor(geo, square):
    assert lc.squared_contraction_matches_field_tensor(
        geo.metric, central_basis(geo.calc), geo.calc.tensor_square, square)


def test_squared_metric_symmetric_on_fixed_vectors(geo, square):
    assert lc.squared_pairing_on_fixed_vectors_symmetric(geo, square)


def test_squared_metric_symmetrizer_hops(geo, square):
    assert lc.squared_pairing_symmetrizer_hops(geo, square)


def test_field_values_on_central_forms_are_central(geo):
    assert lc.fields_values_on_central_forms_central(geo)


def test_fields_are_exactly_the_dual_center(geo):
    assert lc.fields_equal_dual_center(geo)


def test_fields_are_right_total_and_center_stable(geo):
    assert lc.fields_right_total(geo)


def test_derivations_are_exactly_the_fields(geo):
    assert lc.derivation_exactly_on_fields(geo)


def test_antisymmetrized_reference_kills_exact_forms(geo):
    assert lc.antisymmetrized_reference_kills_exact_forms(geo)


def test_covariant_derivative_axioms(geo):
    assert lc.covariant_derivative_axioms(geo, nabla_zero(geo.calc, geo.sigma))


def test_covariant_derivative_axioms_on_commutative_fixture(line_geo):
    # the center here is the whole algebra, so the module rules bite
    conn = grassmann(line_geo.calc, line_geo.sigma)
    assert lc.covariant_derivative_axioms(line_geo, conn)


def test_reconstruction_data_center_linear(geo):
    assert lc.t_tilde_right_center_linear(geo, nabla_zero(geo.calc, geo.sigma))


def test_reconstruction_data_center_linear_commutative(line_geo):
    conn = grassmann(line_geo.calc, line_geo.sigma)
    assert lc.t_tilde_right_center_linear(line_geo, conn)


def test_dual_pairing_central_and_symmetric(geo):
    assert lc.dual_pairing_central_and_symmetric(geo)


def test_delta_translation_identity(geo):
    assert lc.delta_translation_identity(geo)


def test_pairing_evaluation_identity(geo):
    assert lc.pairing_evaluation_identity(geo)
