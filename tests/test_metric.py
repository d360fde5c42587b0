"""Metrics, V_g, the vector-field module, the squared metric, g-tilde."""

from random import Random

import pytest

import lemma_checks as lc
from conftest import GRAM_3, constant_metric_plain, load_perfbench
from dense_reference import (
    CertificateParts,
    center,
    central_basis,
    col,
    contains_vector,
    pure,
    quotient_metric,
    symmetrizer,
    vec_is_zero,
)
from perturbations import random_metric
from tamecalc.linalg import (
    Matrix,
    ONE,
    Subspace,
    _apply_sparse,
    basis_vector,
    vec_to_sparse,
    zero_vector,
)
from tamecalc.calculus import build_symmetry
from tamecalc.connection import Geometry
from tamecalc.errors import Refusal
from tamecalc.metric import validate_metric, vector_fields


@pytest.fixture(scope="module")
def fuzzy(fuzzy_preset, fuzzy_geo):
    return fuzzy_preset, fuzzy_geo.sigma


@pytest.fixture(scope="module")
def fuzzy_metric(fuzzy_geo):
    return fuzzy_geo.metric


@pytest.fixture(scope="module")
def fuzzy_fields(fuzzy_geo):
    return fuzzy_geo.fields


@pytest.fixture(scope="module")
def torus(torus_preset, torus_geo):
    return torus_preset, torus_geo.sigma, torus_geo.metric


# -- validation ---------------------------------------------------------------

def test_euclidean_metric_is_valid(fuzzy_metric):
    m = fuzzy_metric
    assert m.v_g @ m.v_g_inv == Matrix.identity(12)


def test_euclidean_metric_values_on_generators(fuzzy, fuzzy_metric):
    p, sigma = fuzzy
    qt = p.calculus.tensor_square
    theta = [basis_vector(12, j * 4) for j in range(3)]
    unit = p.calculus.algebra.unit
    for i in range(3):
        for j in range(3):
            got = quotient_metric(p.calculus, fuzzy_metric).apply(pure(qt, theta[i], theta[j]))
            assert got == (unit if i == j else zero_vector(4))


def test_zero_metric_rejected(fuzzy):
    p, sigma = fuzzy
    outcome = validate_metric(p.calculus, sigma, Matrix.zeros(4, 144))
    assert isinstance(outcome, Refusal)
    assert outcome.condition == "VgNotInvertible"


def test_asymmetric_metric_rejected(fuzzy):
    # Bilinear (fixed by its values on the central tensors) but with an
    # antisymmetric defect between theta_1 and theta_2, so g sigma != g.
    p, sigma = fuzzy
    alg = p.calculus.algebra
    unit = alg.unit
    coeff = [[unit if i == j else zero_vector(4) for j in range(3)] for i in range(3)]
    coeff[0][1] = unit
    coeff[1][0] = tuple(-x for x in unit)
    values = [vec_to_sparse(alg.right_basis_matrix(r).apply(coeff[pp][qq]))
              for pp in range(3) for qq in range(3) for r in range(alg.dim)]
    g = CertificateParts(p.calculus, sigma).spanning.extend(values, alg.dim)
    outcome = validate_metric(p.calculus, sigma, g @ p.calculus.tensor_square.project)
    assert isinstance(outcome, Refusal)
    assert outcome.condition == "NotSymmetric"
    # the witness is the first quotient basis vector where g sigma and g differ
    assert outcome.witness == {4: ONE}


def test_seeded_nonsymmetric_metric_witness(fuzzy):
    # a constant metric on the frame one-forms with c_01 != c_10, rescaled
    # by a seed: symmetric nowhere off the diagonal, so the first column of
    # g sigma - g names the failure
    from conftest import constant_metric_plain
    from tamecalc.builders import matrix_derivations_chevalley

    p, sigma = fuzzy
    k = Random(5).choice((2, -3, 5))
    c = [[k * x for x in row] for row in ((2, 1, -1), (-1, 3, 1), (-1, 1, 2))]
    g = constant_metric_plain(matrix_derivations_chevalley(2), c)
    outcome = validate_metric(p.calculus, sigma, g)
    assert outcome.condition == "NotSymmetric"
    assert outcome.witness == {4: ONE}


def fuzzy_euclidean_quotient(p, sigma):
    return p.metric_plain @ p.calculus.tensor_square.section


def test_non_bilinear_rejected(fuzzy):
    # bumped on quotient coordinates and fed on plain tensors, so it kills
    # the relations and fails on the action of the first generator
    p, sigma = fuzzy
    g = fuzzy_euclidean_quotient(p, sigma)
    rows = [list(r) for r in g.entries]
    rows[1][0] = rows[1][0] + ONE  # breaks left-linearity, keeps shape
    outcome = validate_metric(p.calculus, sigma,
                              Matrix(4, 36, rows) @ p.calculus.tensor_square.project)
    assert isinstance(outcome, Refusal)
    assert outcome.condition == "NotBilinear"
    assert outcome.detail == "metric is not left-linear"


def test_metric_on_quotient_coordinates_rejected(fuzzy):
    # the metric is taken on plain tensors only: any other column count,
    # the quotient's included, is a named refusal
    p, sigma = fuzzy
    outcome = validate_metric(p.calculus, sigma, fuzzy_euclidean_quotient(p, sigma))
    assert outcome.condition == "NotBilinear"
    assert outcome.detail == "metric has 36 columns; expected 144 (plain)"


def test_plain_matrix_not_killing_relations_rejected(fuzzy):
    p, sigma = fuzzy
    qt = p.calculus.tensor_square
    rel = qt.relations.basis[0]
    rows = [list(r) for r in p.metric_plain.entries]
    for col, v in enumerate(rel):
        rows[0][col] = rows[0][col] + v
    outcome = validate_metric(p.calculus, sigma, Matrix(4, 144, rows))
    assert isinstance(outcome, Refusal)
    assert outcome.condition == "NotBilinear"


def test_plain_metric_names_the_first_unkilled_relation(fuzzy):
    # relation 3 is the first one the tampered metric does not kill
    p, sigma = fuzzy
    qt = p.calculus.tensor_square
    rel = qt.relations.basis[3]
    rows = [list(r) for r in p.metric_plain.entries]
    for col, v in enumerate(rel):
        rows[0][col] = rows[0][col] + v
    outcome = validate_metric(p.calculus, sigma, Matrix(4, 144, rows))
    assert outcome.condition == "NotBilinear"
    assert outcome.detail == "metric on plain tensors does not kill the (x)_A relations"
    assert outcome.witness == {3: ONE, 36: -ONE}


# -- vector fields --------------------------------------------------------------

def test_fuzzy_vector_fields_are_inner_derivations(fuzzy, fuzzy_fields):
    p, sigma = fuzzy
    alg = p.calculus.algebra
    assert fuzzy_fields.count == 3
    # delta_{X_k} = ad of the k-th generator: the derivation-based picture.
    for k, gen in enumerate((1, 2, 3)):
        assert fuzzy_fields.deltas[k] == alg.ad(basis_vector(4, gen))


def test_fuzzy_fields_match_all_derivations(fuzzy, fuzzy_fields):
    # X(A) is isomorphic to Der(A) here: every derivation of the matrix
    # algebra is inner, spanned by ad U, ad V, ad W.
    p, sigma = fuzzy
    alg = p.calculus.algebra
    ad_span = Subspace(16, [tuple(x for row in alg.ad(basis_vector(4, k)).entries
                                  for x in row) for k in range(4)])
    field_span = Subspace(16, [tuple(x for row in d.entries for x in row)
                               for d in fuzzy_fields.deltas])
    assert ad_span.dim == 3
    assert field_span == ad_span


def test_torus_fields_rank_two(torus):
    p, sigma, metric = torus
    fields = vector_fields(p.calculus, metric)
    assert fields.count == 2
    # commuting derivations
    d1, d2 = fields.deltas
    assert d1 @ d2 == d2 @ d1


def test_field_count_is_center_times_lie_dimension(fuzzy_geo, torus_geo, line_geo):
    # in the Lie-action picture the fields form a free module over the
    # algebra center with one generator per acting direction
    cases = [(fuzzy_geo, 3), (torus_geo, 2), (line_geo, 1)]
    for geo, lie_dim in cases:
        z_dim = center(geo.calc.algebra).dim
        assert geo.fields.count == z_dim * lie_dim


def test_fields_values_on_central_forms_are_central(fuzzy, fuzzy_metric, fuzzy_fields):
    # X(eta) lands in the center of the algebra for central eta.
    p, sigma = fuzzy
    zc = center(p.calculus.algebra)
    for m in fuzzy_fields.maps:
        for z in central_basis(p.calculus):
            assert contains_vector(zc, m.apply(z))


def test_fields_are_right_total(fuzzy, fuzzy_fields):
    assert fuzzy_fields.generators.spans
    assert fuzzy_fields.generators.source.dim == 12


def test_delta_of_noncentral_dual_is_not_derivation(fuzzy, fuzzy_metric, fuzzy_geo):
    p, sigma = fuzzy
    alg = p.calculus.algebra
    fields = vector_fields(p.calculus, fuzzy_metric)
    # X_1 . U is right-total material but not central, so its delta fails Leibniz.
    phi = _apply_sparse(fuzzy_metric.e_star.bimodule.right[1], fields.basis[0])
    assert not fields.contains(phi)
    assert not alg.is_derivation(fuzzy_geo.dual(phi).delta)
    assert all(alg.is_derivation(fuzzy_geo.dual(x).delta) for x in fields.basis)


# -- metric square ---------------------------------------------------------------

@pytest.fixture(scope="module")
def fuzzy_square(fuzzy, fuzzy_metric):
    p, sigma = fuzzy
    return lc.metric_square(p.calculus, sigma, fuzzy_metric)


def test_metric_square_euclidean_values(fuzzy, fuzzy_metric, fuzzy_square):
    # g2((theta_i (x) theta_j) (x) (theta_k (x) theta_l)) = delta_jk delta_il
    p, sigma = fuzzy
    qt = p.calculus.tensor_square
    unit = p.calculus.algebra.unit
    theta = [basis_vector(12, j * 4) for j in range(3)]
    for i in range(3):
        for j in range(3):
            x = pure(qt, theta[i], theta[j])
            for k in range(3):
                for l in range(3):
                    y = pure(qt, theta[k], theta[l])
                    got = fuzzy_square.pairing(x, y)
                    want = unit if (j == k and i == l) else zero_vector(4)
                    assert got == want


def test_metric_square_of_zero(fuzzy_square):
    assert vec_is_zero(fuzzy_square.pairing(zero_vector(36), basis_vector(36, 5)))


def test_metric_square_symmetrizer_identity(fuzzy, fuzzy_square):
    # the symmetrizer can hop across the squared pairing
    p, sigma = fuzzy
    p_sym = symmetrizer(p.calculus, sigma)
    n = 36
    for x in range(0, n, 7):
        px = p_sym.apply(basis_vector(n, x))
        for y in range(0, n, 5):
            py = p_sym.apply(basis_vector(n, y))
            lhs = fuzzy_square.pairing(px, basis_vector(n, y))
            rhs = fuzzy_square.pairing(basis_vector(n, x), py)
            assert lhs == rhs


def test_metric_square_invertible(fuzzy_square):
    assert fuzzy_square.v_g2 @ fuzzy_square.v_g2_inv == Matrix.identity(36)


# -- g-tilde ---------------------------------------------------------------------

def test_g_tilde_euclidean_on_fields(fuzzy, fuzzy_geo, fuzzy_fields):
    p, sigma = fuzzy
    unit = p.calculus.algebra.unit
    for i in range(3):
        for j in range(3):
            got = lc.gt(fuzzy_geo, fuzzy_fields.basis[i], fuzzy_fields.basis[j])
            assert got == (unit if i == j else zero_vector(4))


def test_g_tilde_zero_argument(fuzzy_geo, fuzzy_fields):
    assert vec_is_zero(lc.gt(fuzzy_geo, fuzzy_fields.basis[0], {}))


def test_g_tilde_evaluation_identity(fuzzy_geo, fuzzy_metric):
    # phi(V_g^{-1} psi) = g~(phi (x) psi) for arbitrary dual pairs
    m = fuzzy_metric
    for i in (0, 3, 7, 11):
        phim = m.e_star.matrix_of({i: ONE})
        for j in (0, 5, 9):
            lhs = phim.apply(col(m.v_g_inv, j))
            assert lhs == lc.gt(fuzzy_geo, {i: ONE}, {j: ONE})


def test_g_tilde_symmetric_when_one_leg_is_field(fuzzy_geo, fuzzy_fields):
    for x in fuzzy_fields.basis:
        for j in (0, 5, 9):
            assert lc.gt(fuzzy_geo, x, {j: ONE}) == lc.gt(fuzzy_geo, {j: ONE}, x)


# -- seeded metrics ---------------------------------------------------------------

def test_random_metric_is_valid_and_deterministic(fuzzy):
    p, sigma = fuzzy
    g1 = random_metric(p.calculus, sigma, seed=7)
    g2 = random_metric(p.calculus, sigma, seed=7)
    assert g1 == g2
    outcome = validate_metric(p.calculus, sigma, g1)
    assert not isinstance(outcome, Refusal)
    assert g1 != p.metric_plain


def test_random_metric_varies_with_seed(fuzzy):
    p, sigma = fuzzy
    assert random_metric(p.calculus, sigma, seed=1) != random_metric(p.calculus, sigma, seed=2)


# -- the fields are the central generators through V_g -----------------------------

@pytest.fixture(scope="module")
def fuzzy3_a3_geo(fuzzy3_calc):
    """fuzzy-sphere-3 under the benchmark's constant metric A3 (GRAM_3)."""
    spec = load_perfbench("inputs").fuzzy_sphere_chevalley(3)
    sigma = build_symmetry(fuzzy3_calc)
    metric = validate_metric(fuzzy3_calc, sigma, constant_metric_plain(spec, GRAM_3))
    return Geometry(fuzzy3_calc, sigma, metric)


@pytest.mark.parametrize("name", ["fuzzy_geo", "torus_geo", "fuzzy3_a3_geo", "line_geo"])
def test_fields_pull_back_to_the_central_generators(request, name):
    # X_p = V_g(z_p), so V_g^{-1} X_p is z_p itself, and g_tilde(X_p, X_q)
    # is the metric on the central tensor pi(z_p (x) z_q) through the
    # quotient, whatever pair_forms computes
    geo = request.getfixturevalue(name)
    qt = geo.calc.tensor_square
    zs = geo.calc.one_forms.central_generators.zs
    g = geo.metric.g_plain @ qt.section
    assert geo.fields.count == len(zs)
    for p, x in enumerate(geo.fields.basis):
        assert geo.metric.form_of(x) == zs[p]
    for p, zp in enumerate(zs):
        for q, zq in enumerate(zs):
            assert geo.field_gram[p][q] == _apply_sparse(g, qt.pure_sparse(zp, zq))
