"""Algebra layer: structure constants, center, derivations.

The matrix-derivations preset is cross-checked against an independent
oracle: the concrete 2x2 representation U = diag(1, -1), V = offdiag(1, 1),
multiplied as honest matrices.
"""

import pytest

from conftest import certified
from dense_reference import center, contains_vector, from_rows, multiply_dense
from tamecalc.algebra import Algebra
from tamecalc.builders import matrix_derivations_chevalley
from tamecalc.linalg import (
    Matrix,
    Subspace,
    basis_vector,
    qi,
    zero_vector,
)


@pytest.fixture(scope="module")
def fuzzy():
    return certified(matrix_derivations_chevalley(2)).algebra


# Independent oracle: U, V, W=UV as 2x2 matrices; a coordinate vector
# (c0, c1, c2, c3) means c0*1 + c1*U + c2*V + c3*W.

def _rep(vec):
    u = ((qi(1), qi(0)), (qi(0), qi(-1)))
    v = ((qi(0), qi(1)), (qi(1), qi(0)))
    mats = [Matrix.identity(2), from_rows(u), from_rows(v),
            from_rows(u) @ from_rows(v)]
    out = Matrix.zeros(2, 2)
    for c, m in zip(vec, mats):
        out = out + m.scale(c)
    return out


def _rep_product_matches(alg, a, b):
    return _rep(multiply_dense(alg, a, b)) == _rep(a) @ _rep(b)


def test_preset_multiplication_against_matrix_oracle(fuzzy):
    one, u, v, w = (basis_vector(4, k) for k in range(4))
    assert multiply_dense(fuzzy, one, u) == u
    assert multiply_dense(fuzzy, u, v) == w
    assert multiply_dense(fuzzy, v, u) == tuple(-x for x in w)
    for i in range(4):
        for j in range(4):
            assert _rep_product_matches(fuzzy, basis_vector(4, i), basis_vector(4, j))


def test_preset_algebra_validates(fuzzy):
    assert fuzzy.validate() is None


def test_invalid_structure_constants_report_triple():
    z = zero_vector(2)
    e0, e1 = basis_vector(2, 0), basis_vector(2, 1)
    # x*x = 1 with unit e0 is non-associative together with x*1 = 0; the
    # unit law is checked first, and its failure comes back as the message
    mul = [[e0, z], [z, e0]]
    bad = Algebra(2, ("1", "x"), e0, mul)
    assert bad.validate() == "unit law fails on basis element x"
    assert not bad.validated


def test_center_of_matrix_algebra_is_scalars(fuzzy):
    # Schur-type check: only multiples of 1 commute with both U and V.
    assert center(fuzzy) == Subspace(4, [basis_vector(4, 0)])


def test_center_of_commutative_algebra_is_everything():
    # K[x]/(x^2): basis {1, x}, x^2 = 0.
    z = zero_vector(2)
    e0, e1 = basis_vector(2, 0), basis_vector(2, 1)
    alg = Algebra(2, ("1", "x"), e0, [[e0, e1], [e1, z]])
    assert alg.validate() is None
    assert center(alg).dim == 2


def test_center_of_base_field():
    e0 = basis_vector(1, 0)
    alg = Algebra(1, ("1",), e0, [[e0]])
    assert alg.validate() is None
    assert center(alg) == Subspace(1, [e0])


def test_zero_map_is_derivation(fuzzy):
    assert fuzzy.is_derivation(Matrix.zeros(4, 4))


def test_identity_map_is_not_derivation(fuzzy):
    # delta(1) = 1 != 0 already breaks Leibniz.
    assert not fuzzy.is_derivation(Matrix.identity(4))


def test_inner_maps_are_derivations(fuzzy):
    for k in range(4):
        assert fuzzy.is_derivation(fuzzy.ad(basis_vector(4, k)))


def test_ad_u_of_v_is_twice_w(fuzzy):
    u, v, w = basis_vector(4, 1), basis_vector(4, 2), basis_vector(4, 3)
    assert fuzzy.ad(u).apply(v) == tuple(qi(2) * x for x in w)


def test_center_is_closed_under_multiplication(fuzzy):
    zc = center(fuzzy)
    for a in zc.basis:
        for b in zc.basis:
            assert contains_vector(zc, multiply_dense(fuzzy, a, b))
