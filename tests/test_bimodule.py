"""Bimodules: tensor quotients, hom modules, centers, centeredness."""

import hashlib

import pytest

from conftest import certified
from dense_reference import (
    center,
    contains_vector,
    from_cols,
    left_action,
    lift,
    multiply_dense,
    pure,
    right_action,
)
from tamecalc.algebra import Algebra
from tamecalc.bimodule import (
    Bimodule,
    dual_module,
    hom_A,
    missing_direction,
    module_center,
    pair_apply,
    tensor_over_A,
)
from tamecalc.builders import build_chevalley, matrix_derivations_chevalley
from tamecalc.errors import ContractViolationError
from tamecalc.specfile import dumps_canonical, matrix_to_json
from tamecalc.linalg import (
    ColumnSolver,
    Matrix,
    ONE,
    Subspace,
    basis_vector,
    vec_to_sparse,
    zero_vector,
)


@pytest.fixture(scope="module")
def fuzzy():
    return certified(matrix_derivations_chevalley(2))


@pytest.fixture(scope="module")
def fuzzy_calc(fuzzy):
    return build_chevalley(fuzzy)


def commutative_pair_algebra():
    """K[x]/(x^2 - 1), isomorphic to K x K, with the sign automorphism."""
    e0, e1 = basis_vector(2, 0), basis_vector(2, 1)
    alg = Algebra(2, ("1", "x"), e0, [[e0, e1], [e1, e0]])
    assert alg.validate() is None
    return alg


# -- validation ---------------------------------------------------------------

def test_regular_bimodule_validates(fuzzy):
    assert Bimodule.regular(fuzzy.algebra).validate() is None


def test_one_forms_bimodule_validates(fuzzy_calc):
    assert fuzzy_calc.one_forms.validate() is None


def test_broken_action_is_rejected(fuzzy):
    alg = fuzzy.algebra
    reg = Bimodule.regular(alg)
    left = list(reg.left)
    left[1] = Matrix.zeros(4, 4)  # U no longer acts multiplicatively
    bad = Bimodule(alg, 4, left, list(reg.right))
    assert bad.validate() == "bimodule: (ab)e != a(be) at basis pair (1, 1)"
    assert not bad.validated


def bumped(m, r, c):
    rows = [list(x) for x in m.entries]
    rows[r][c] = rows[r][c] + ONE
    return Matrix(m.rows, m.cols, rows)


@pytest.mark.parametrize("preset, pair", [("fuzzy_preset", (1, 1)), ("torus_preset", (1, 0))])
def test_tampered_right_action_names_its_pair(preset, pair, request):
    e = request.getfixturevalue(preset).calculus.one_forms
    right = list(e.right)
    right[1] = bumped(right[1], 0, 0)
    msg = Bimodule(e.algebra, e.dim, e.left, right).validate()
    assert msg == f"bimodule: e(ab) != (ea)b at basis pair {pair}"


@pytest.mark.parametrize("preset, pair", [("fuzzy_preset", (1, 1)), ("torus_preset", (1, 0))])
def test_tampered_left_action_names_its_pair(preset, pair, request):
    e = request.getfixturevalue(preset).calculus.one_forms
    left = list(e.left)
    left[1] = bumped(left[1], 0, 0)
    msg = Bimodule(e.algebra, e.dim, left, e.right).validate()
    assert msg == f"bimodule: (ab)e != a(be) at basis pair {pair}"


@pytest.mark.parametrize("preset, pair", [("fuzzy_preset", (1, 1)), ("torus_preset", (1, 0))])
def test_conjugated_right_action_breaks_commutation(preset, pair, request):
    # P R_a P^-1 is still a right action, but no longer commutes with L_a
    e = request.getfixturevalue(preset).calculus.one_forms
    p = bumped(Matrix.identity(e.dim), 0, 1)
    p_inv = p.inverse()
    right = [p @ m @ p_inv for m in e.right]
    msg = Bimodule(e.algebra, e.dim, e.left, right).validate()
    assert msg == f"bimodule: (a e) b != a (e b) at basis pair {pair}"


# -- tensor products ----------------------------------------------------------

def test_tensor_regular_with_itself_collapses(fuzzy):
    reg = Bimodule.regular(fuzzy.algebra)
    qt = tensor_over_A(reg, reg)
    assert qt.dim == fuzzy.algebra.dim


def test_tensor_of_free_modules_has_free_rank():
    alg = commutative_pair_algebra()
    reg = Bimodule.regular(alg)
    # Free right module of rank 2: direct sum of two copies of A.
    eye = Matrix.identity(2)
    free2 = Bimodule(alg, 4,
                     [kron2(reg.left[i]) for i in range(2)],
                     [kron2(reg.right[i]) for i in range(2)])
    assert free2.validate() is None
    qt = tensor_over_A(free2, free2)
    assert qt.dim == 2 * 2 * alg.dim


def kron2(m):
    from tamecalc.linalg import kronecker

    return kronecker(Matrix.identity(2), m)


def test_tensor_square_of_one_forms_dimension(fuzzy_calc):
    # Free of rank 3 over a 4-dimensional algebra: 3*3*4.
    qt = fuzzy_calc.tensor_square
    assert qt.dim == 36
    assert fuzzy_calc.one_forms.dim == 12


def test_project_section_round_trip(fuzzy_calc):
    qt = fuzzy_calc.tensor_square
    assert qt.project @ qt.section == Matrix.identity(qt.dim)
    # section(project(x)) differs from x by a relation
    for j in range(0, qt.ambient_dim, 17):
        x = basis_vector(qt.ambient_dim, j)
        diff = tuple(a - b for a, b in zip(qt.section.apply(qt.project.apply(x)), x))
        assert contains_vector(qt.relations, diff)


def _digest(matrices):
    text = "".join(dumps_canonical(matrix_to_json(m)) for m in matrices)
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the canonical JSON of project, section and the quotient actions
# (all left actions concatenated, then all right actions) of the tensor
# square of the one-forms, default presets
GOLDEN_TENSOR_SQUARE = {
    "fuzzy_preset": {
        "project": "642d6fd36161136d20dea1dfa076a0890415fb7bfee4b888d58b927f4a3e61d2",
        "section": "f9812a677c44d8087b2b356408d9efd1419f0ccc8e2f38da480733b672dfff76",
        "left": "c443af27784ba36a33213097ea8043092950c88b14ba178afe93bd3477b6153e",
        "right": "09457c0b2d73d8c655c4cff873045495eb095b65a3f89d047619e72b0a297d99",
    },
    "torus_preset": {
        "project": "d707f9f2f5f1738789439e60a81aa435080f73fd137a604011e142abbcf9b7c7",
        "section": "a66f94b23c582b37abdd9600a715549afed76287ea4b8e74e432437580a8ef6e",
        "left": "9d17b5c02bfd1020746f767fd0261699a6b1a61f19cd6b0f76ce623490f591b4",
        "right": "bcf44462ac7b55ea7104e0f07cff3ea2d4d8ba8c539bdc596a3763962d42956b",
    },
}


@pytest.mark.parametrize("preset", sorted(GOLDEN_TENSOR_SQUARE))
def test_tensor_square_matches_golden_digests(preset, request):
    qt = request.getfixturevalue(preset).calculus.tensor_square
    got = {
        "project": _digest([qt.project]),
        "section": _digest([qt.section]),
        "left": _digest(qt.bimodule.left),
        "right": _digest(qt.bimodule.right),
    }
    assert got == GOLDEN_TENSOR_SQUARE[preset]


def test_quotient_bimodule_axioms(fuzzy_calc):
    assert fuzzy_calc.tensor_square.bimodule.validate() is None


def test_middle_linearity_in_the_quotient(fuzzy_calc):
    qt = fuzzy_calc.tensor_square
    e = fuzzy_calc.one_forms
    for s in (0, 5, 11):
        for i in range(4):
            for t in (0, 7):
                ea = e.right[i].apply(basis_vector(e.dim, s))
                af = e.left[i].apply(basis_vector(e.dim, t))
                lhs = pure(qt, ea, basis_vector(e.dim, t))
                rhs = pure(qt, basis_vector(e.dim, s), af)
                assert lhs == rhs


def test_tensor_associativity_on_triples():
    # (A (x) A) (x) A and A (x) (A (x) A) have the same dimension and the
    # canonical rebracketing matches on pure tensors.
    alg = commutative_pair_algebra()
    reg = Bimodule.regular(alg)
    t2 = tensor_over_A(reg, reg)
    left_assoc = tensor_over_A(t2.bimodule, reg)
    right_assoc = tensor_over_A(reg, t2.bimodule)
    assert left_assoc.dim == right_assoc.dim == alg.dim
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                a, b, c = (basis_vector(alg.dim, m) for m in (i, j, k))
                lhs = pure(left_assoc, pure(t2, a, b), c)
                rhs = pure(right_assoc, a, pure(t2, b, c))
                # both equal the class of abc under the unit identifications
                abc = multiply_dense(alg, multiply_dense(alg, a, b), c)
                assert lhs == pure(left_assoc, pure(t2, abc, alg.unit), alg.unit)
                assert rhs == pure(right_assoc, abc, pure(t2, alg.unit, alg.unit))


# -- hom modules --------------------------------------------------------------

def test_hom_regular_to_regular_is_left_multiplications(fuzzy):
    reg = Bimodule.regular(fuzzy.algebra)
    h = hom_A(reg, reg)
    assert h.dim == fuzzy.algebra.dim
    # every basis map commutes with all right multiplications
    for t in h.basis:
        for i in range(4):
            assert t @ reg.right[i] == reg.right[i] @ t


def test_dual_of_free_module_dimension(fuzzy_calc):
    h = dual_module(fuzzy_calc.one_forms)
    assert h.dim == 12  # rank 3 times dim A


def test_dual_of_regular_is_regular_sized():
    alg = commutative_pair_algebra()
    assert dual_module(Bimodule.regular(alg)).dim == alg.dim


def test_hom_from_a_source_that_is_not_centered_raises():
    # K x K acting on K through its two characters: a . v = a_1 v and
    # v . a = a_2 v, so no nonzero v is central and the center generates
    # nothing; a right-linear map is not fixed by central generators.
    e0, e1 = basis_vector(2, 0), basis_vector(2, 1)
    alg = Algebra(2, ("p", "q"), (ONE, ONE), [[e0, zero_vector(2)], [zero_vector(2), e1]])
    assert alg.validate() is None
    one, zero = Matrix.identity(1), Matrix.zeros(1, 1)
    e = Bimodule(alg, 1, [one, zero], [zero, one])
    assert e.validate() is None
    assert not e.central_generators.spans and missing_direction(e) == {0: ONE}
    for build in (lambda: hom_A(e, Bimodule.regular(alg)), lambda: dual_module(e)):
        with pytest.raises(ContractViolationError) as err:
            build()
        assert err.value.witness == missing_direction(e)


def test_hom_actions_match_pointwise_rule(fuzzy_calc):
    # (aT)(f) = a T(f) and (Ta)(f) = T(af) on basis elements.
    e = fuzzy_calc.one_forms
    alg = fuzzy_calc.algebra
    h = dual_module(e)
    for s in (0, 3, 8):
        t = h.basis[s]
        coords = basis_vector(h.dim, s)
        for i in range(alg.dim):
            at = h.matrix_of(vec_to_sparse(h.bimodule.left[i].apply(coords)))
            ta = h.matrix_of(vec_to_sparse(h.bimodule.right[i].apply(coords)))
            for j in (0, 5, 11):
                f = basis_vector(e.dim, j)
                assert at.apply(f) == multiply_dense(alg, basis_vector(alg.dim, i), t.apply(f))
                assert ta.apply(f) == t.apply(e.left[i].apply(f))


# -- centers and centeredness -------------------------------------------------

def test_center_of_regular_bimodule_is_algebra_center(fuzzy):
    reg = Bimodule.regular(fuzzy.algebra)
    assert module_center(reg) == center(fuzzy.algebra)


def test_chevalley_dual_generators_are_central(fuzzy_calc):
    # theta_j has scalar values on the acting fields, hence lies in the center.
    z = module_center(fuzzy_calc.one_forms)
    for j in range(3):
        theta_j = basis_vector(12, j * 4)  # phi_{j, alpha=unit}
        assert contains_vector(z, theta_j)
    assert z.dim == 3


def test_center_with_counit_twisted_left_action():
    # a . e = eps(a) e for the counit eps(1)=1, eps(x)=0 on K[x]/(x^2).
    e0, e1 = basis_vector(2, 0), basis_vector(2, 1)
    alg = Algebra(2, ("1", "x"), e0, [[e0, e1], [e1, zero_vector(2)]])
    assert alg.validate() is None
    reg = Bimodule.regular(alg)
    twisted = Bimodule(alg, 2, [Matrix.identity(2), Matrix.zeros(2, 2)], list(reg.right))
    assert twisted.validate() is None
    # center = {e : e.a = eps(a) e} = annihilator of x on the right = span{x}
    assert module_center(twisted) == Subspace(2, [e1])


def test_regular_bimodule_is_centered(fuzzy):
    assert Bimodule.regular(fuzzy.algebra).central_generators.spans


def test_free_module_with_central_basis_is_centered(fuzzy_calc):
    assert fuzzy_calc.one_forms.central_generators.spans


def test_sign_twisted_module_is_not_centered():
    alg = commutative_pair_algebra()
    reg = Bimodule.regular(alg)
    # a . e = sigma(a) e with sigma(x) = -x; sigma is outer with trivial
    # invariants beyond scalars, and the center collapses to zero.
    twisted = Bimodule(alg, 2, [reg.left[0], -reg.left[1]], list(reg.right))
    assert twisted.validate() is None
    assert not twisted.central_generators.spans
    assert missing_direction(twisted) is not None


def test_centered_module_central_elements_commute_with_algebra_center(fuzzy_calc):
    # a e = e a for central a once the module is centered.
    e = fuzzy_calc.one_forms
    zc_alg = center(fuzzy_calc.algebra)
    for a in zc_alg.basis:
        la = left_action(e, a)
        ra = right_action(e, a)
        assert la == ra


def test_quotient_center_contains_central_pure_tensors(fuzzy_calc):
    qt = fuzzy_calc.tensor_square
    zt = module_center(qt.bimodule)
    ze = module_center(fuzzy_calc.one_forms)
    for z1 in ze.basis:
        for z2 in ze.basis:
            assert contains_vector(zt, pure(qt, z1, z2))


# -- decomposition and pairing ------------------------------------------------

def right_span_columns(e, vectors):
    """The spanning family {v . a_r} for v in vectors, a_r an algebra basis."""
    return [e.right[r].apply(v) for v in vectors for r in range(e.algebra.dim)]


def central_decomposition(qt, x):
    """Rewrite a class of E (x)_A F as sum_i  e_i (x) h_i with h_i central in F.

    Possible exactly when F is centered; fails loudly otherwise.
    """
    f = qt.right_factor
    if not f.central_generators.spans:
        raise ContractViolationError(
            "central_decomposition: right factor is not centered", witness=missing_direction(f))
    zbasis = list(module_center(f).basis)
    solver = ColumnSolver(from_cols(right_span_columns(f, zbasis), f.dim))
    nA = f.algebra.dim
    fdim = f.dim
    firsts = {}
    for idx, c in lift(qt, x).items():
        s, t = divmod(idx, fdim)
        rep_t = solver.solve({t: ONE})
        assert rep_t is not None, "centered module failed to span itself"
        for pos, coef in rep_t.items():
            q, r = divmod(pos, nA)
            # e_s (x) z_q a_r  ==  (e_s . a_r) (x) z_q  since z_q is central
            piece = qt.left_factor.right[r].apply(basis_vector(qt.left_factor.dim, s))
            piece = tuple((c * coef) * v for v in piece)
            cur = firsts.get(q)
            firsts[q] = tuple(u + v for u, v in zip(cur, piece)) if cur is not None else piece
    return [(first, zbasis[q]) for q, first in sorted(firsts.items())]


def test_central_decomposition_round_trip(fuzzy_calc):
    qt = fuzzy_calc.tensor_square
    for j in (0, 9, 23, 35):
        x = basis_vector(qt.dim, j)
        pieces = central_decomposition(qt, x)
        rebuilt = zero_vector(qt.dim)
        for first, central in pieces:
            rebuilt = tuple(a + b for a, b in zip(rebuilt, pure(qt, first, central)))
        assert rebuilt == x


def test_pair_apply_on_regular_tensor(fuzzy):
    alg = fuzzy.algebra
    reg = Bimodule.regular(alg)
    qt = tensor_over_A(reg, reg)
    ident = Matrix.identity(4)  # the identity functional A -> A
    x = pure(qt, basis_vector(4, 1), basis_vector(4, 2))  # class of U (x) V
    got = pair_apply(qt, ident, ident, vec_to_sparse(x))
    assert got == {3: ONE}  # U * V = W
