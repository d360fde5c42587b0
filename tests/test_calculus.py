"""Calculus axioms and the constructive tameness certificate."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from calculi import quotient_calculus, two_point_graph, without_two_forms
from conftest import certified, line_calculus, load_perfbench, validated
from dense_reference import (
    CertificateParts,
    central_basis,
    col,
    failures,
    from_rows,
    pure,
    q_inverse,
    vec_is_zero,
    wedge_of,
)
from tamecalc.algebra import Algebra
from tamecalc.bimodule import Bimodule, dual_module, module_center, pair_apply
from tamecalc.builders import (
    ChevalleySpec,
    abelian_torus_chevalley,
    build_chevalley,
    matrix_derivations_chevalley,
    preset_abelian_torus,
    preset_matrix_derivations,
)
from tamecalc.calculus import (
    Calculus,
    build_symmetry,
    validate_calculus,
)
from tamecalc.errors import InternalInconsistencyError, Refusal
from tamecalc.linalg import (
    HALF,
    Matrix,
    ONE,
    ZERO,
    _lincomb,
    basis_vector,
    qi,
    sparse_to_vec,
    vec_to_sparse,
    zero_vector,
)


@pytest.fixture(scope="module")
def fuzzy_spec():
    return certified(matrix_derivations_chevalley(2))


@pytest.fixture(scope="module")
def fuzzy(fuzzy_spec):
    return validated(build_chevalley(fuzzy_spec))


@pytest.fixture(scope="module")
def fuzzy_sigma(fuzzy):
    sigma = build_symmetry(fuzzy)
    assert not isinstance(sigma, Refusal), sigma.detail
    return sigma


@pytest.fixture(scope="module")
def fuzzy_parts(fuzzy, fuzzy_sigma):
    return CertificateParts(fuzzy, fuzzy_sigma)


def truncated_line_chevalley():
    """A = K[x]/(x^3) with the one-dimensional Lie algebra x d/dx."""
    dim = 3
    z = zero_vector(dim)
    e = [basis_vector(dim, k) for k in range(dim)]
    mul = [[z] * dim for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            if a + b < dim:
                mul[a][b] = e[a + b]
    alg = Algebra(dim, ("1", "x", "x^2"), e[0], mul)
    assert alg.validate() is None
    euler = from_rows([
        (ZERO, ZERO, ZERO),
        (ZERO, ONE, ZERO),
        (ZERO, ZERO, qi(2)),
    ])
    return ChevalleySpec(alg, 1, ((z[:1],),), (euler,))


# -- validation ---------------------------------------------------------------

def test_fuzzy_calculus_passes_all_checks(fuzzy):
    report = validate_calculus(fuzzy)
    assert report.ok, failures(report)


def test_d1_matches_direct_formula_oracle(fuzzy_spec, fuzzy):
    # Independent evaluation: dphi(X_p, X_q) = X_p(phi(X_q)) - X_q(phi(X_p))
    # - phi([X_p, X_q]), computed through the actions, never through d1.
    alg = fuzzy_spec.algebra
    nA, nL = alg.dim, fuzzy_spec.lie_dim
    pairs = [(0, 1), (0, 2), (1, 2)]
    for j in range(nL):
        for alpha in range(nA):
            d1_col = col(fuzzy.d1, j * nA + alpha)

            def phi(vec_l):  # the functional phi_{j, alpha} on L coordinates
                out = zero_vector(nA)
                c = vec_l[j]
                if not c.is_zero():
                    out = tuple(c * x for x in basis_vector(nA, alpha))
                return out

            for m, (p, q) in enumerate(pairs):
                val = fuzzy_spec.actions[p].apply(phi(basis_vector(nL, q)))
                val = tuple(x - y for x, y in zip(
                    val, fuzzy_spec.actions[q].apply(phi(basis_vector(nL, p)))))
                val = tuple(x - y for x, y in zip(val, phi(fuzzy_spec.brackets[p][q])))
                assert d1_col[m * nA:(m + 1) * nA] == val


def test_tampered_d1_reports_graded_leibniz(fuzzy):
    broken = Calculus(fuzzy.algebra, fuzzy.one_forms, fuzzy.two_forms,
                      fuzzy.d0, Matrix.zeros(12, 12), fuzzy.wedge_plain)
    report = validate_calculus(broken)
    names = {item.name for item in failures(report)}
    assert "graded_leibniz" in names
    assert "d_squared_zero" not in names  # 0 after d0 is still 0


def with_wedge_bumped(calc, r, c):
    rows = [list(x) for x in calc.wedge_plain.entries]
    rows[r][c] = rows[r][c] + ONE
    return Calculus(calc.algebra, calc.one_forms, calc.two_forms, calc.d0, calc.d1,
                    Matrix(calc.wedge_plain.rows, calc.wedge_plain.cols, rows))


@pytest.mark.parametrize("preset, entry, witness", [
    ("fuzzy_preset", (0, 5), "wedge(e (x) f a) != wedge(e (x) f) a at (a=U, 0, 4)"),
    ("torus_preset", (0, 5), "wedge(e (x) f a) != wedge(e (x) f) a at (a=E11, 0, 5)"),
    ("fuzzy_preset", (0, 0), "wedge(a e (x) f) != a wedge(e (x) f) at (a=U, 0, 0)"),
    ("torus_preset", (3, 0), "wedge(a e (x) f) != a wedge(e (x) f) at (a=E11, 0, 0)"),
])
def test_tampered_wedge_names_its_witness(preset, entry, witness, request):
    calc = with_wedge_bumped(request.getfixturevalue(preset).calculus, *entry)
    failed = {item.name: item.witness for item in failures(validate_calculus(calc))}
    assert failed["wedge_bimodule_map"] == witness
    assert failed["wedge_middle_linear"] == \
        "wedge does not vanish on the (x)_A relation subspace"


def test_wedge_of_matches_plain_tensor_product(fuzzy):
    # wedge(e (x) f) is the wedge matrix applied to the Kronecker coordinates
    n = fuzzy.one_forms.dim
    for i, j in ((0, 1), (1, 3), (2, 2)):
        e_vec, f_vec = col(fuzzy.d0, i), col(fuzzy.d0, j)
        plain = tuple(e_vec[s] * f_vec[t] for s in range(n) for t in range(n))
        got = _lincomb(fuzzy.wedge_terms(vec_to_sparse(e_vec), vec_to_sparse(f_vec)))
        assert sparse_to_vec(got, fuzzy.two_forms.dim) == fuzzy.wedge_plain.apply(plain)


def test_zero_calculus_passes():
    alg = truncated_line_chevalley().algebra
    zero_bim = Bimodule.zero(alg)
    calc = Calculus(alg, zero_bim, zero_bim,
                    Matrix.zeros(0, alg.dim), Matrix.zeros(0, 0), Matrix.zeros(0, 0))
    assert validate_calculus(calc).ok


def test_truncated_line_calculus_axioms():
    # Commutative fixture: everything holds except the span of exact forms;
    # derivations of a commutative finite-dimensional algebra land in the
    # radical, so da.b combinations miss the constant functional direction.
    calc = build_chevalley(truncated_line_chevalley())
    report = validate_calculus(calc)
    failed = {item.name for item in failures(report)}
    assert failed == {"one_forms_spanned_by_exact_forms"}
    assert calc.one_forms.dim == 3  # free of rank 1
    assert calc.two_forms.dim == 0


def test_torus_calculus_passes():
    calc = build_chevalley(certified(abelian_torus_chevalley(2)))
    assert validate_calculus(calc).ok
    assert calc.algebra.dim == 9
    assert calc.one_forms.dim == 18
    assert calc.two_forms.dim == 9


# -- tameness certificate -------------------------------------------------------

def test_fuzzy_certificate_dimensions(fuzzy_parts):
    assert fuzzy_parts.kernel_wedge.dim == 24
    assert fuzzy_parts.complement_f.dim == 12
    assert fuzzy_parts.tensor_square.dim == 36
    assert all(fuzzy_parts.flags.values())


def test_truncated_line_certificate_is_trivial():
    calc = line_calculus()
    sigma = build_symmetry(calc)
    assert not isinstance(sigma, Refusal)
    parts = CertificateParts(calc, sigma)
    n = parts.tensor_square.dim
    assert sigma == Matrix.identity(n)
    assert parts.p_sym == Matrix.identity(n)
    assert parts.complement_f.dim == 0


def test_not_centered_is_reported():
    # the graph calculus on two points is valid, and no nonzero one-form
    # is central: the first direction outside the (zero) span is e_0
    calc = validated(two_point_graph())
    assert central_basis(calc) == ()
    refusal = build_symmetry(calc)
    assert isinstance(refusal, Refusal)
    assert refusal.condition == "NotCentered"
    assert refusal.witness == {0: ONE}


def test_wedge_kernel_mismatch_is_reported(fuzzy):
    # with no two-forms the calculus stays valid and ker(wedge) is
    # everything, but the flip still fixes only the symmetric part, so
    # the symmetrizer image cannot match
    flat = validated(without_two_forms(fuzzy.algebra, fuzzy.one_forms, fuzzy.d0))
    refusal = build_symmetry(flat)
    assert isinstance(refusal, Refusal)
    assert refusal.condition == "PsymRangeMismatch"
    # the symmetrizer image lies in the kernel (everything), so the witness
    # is the first kernel basis vector outside the image
    assert refusal.witness == {4: ONE}


def test_oversized_two_forms_break_wedge_inverse(fuzzy):
    # doubling the two-form target keeps every axiom but the wedge's
    # surjectivity, and the complement of ker(wedge) no longer has the
    # dimension of the two-forms; the theory rules that out on a valid
    # calculus, so build_symmetry, forced to run, raises
    w2 = fuzzy.two_forms
    double = Bimodule(
        fuzzy.algebra, 2 * w2.dim,
        [_block_diag(m) for m in w2.left],
        [_block_diag(m) for m in w2.right])
    wedge2 = Matrix(2 * w2.dim, 144,
                    [list(r) for r in fuzzy.wedge_plain.entries]
                    + [[ZERO] * 144 for _ in range(w2.dim)])
    d1_2 = Matrix(2 * w2.dim, 12,
                  [list(r) for r in fuzzy.d1.entries]
                  + [[ZERO] * 12 for _ in range(w2.dim)])
    broken = Calculus(fuzzy.algebra, fuzzy.one_forms, double, fuzzy.d0, d1_2, wedge2)
    assert {item.name for item in failures(validate_calculus(broken))} == {"wedge_surjective"}
    # counted: the complement of ker(wedge) in the 36-dimensional square
    assert broken.tensor_square.dim - broken.wedge_q.kernel().dim == 12
    broken.validated = True
    with pytest.raises(InternalInconsistencyError, match="differ in dimension"):
        build_symmetry(broken)


def _fuzzy_sphere(n: int):
    return build_chevalley(load_perfbench("inputs").fuzzy_sphere_chevalley(n))


# every valid calculus the suite builds that is tame; the K[x]/(x^3)
# fixture fails one_forms_spanned_by_exact_forms, and the two-point graph
# and the presets without two-forms are refused
VALID_CALCULI = {"matrix-derivations-2": lambda: preset_matrix_derivations(2).calculus,
                 "abelian-torus-2": lambda: preset_abelian_torus(2).calculus,
                 "fuzzy-sphere-2": lambda: _fuzzy_sphere(2),
                 "fuzzy-sphere-3": lambda: _fuzzy_sphere(3)}


@pytest.mark.parametrize("name", sorted(VALID_CALCULI))
def test_a_valid_calculus_meets_the_conditions_tameness_trusts(name):
    # the central tensors span, the flip is well defined and bilinear, and
    # the complement of ker(wedge) has the dimension of the two-forms:
    # build_symmetry checks none of these, the dense flags recompute them
    calc = validated(VALID_CALCULI[name]())
    sigma = build_symmetry(calc)
    assert not isinstance(sigma, Refusal), sigma.detail
    parts = CertificateParts(calc, sigma)
    assert all(parts.flags.values()), parts.flags
    assert parts.spanning.spans
    assert calc.tensor_square.dim - parts.kernel_wedge.dim == calc.two_forms.dim


QUOTIENT_BASES = (preset_matrix_derivations(2).calculus, preset_abelian_torus(2).calculus)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data())
def test_a_valid_quotient_calculus_is_tame_or_refused_as_the_theory_allows(data):
    # E/N with Omega^2 = 0, for N the sub-bimodule one drawn element
    # generates, is a valid calculus; tameness on it gives sigma or one of
    # the two refusals a valid calculus can reach, and never raises
    base = data.draw(st.sampled_from(QUOTIENT_BASES))
    n = base.one_forms.dim
    v = data.draw(st.dictionaries(st.integers(0, n - 1), st.integers(-2, 2).filter(bool),
                                  min_size=1, max_size=3))
    calc = quotient_calculus(base, {j: qi(c) for j, c in v.items()})
    assume(calc is not None)
    outcome = build_symmetry(validated(calc))
    assert isinstance(outcome, Matrix) or outcome.condition in ("NotCentered",
                                                                "PsymRangeMismatch")


def _block_diag(m):
    n = m.rows
    out = [[ZERO] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            out[i][j] = m.entries[i][j]
            out[n + i][n + j] = m.entries[i][j]
    return Matrix(2 * n, 2 * n, out)


def test_sigma_flips_central_tensors(fuzzy, fuzzy_sigma, fuzzy_parts):
    qt = fuzzy.tensor_square
    for z1 in fuzzy_parts.center_one_forms.basis:
        for z2 in fuzzy_parts.center_one_forms.basis:
            assert fuzzy_sigma.apply(pure(qt, z1, z2)) == pure(qt, z2, z1)


def test_sigma_flips_with_one_central_factor(fuzzy, fuzzy_sigma, fuzzy_parts):
    # the flip persists when only one leg is central
    qt = fuzzy.tensor_square
    e_dim = fuzzy.one_forms.dim
    for z in fuzzy_parts.center_one_forms.basis:
        for s in (0, 5, 11):
            e = basis_vector(e_dim, s)
            assert fuzzy_sigma.apply(pure(qt, z, e)) == pure(qt, e, z)
            assert fuzzy_sigma.apply(pure(qt, e, z)) == pure(qt, z, e)


def test_certificate_operator_identities(fuzzy_sigma, fuzzy_parts):
    sigma, parts = fuzzy_sigma, fuzzy_parts
    n = parts.tensor_square.dim
    wedge_q = parts.calculus.wedge_q
    assert sigma @ sigma == Matrix.identity(n)
    assert parts.p_sym @ parts.p_sym == parts.p_sym
    assert (wedge_q @ parts.p_sym).is_zero()
    q_inv = q_inverse(parts.calculus, sigma)
    assert wedge_q @ q_inv == Matrix.identity(parts.calculus.two_forms.dim)
    assert (parts.p_sym @ q_inv).is_zero()  # preimages avoid ker(wedge)


def test_q_inverse_on_zero(fuzzy, fuzzy_sigma):
    w2 = fuzzy.two_forms.dim
    assert vec_is_zero(q_inverse(fuzzy, fuzzy_sigma).apply(zero_vector(w2)))


def test_q_inverse_inverts_wedge_on_complement(fuzzy, fuzzy_sigma, fuzzy_parts):
    wedge_q = fuzzy.wedge_q
    q_inv = q_inverse(fuzzy, fuzzy_sigma)
    for f in fuzzy_parts.complement_f.basis:
        assert q_inv.apply(wedge_q.apply(f)) == f


def test_q_inverse_of_theta_wedge_theta(fuzzy, fuzzy_sigma):
    # theta_1 ^ theta_2 pulls back to (theta_1 (x) theta_2 - theta_2 (x) theta_1)/2
    qt = fuzzy.tensor_square
    theta = [basis_vector(12, j * 4) for j in range(3)]
    w = wedge_of(fuzzy, theta[0], theta[1])
    expect = tuple(HALF * (a - b) for a, b in
                   zip(pure(qt, theta[0], theta[1]), pure(qt, theta[1], theta[0])))
    assert q_inverse(fuzzy, fuzzy_sigma).apply(w) == expect


def test_antisymmetrizer_equals_canonical_wedge_preimage(fuzzy, fuzzy_sigma, fuzzy_parts):
    # (1 - P_sym) gamma and the canonical preimage of wedge(gamma) agree,
    # so functionals paired against a two-form do not see the preimage choice.
    sigma = fuzzy_sigma
    qt = fuzzy_parts.tensor_square
    n = qt.dim
    one_minus_p = Matrix.identity(n) - fuzzy_parts.p_sym
    wedge_q = fuzzy.wedge_q
    q_inv = q_inverse(fuzzy, sigma)
    for j in range(n):
        gamma = basis_vector(n, j)
        assert one_minus_p.apply(gamma) == q_inv.apply(wedge_q.apply(gamma))


def test_pairing_of_two_form_preimage_identity(fuzzy, fuzzy_sigma, fuzzy_parts):
    # (phi (x) psi) applied to twice the antisymmetrized gamma equals the
    # pairing against the canonical preimage of wedge(gamma), psi central.
    sigma = fuzzy_sigma
    qt = fuzzy_parts.tensor_square
    estar = dual_module(fuzzy.one_forms)
    zdual = module_center(estar.bimodule)
    phi = estar.basis[0]
    psi = estar.matrix_of(zdual.rows[0])
    n = qt.dim
    one_minus_p = Matrix.identity(n) - fuzzy_parts.p_sym
    q_inv = q_inverse(fuzzy, sigma)
    for j in (0, 13, 29):
        gamma = basis_vector(n, j)
        lhs = pair_apply(qt, phi, psi,
                         vec_to_sparse(tuple(qi(2) * x for x in one_minus_p.apply(gamma))))
        rhs = pair_apply(qt, phi, psi,
                         vec_to_sparse(tuple(qi(2) * x for x in
                                             q_inv.apply(fuzzy.wedge_q.apply(gamma)))))
        assert lhs == rhs
