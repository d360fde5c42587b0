"""Connections: Grassmann, torsion, covariant derivatives, both LC routes."""

import hashlib

import pytest

import lemma_checks as lc
from dense_reference import (
    col,
    commutator,
    from_rows,
    g_tilde_dense,
    grassmann_reference,
    hom_kernel,
    left_action,
    multiply_dense,
    pure,
    right_action,
    vec_is_zero,
)
from perturbations import random_leibniz_perturbation
from tamecalc.bimodule import Bimodule, dual_module, hom_A
from tamecalc.builders import preset_abelian_torus, preset_matrix_derivations
from tamecalc.calculus import build_symmetry
from tamecalc.connection import (
    Connection,
    Geometry,
    bracket_general,
    certify,
    compat_witnesses,
    covariant_derivative,
    covariant_table,
    frame_splitting,
    grassmann,
    koszul_rhs,
    leibniz_witness,
    levi_civita_direct,
    levi_civita_koszul,
    lie_bracket,
    nabla_zero,
    reconstruct_from_table,
    torsion,
    torsion_witnesses,
)
from tamecalc.errors import YNotCentralError
from tamecalc.linalg import (
    Matrix,
    ONE,
    _apply_sparse,
    _lincomb,
    basis_vector,
    qi,
    sparse_to_vec,
    vec_to_sparse,
    zero_vector,
)
from tamecalc.metric import validate_metric
from tamecalc.specfile import dumps_canonical, matrix_to_json


@pytest.fixture(scope="module")
def fuzzy_lc(fuzzy_geo):
    return levi_civita_koszul(fuzzy_geo)


# -- Grassmann and the reference connection ------------------------------------

def _splitting(calc, frame):
    """The solved splitting S_j: E -> A, each built from its images of the
    central generators."""
    gens = calc.one_forms.central_generators
    regular = Bimodule.regular(calc.algebra)
    nA = calc.algebra.dim
    return [gens.right_linear(regular, {i * nA + s: v for i, image in enumerate(images)
                                         for s, v in image.items()})
            for images in frame_splitting(calc, [vec_to_sparse(g) for g in frame])]


def _is_idempotent(calc, frame, splitting) -> bool:
    """sum_k S_i(g_k) S_k(g_j) == S_i(g_j) for every pair of frame indices."""
    alg = calc.algebra
    p = [[s.apply(g) for g in frame] for s in splitting]
    n = len(frame)
    for i in range(n):
        for j in range(n):
            acc = zero_vector(alg.dim)
            for k in range(n):
                acc = tuple(x + y for x, y in zip(acc, multiply_dense(alg, p[i][k], p[k][j])))
            if acc != p[i][j]:
                return False
    return True


def test_grassmann_splitting_is_coordinate_map(fuzzy_geo):
    geo = fuzzy_geo
    frame = geo.cert.center_one_forms.basis
    splitting = _splitting(geo.calc, frame)
    unit = geo.calc.algebra.unit
    for j, gen in enumerate(frame):
        for k in range(len(frame)):
            want = unit if j == k else zero_vector(4)
            assert splitting[k].apply(gen) == want
    assert _is_idempotent(geo.calc, frame, splitting)


def test_grassmann_vanishes_on_frame(fuzzy_geo):
    conn = grassmann(fuzzy_geo.calc, fuzzy_geo.cert)
    for gen in fuzzy_geo.cert.center_one_forms.basis:
        assert vec_is_zero(conn.nabla.apply(gen))


def test_grassmann_leibniz_on_translates(fuzzy_geo):
    geo = fuzzy_geo
    conn = grassmann(geo.calc, geo.cert)
    e = geo.calc.one_forms
    qt = geo.calc.tensor_square
    for gen in geo.cert.center_one_forms.basis:
        for i in range(4):
            lhs = conn.nabla.apply(e.right[i].apply(gen))
            assert lhs == pure(qt, gen, col(geo.calc.d0, i))


def test_grassmann_of_exact_form(fuzzy_geo):
    # dU expands over the frame with coefficients ad_k(U), so its image is
    # the sum of theta_k (x) d(ad_k(U)).
    geo = fuzzy_geo
    conn = grassmann(geo.calc, geo.cert)
    splitting = _splitting(geo.calc, geo.cert.center_one_forms.basis)
    alg = geo.calc.algebra
    qt = geo.calc.tensor_square
    u = basis_vector(4, 1)
    du = geo.calc.d0.apply(u)
    want = zero_vector(qt.dim)
    for k, gen in enumerate(geo.cert.center_one_forms.basis):
        coeff = splitting[k].apply(du)
        want = tuple(x + y for x, y in
                     zip(want, pure(qt, gen, geo.calc.d0.apply(coeff))))
    assert conn.nabla.apply(du) == want
    # and the coefficients really are the inner-derivation values
    ads = [alg.ad(basis_vector(4, g)) for g in (1, 2, 3)]
    for k in range(3):
        assert splitting[k].apply(du) == ads[k].apply(u)


def test_torsion_of_grassmann_is_d_on_frame(fuzzy_geo):
    geo = fuzzy_geo
    conn = grassmann(geo.calc, geo.cert)
    t = torsion(geo.calc, conn)
    for gen in geo.cert.center_one_forms.basis:
        assert t.apply(gen) == geo.calc.d1.apply(gen)
    assert not t.is_zero()


def test_torsion_of_grassmann_vanishes_on_torus(torus_geo):
    geo = torus_geo
    conn = grassmann(geo.calc, geo.cert)
    assert torsion(geo.calc, conn).is_zero()


def test_nabla_zero_is_torsionless(fuzzy_geo, torus_geo):
    for geo in (fuzzy_geo, torus_geo):
        n0 = nabla_zero(geo.calc, geo.cert)
        assert torsion(geo.calc, n0).is_zero()
        assert leibniz_witness(geo.calc, n0) is None


def test_nabla_zero_equals_grassmann_on_torus(torus_geo):
    geo = torus_geo
    gr = grassmann(geo.calc, geo.cert)
    assert nabla_zero(geo.calc, geo.cert).nabla == gr.nabla


def test_nabla_zero_corrects_frame_torsion(fuzzy_geo):
    geo = fuzzy_geo
    n0 = nabla_zero(geo.calc, geo.cert)
    for z in geo.cert.center_one_forms.basis:
        want = tuple(-x for x in geo.cert.q_inverse.apply(geo.calc.d1.apply(z)))
        assert n0.nabla.apply(z) == want


# sha256 of the reference connection of the two small presets, default
# metric and frame, and of three overcomplete frames, where the splitting is
# not unique and these pin the particular solution; the Grassmann
# splitting's rows reach no artifact, since the Levi-Civita connection is
# unique, so they are pinned here
GOLDEN_REFERENCE = {
    "matrix-derivations": "ff9d9cc4bc3a5fccfa322d6cec25d867f835b06bb2cb9e698d3a8ae1f88a22a8",
    "abelian-torus": "bc99d58755a86530c87f27b57ad408e2b059aba3c46cc4bb5ec7ac45ac7b7889",
    "fuzzy-sphere-3 translate":
        "d248687ce626ba6fc4311a539f978a9a4d25bc1b2822dbde643f1213798521ff",
    "matrix-derivations translate":
        "c7e5f89f0310d8a254a2747ee5530fdbcd56b04b60d6139faff740ff9909d541",
    "abelian-torus all-translates":
        "79f66a0e64d12e1fd323e27422c205fbf13d587f1792228d5e2a332170593f17",
}


def test_reference_connection_matches_golden_digests(fuzzy_geo, torus_geo):
    for name, geo in (("matrix-derivations", fuzzy_geo), ("abelian-torus", torus_geo)):
        text = dumps_canonical(matrix_to_json(nabla_zero(geo.calc, geo.cert).nabla))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REFERENCE[name], name


@pytest.fixture(scope="module")
def fuzzy3_cert(fuzzy3_calc):
    return build_symmetry(fuzzy3_calc).certificate


def _frame_case(request, preset: str, frame_name: str):
    """(calc, cert, frame): the central basis, or it with a translate
    z_0 . a_1, every z_i . a_1, or z_0 + z_1 prepended, as dense vectors."""
    if preset == "fuzzy-sphere-3":
        calc = request.getfixturevalue("fuzzy3_calc")
        cert = request.getfixturevalue("fuzzy3_cert")
    else:
        geo = request.getfixturevalue({"matrix-derivations": "fuzzy_geo",
                                       "abelian-torus": "torus_geo",
                                       "truncated-line": "line_geo"}[preset])
        calc, cert = geo.calc, geo.cert
    e = calc.one_forms
    z = list(cert.center_one_forms.basis)
    prepended = {
        "default": [],
        "translate": [e.right[1].apply(z[0])],
        "all-translates": [e.right[1].apply(zi) for zi in z],
        "sum": [tuple(a + b for a, b in zip(z[0], z[1]))],
    }[frame_name]
    return calc, cert, tuple(prepended + z)


# on the truncated line E is not free on its central generators, so the
# splitting's images must respect their relations
FRAME_CASES = [(preset, frame_name)
               for preset in ("matrix-derivations", "abelian-torus", "fuzzy-sphere-3",
                              "truncated-line")
               for frame_name in ("default", "translate", "all-translates", "sum")]


@pytest.mark.parametrize("preset, frame_name", [
    ("fuzzy-sphere-3", "translate"),
    ("matrix-derivations", "translate"),
    ("abelian-torus", "all-translates"),
])
def test_reference_connection_on_overcomplete_frames_matches_golden_digests(
        request, preset, frame_name):
    calc, cert, frame = _frame_case(request, preset, frame_name)
    sparse_frame = [vec_to_sparse(g) for g in frame]
    text = dumps_canonical(matrix_to_json(nabla_zero(calc, cert, sparse_frame).nabla))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        GOLDEN_REFERENCE[f"{preset} {frame_name}"]


@pytest.mark.parametrize("preset, frame_name", FRAME_CASES)
def test_grassmann_matches_whole_matrix_reference(request, preset, frame_name):
    calc, cert, frame = _frame_case(request, preset, frame_name)
    sparse_frame = [vec_to_sparse(g) for g in frame]
    assert grassmann(calc, cert, sparse_frame).nabla == grassmann_reference(calc, frame)


@pytest.mark.parametrize("preset, frame_name", FRAME_CASES)
def test_grassmann_splitting_reconstructs_and_is_idempotent(request, preset, frame_name):
    # solved on the central generators only, the splitting still
    # reconstructs every basis vector
    calc, cert, frame = _frame_case(request, preset, frame_name)
    e = calc.one_forms
    splitting = _splitting(calc, frame)
    for k in range(e.dim):
        total = zero_vector(e.dim)
        for g, s in zip(frame, splitting):
            total = tuple(x + y for x, y in
                          zip(total, right_action(e, col(s, k)).apply(g)))
        assert total == basis_vector(e.dim, k)
    assert _is_idempotent(calc, frame, splitting)


def test_one_central_generators_per_one_forms(fuzzy_geo):
    geo = fuzzy_geo
    assert geo.metric.e_star.generators is geo.calc.one_forms.central_generators


def test_zero_map_is_not_a_connection(fuzzy_geo, torus_geo):
    # the unit satisfies Leibniz for any map, so the first witness is the
    # first one-form against the first non-unit basis element
    for geo in (fuzzy_geo, torus_geo):
        qt, e = geo.calc.tensor_square, geo.calc.one_forms
        broken = Connection(Matrix.zeros(qt.dim, e.dim))
        assert leibniz_witness(geo.calc, broken) == (0, 1)


def test_leibniz_witness_order_on_changed_entry(fuzzy_geo, torus_geo):
    # one value-matrix entry (row, col) of the reference connection plus 1;
    # the witness is the first (s, i) with the algebra index i outer (on
    # matrix-derivations-2 the one-form index outer would give (4, 2))
    for geo, entry, want in ((fuzzy_geo, (0, 6), (6, 1)), (fuzzy_geo, (7, 4), (4, 1)),
                             (torus_geo, (0, 6), (6, 1)), (torus_geo, (7, 4), (3, 1))):
        n0 = nabla_zero(geo.calc, geo.cert).nabla
        entries = [list(r) for r in n0.entries]
        r, c = entry
        entries[r][c] = entries[r][c] + qi(1)
        broken = Connection(Matrix(n0.rows, n0.cols, entries))
        assert leibniz_witness(geo.calc, broken) == want, entry


# -- covariant derivatives ------------------------------------------------------

def test_covariant_derivative_direction_must_be_field(fuzzy_geo, fuzzy_lc):
    geo = fuzzy_geo
    shifted = _apply_sparse(geo.metric.e_star.bimodule.right[1], geo.fields.basis[0])
    with pytest.raises(YNotCentralError):
        covariant_derivative(geo, fuzzy_lc.connection, geo.fields.basis[0], shifted)


def test_flat_connection_has_zero_table(torus_geo):
    geo = torus_geo
    n0 = nabla_zero(geo.calc, geo.cert)
    table = covariant_table(geo, n0)
    assert all(entry == {} for row in table for entry in row)


# -- Lie brackets ----------------------------------------------------------------

def test_bracket_with_itself_vanishes(fuzzy_geo):
    for x in fuzzy_geo.fields.basis:
        assert lie_bracket(fuzzy_geo, x, x) == {}


def test_torus_brackets_vanish(torus_geo):
    n = torus_geo.fields.count
    for p in range(n):
        for q in range(n):
            assert torus_geo.lie_table[p][q] == {}


def test_fuzzy_brackets_match_ad_commutators(fuzzy_geo):
    # oracle: [ad a, ad b] = ad(ab - ba) on the algebra side
    geo = fuzzy_geo
    alg = geo.calc.algebra
    gens = [basis_vector(4, k) for k in (1, 2, 3)]
    expected_pairs = {(0, 1): (2, qi(2)), (0, 2): (1, qi(2)), (1, 2): (0, qi(-2))}
    for (p, q), (r, c) in expected_pairs.items():
        got = geo.lie_table[p][q]
        want = {k: c * v for k, v in geo.fields.basis[r].items()}
        assert got == want
        # and the derivation of the bracket is the ad of the commutator
        dz = geo.metric.e_star.matrix_of(got) @ geo.calc.d0
        assert dz == alg.ad(commutator(alg, gens[p], gens[q]))


def test_bracket_general_extends_lie_bracket(fuzzy_geo):
    geo = fuzzy_geo
    x, y = geo.fields.basis[0], geo.fields.basis[1]
    assert bracket_general(geo, x, y) == lie_bracket(geo, x, y)


def test_bracket_general_translation_formula(fuzzy_geo):
    # [X_i, X_j . a] = [X_i, X_j] a + delta_{X_i}(a) X_j
    geo = fuzzy_geo
    estar = geo.metric.e_star
    for i in range(3):
        x = geo.fields.basis[i]
        for j in range(3):
            y = geo.fields.basis[j]
            for a_idx in range(4):
                phi = _apply_sparse(estar.bimodule.right[a_idx], y)
                got = bracket_general(geo, x, phi)
                t1 = estar.bimodule.right[a_idx].apply(
                    sparse_to_vec(lie_bracket(geo, x, y), estar.dim))
                # delta_x(a) is column a of the derivation matrix of x
                t2 = left_action(estar.bimodule, col(geo.fields.deltas[i], a_idx)).apply(
                    sparse_to_vec(y, estar.dim))
                assert got == vec_to_sparse(tuple(u + v for u, v in zip(t1, t2)))


def test_dual_decomposition_is_unique_here(fuzzy_geo, torus_geo):
    # the field family is a free basis on both presets, so the decomposition
    # backing the general bracket has no freedom to vary
    assert fuzzy_geo.fields.generators.relations == []
    assert torus_geo.fields.generators.relations == []


def test_dual_memo_does_not_depend_on_key_order(fuzzy_geo):
    geo = fuzzy_geo
    phi = {0: ONE, 5: qi(2), 9: qi(-1, 1)}
    reordered = dict(reversed(list(phi.items())))
    assert list(phi) != list(reordered)
    assert geo.dual(phi) is geo.dual(reordered)
    assert geo.dual(phi) is not geo.dual({0: ONE, 5: qi(2)})


def test_tables_store_no_zeros(fuzzy_geo, torus_geo):
    # with no stored zero, dict equality of two entries is equality of the
    # dual elements: what certify's `verdicts.table != table` and verify's
    # table_matches_connection compare
    for geo in (fuzzy_geo, torus_geo):
        tables = [geo.lie_table, levi_civita_koszul(geo).table,
                  covariant_table(geo, grassmann(geo.calc, geo.cert))]
        for table in tables:
            for row in table:
                for entry in row:
                    assert all(not v.is_zero() for v in entry.values())
        # the Lie and Levi-Civita tables are not zero on the curved preset
        if geo is fuzzy_geo:
            assert all(any(entry for row in table for entry in row) for table in tables[:2])


# -- Koszul data ------------------------------------------------------------------

def test_koszul_rhs_vanishes_on_torus(torus_geo):
    geo = torus_geo
    n = geo.fields.count
    for p in range(n):
        for q in range(n):
            for z in geo.fields.basis:
                assert koszul_rhs(geo, p, q, z) == {}


def test_koszul_rhs_golden_triple(fuzzy_geo):
    geo = fuzzy_geo
    x3 = geo.fields.basis[2]
    got = koszul_rhs(geo, 0, 1, x3)
    assert got == vec_to_sparse(tuple(qi(2) * v for v in geo.calc.algebra.unit))


def test_koszul_rhs_zero_argument(fuzzy_geo):
    assert koszul_rhs(fuzzy_geo, 0, 1, {}) == {}


# -- Levi-Civita, both routes ------------------------------------------------------

def test_golden_covariant_value(fuzzy_lc, fuzzy_geo):
    # (LC_{X_1} X_2)(theta_3) = 1, rederived through the direct solver below
    geo = fuzzy_geo
    theta3 = {8: ONE}
    val = geo.metric.e_star.value_sparse(fuzzy_lc.table[0][1], theta3)
    assert val == vec_to_sparse(geo.calc.algebra.unit)


def test_direct_solver_confirms_golden(fuzzy_geo):
    geo = fuzzy_geo
    direct = levi_civita_direct(geo)
    assert direct.kernel_dim == 0
    theta3 = {8: ONE}
    val = geo.metric.e_star.value_sparse(covariant_table(geo, direct.connection)[0][1], theta3)
    assert val == vec_to_sparse(geo.calc.algebra.unit)


def test_generator_images_give_the_hom_space(fuzzy_geo, torus_geo, line_geo):
    # Hom_A built from the images of the central generators is the kernel
    # construction, basis for basis, for E*, Hom_A(E, E (x)_A E) and
    # (E (x)_A E)*; the two presets are free on their generators, the
    # K[x]/(x^3) fixture has 3 * 3 - 3 = 6 relations
    for geo, relations in ((fuzzy_geo, 0), (torus_geo, 0), (line_geo, 6)):
        e = geo.calc.one_forms
        t2 = geo.calc.tensor_square.bimodule
        reg = Bimodule.regular(geo.calc.algebra)
        gens = e.central_generators
        assert gens is geo.metric.e_star.generators
        assert gens.zs == geo.cert.center_one_forms.rows
        assert len(gens.relation_rows(t2)) == relations * t2.dim
        for source, target in ((e, reg), (e, t2), (t2, reg)):
            assert hom_A(source, target).flat == hom_kernel(source, target)
    torus4 = preset_abelian_torus(4).calculus.one_forms
    assert dual_module(torus4).flat == hom_kernel(torus4, Bimodule.regular(torus4.algebra))


# sha256 of the direct route's value matrix on the K[x]/(x^3) fixture, the
# only geometry with relation rows (no preset reaches them).  Compatibility
# and torsion already pin the solution there, so the rows themselves are
# guarded by test_generator_images_give_the_hom_space.
GOLDEN_LINE_DIRECT = "d0d7905ef85e474b2d33ae33361ff8af45a126b5b91dc734f055331efc57463e"


def test_direct_route_with_generator_relations_matches_golden(line_geo):
    direct = levi_civita_direct(line_geo)
    assert direct.kernel_dim == 0
    text = dumps_canonical(matrix_to_json(direct.connection.nabla))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_LINE_DIRECT


def test_route_equality_euclidean(fuzzy_geo, torus_geo):
    for geo in (fuzzy_geo, torus_geo):
        kz = levi_civita_koszul(geo)
        dr = levi_civita_direct(geo)
        assert kz.connection.nabla == dr.connection.nabla
        assert kz.table == covariant_table(geo, dr.connection)


def test_torus_levi_civita_is_flat(torus_geo):
    geo = torus_geo
    kz = levi_civita_koszul(geo)
    for z in geo.cert.center_one_forms.basis:
        assert vec_is_zero(kz.connection.nabla.apply(z))
    assert all(entry == {} for row in kz.table for entry in row)
    # the direct solver finds the zero perturbation: the reference
    # connection is already the answer here
    assert levi_civita_direct(geo).connection.nabla == nabla_zero(geo.calc, geo.cert).nabla


def test_scaled_metric_same_connection(fuzzy_geo):
    geo = fuzzy_geo
    p = preset_matrix_derivations(2)
    doubled = validate_metric(geo.calc, geo.cert, p.metric_plain.scale(qi(2))).metric
    geo2 = Geometry(geo.calc, geo.cert, doubled)
    kz = levi_civita_koszul(geo2)
    assert kz.connection.nabla == levi_civita_koszul(geo).connection.nabla
    assert levi_civita_direct(geo2).connection.nabla == kz.connection.nabla


def test_levi_civita_is_torsionless_and_compatible(fuzzy_geo, fuzzy_lc):
    geo = fuzzy_geo
    verdicts = certify(geo, fuzzy_lc.connection)
    assert verdicts.ok
    assert verdicts == fuzzy_lc.verdicts
    assert verdicts.table == fuzzy_lc.table


def test_grassmann_fails_covariant_torsion_condition(fuzzy_geo):
    geo = fuzzy_geo
    gr = grassmann(geo.calc, geo.cert)
    verdicts = certify(geo, gr)
    assert not verdicts.ok
    assert verdicts.leibniz is None
    assert verdicts.torsion_witnesses
    # only pairs above the diagonal are read
    assert all(p < q for p, q in verdicts.torsion_witnesses)


def test_reference_connection_passes_torsion_everywhere(fuzzy_geo, torus_geo):
    for geo in (fuzzy_geo, torus_geo):
        n0 = nabla_zero(geo.calc, geo.cert)
        assert torsion_witnesses(geo, covariant_table(geo, n0)) == ()


def test_torus_reference_connection_is_compatible(torus_geo):
    # the reference connection is already Levi-Civita on the flat preset
    geo = torus_geo
    n0 = nabla_zero(geo.calc, geo.cert)
    assert certify(geo, n0).ok


def test_flat_connection_with_varying_metric_incompatible(line_geo):
    # the exact forms of this calculus do not pin a bracket, so only the
    # compatibility half of the certification applies
    geo = line_geo
    gr = grassmann(geo.calc, geo.cert)
    assert compat_witnesses(geo, covariant_table(geo, gr))


def test_certify_stops_at_leibniz(fuzzy_geo):
    geo = fuzzy_geo
    verdicts = certify(geo, Connection(Matrix.zeros(36, 12)))
    assert verdicts.leibniz is not None
    assert verdicts.table is None
    assert not verdicts.ok


# -- reconstruction and uniqueness --------------------------------------------------

def test_reconstruction_round_trip(fuzzy_geo, torus_geo):
    for geo in (fuzzy_geo, torus_geo):
        for conn in (nabla_zero(geo.calc, geo.cert), grassmann(geo.calc, geo.cert)):
            table = covariant_table(geo, conn)
            rebuilt = reconstruct_from_table(geo, table)
            assert rebuilt.nabla == conn.nabla


def test_perturbation_changes_table(fuzzy_geo):
    # equal tables force equal connections, so a nonzero shift must show up
    geo = fuzzy_geo
    n0 = nabla_zero(geo.calc, geo.cert)
    base = covariant_table(geo, n0)
    for seed in (1, 2, 3):
        pert = random_leibniz_perturbation(geo, seed)
        if pert.nabla == n0.nabla:
            continue
        assert covariant_table(geo, pert) != base


def test_perturbations_are_connections_and_deterministic(fuzzy_geo):
    geo = fuzzy_geo
    a = random_leibniz_perturbation(geo, 42)
    b = random_leibniz_perturbation(geo, 42)
    assert a.nabla == b.nabla
    assert leibniz_witness(geo.calc, a) is None
    assert a.nabla != random_leibniz_perturbation(geo, 43).nabla


# -- the classical bracket identity --------------------------------------------------

def test_classical_bracket_identity(fuzzy_geo, torus_geo):
    assert lc.classical_bracket_check(fuzzy_geo)
    assert lc.classical_bracket_check(torus_geo)


# -- independent Christoffel oracle ---------------------------------------------------

def christoffel_oracle(brackets, gram):
    """Finite-dimensional constant-metric Koszul data, from scratch.

    brackets[p][q] is the coefficient vector of the commutator of the p-th
    and q-th fields over the field basis; gram the scalar Gram matrix.
    2 <D_p X_q, X_r> = <[X_p,X_q],X_r> - <[X_q,X_r],X_p> + <[X_r,X_p],X_q>,
    solved for the coefficients through the Gram matrix.
    """
    from tamecalc.linalg import HALF, solve_sparse

    n = len(gram)

    def pair(vec, r):
        acc = None
        for s, c in enumerate(vec):
            term = c * gram[s][r]
            acc = term if acc is None else acc + term
        return acc

    gamma = {}
    gmat = from_rows(gram)
    assert gmat.kernel().dim == 0
    for p in range(n):
        for q in range(n):
            rhs = []
            for r in range(n):
                val = pair(brackets[p][q], r) - pair(brackets[q][r], p) \
                    + pair(brackets[r][p], q)
                rhs.append(HALF * val)
            (sol,), _ = solve_sparse(gmat.sparse_rows(), n, [vec_to_sparse(rhs)])
            assert sol is not None
            gamma[(p, q)] = sparse_to_vec(sol, n)
    return gamma


def scalar_brackets(geo):
    """Field brackets as scalar coefficient arrays over the field basis."""
    n = geo.fields.count
    fields_matrix = Matrix.from_sparse_cols(geo.fields.basis, geo.metric.e_star.dim)
    from tamecalc.linalg import ColumnSolver

    solver = ColumnSolver(fields_matrix)
    out = [[None] * n for _ in range(n)]
    for p in range(n):
        for q in range(n):
            coeffs = solver.solve(geo.lie_table[p][q])
            assert coeffs is not None
            out[p][q] = sparse_to_vec(coeffs, n)
    return out


def test_table_matches_classical_christoffel_oracle(fuzzy_geo):
    # Euclidean case: the whole covariant-derivative table must agree with
    # the classical formula computed from brackets and the identity Gram.
    geo = fuzzy_geo
    n = geo.fields.count
    table = levi_civita_koszul(geo).table
    gram = [[qi(1) if i == j else qi(0) for j in range(n)] for i in range(n)]
    gamma = christoffel_oracle(scalar_brackets(geo), gram)
    for p in range(n):
        for q in range(n):
            want = _lincomb(zip(gamma[(p, q)], geo.fields.basis))
            assert table[p][q] == want


def test_table_matches_oracle_for_seeded_constant_metrics(fuzzy_geo):
    # same cross-check on non-Euclidean constant metrics: the Gram matrix is
    # read off the dual pairing, everything else comes from brackets alone
    from perturbations import random_metric
    from tamecalc.metric import validate_metric

    geo0 = fuzzy_geo
    for seed in (5, 17):
        g = random_metric(geo0.calc, geo0.cert, seed)
        metric = validate_metric(geo0.calc, geo0.cert, g).metric
        geo = Geometry(geo0.calc, geo0.cert, metric)
        n = geo.fields.count
        gram = []
        ne = geo.metric.e_star.dim
        for p in range(n):
            row = []
            for q in range(n):
                val = g_tilde_dense(geo.calc, geo.metric, sparse_to_vec(geo.fields.basis[p], ne),
                                    sparse_to_vec(geo.fields.basis[q], ne))
                # constant metric: the pairing is a multiple of the unit
                unit_coord = val[0]
                assert val == tuple(unit_coord * u for u in geo.calc.algebra.unit)
                row.append(unit_coord)
            gram.append(row)
        table = levi_civita_koszul(geo).table
        gamma = christoffel_oracle(scalar_brackets(geo), gram)
        for p in range(n):
            for q in range(n):
                assert table[p][q] == _lincomb(zip(gamma[(p, q)], geo.fields.basis))
