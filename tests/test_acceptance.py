"""Acceptance suite: one test per exit criterion, zero tolerance throughout.

All assertions are exact equalities in Q(i); the only numeric bounds are
the wall-clock budgets.  Run with -s to see one PASS line per criterion.
"""

import time

import lemma_checks as lc
from dense_reference import failures, vec_is_zero
from perturbations import random_leibniz_perturbation, random_metric
from tamecalc.builders import preset_abelian_torus, preset_matrix_derivations
from tamecalc.calculus import build_symmetry, validate_calculus
from tamecalc.cli import main
from tamecalc.connection import (
    Geometry,
    certify,
    covariant_table,
    grassmann,
    levi_civita_direct,
    levi_civita_koszul,
    lie_bracket,
    nabla_zero,
    reconstruct_from_table,
    torsion,
)
from tamecalc.linalg import ONE, _lincomb, qi, vec_to_sparse
from tamecalc.metric import validate_metric


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS - {message}")


def test_criterion_1_presets_are_tame_quickly():
    # Fresh pipeline per preset, timed: calculus axioms, the constructive
    # tameness certificate (centered + splitting + flip), metric validity.
    dims = {}
    for maker in (preset_matrix_derivations, preset_abelian_torus):
        t0 = time.monotonic()
        preset = maker(2)
        calc_report = validate_calculus(preset.calculus)
        assert calc_report.ok, failures(calc_report)
        outcome = build_symmetry(preset.calculus)
        assert outcome.ok, outcome.failure
        cert = outcome.certificate
        assert cert.flags["centered"]
        assert cert.flags["sigma_well_defined"]
        assert cert.flags["sigma_involution"]
        assert cert.flags["sigma_bilinear"]
        assert cert.flags["psym_projects_onto_ker_wedge"]
        assert cert.complement_f.dim == preset.calculus.two_forms.dim
        m = validate_metric(preset.calculus, cert, preset.metric_plain)
        assert m.ok
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, f"{preset.name}: {elapsed:.2f}s"
        dims[preset.name] = (preset.calculus.algebra.dim, preset.calculus.one_forms.dim)
    assert dims["matrix-derivations-2"] == (4, 12)
    # the abelian preset lives on one 3x3 matrix block: the smallest algebra
    # carrying two independent commuting derivations with spanning exact forms
    assert dims["abelian-torus-2"] == (9, 18)
    report(1, f"both presets certified tame under 5s each, dims {dims}")


def test_criterion_2_uniqueness_kernel_zero(fuzzy_geo, torus_geo):
    for name, geo in (("matrix-derivations", fuzzy_geo), ("abelian-torus", torus_geo)):
        direct = levi_civita_direct(geo)
        assert direct.kernel_dim == 0, name
    report(2, "direct constraint system has kernel dimension exactly 0 on both presets")


def test_criterion_3_route_equality(fuzzy_geo, torus_geo):
    t0 = time.monotonic()
    runs = 0
    for geo in (fuzzy_geo, torus_geo):
        kz = levi_civita_koszul(geo)
        dr = levi_civita_direct(geo)
        assert kz.connection.nabla == dr.connection.nabla
        assert kz.table == covariant_table(geo, dr.connection)
        runs += 1
        for seed in (101, 202, 303):
            g = random_metric(geo.calc, geo.cert, seed)
            m = validate_metric(geo.calc, geo.cert, g)
            assert m.ok
            geo_s = Geometry(geo.calc, geo.cert, m.metric)
            kz = levi_civita_koszul(geo_s)
            dr = levi_civita_direct(geo_s)
            assert kz.connection.nabla == dr.connection.nabla
            runs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"route equality took {elapsed:.1f}s"
    report(3, f"{runs} exact route equalities in {elapsed:.1f}s (< 60s)")


def test_criterion_4_condition_equivalences(fuzzy_geo, torus_geo):
    # certify computes both the covariant and the form-level verdicts and
    # raises if they ever disagree, so each call is itself the equivalence
    # assertion; the verdict values are pinned on top of that.
    cases = 0
    for geo in (fuzzy_geo, torus_geo):
        gr = grassmann(geo.calc, geo.cert)
        n0 = nabla_zero(geo.calc, geo.cert)
        lc_conn = levi_civita_koszul(geo).connection
        conns = [gr, n0, lc_conn]
        conns += [random_leibniz_perturbation(geo, seed) for seed in range(1, 6)]
        for conn in conns:
            verdicts = certify(geo, conn)
            assert verdicts.leibniz is None
            assert (not verdicts.torsion_witnesses) == torsion(geo.calc, conn).is_zero()
            cases += 1
    report(4, f"torsion and compatibility verdicts agree across routes on {cases} connections")


def test_criterion_5_lie_algebra_structure(fuzzy_geo):
    geo = fuzzy_geo
    x1, x2, x3 = geo.fields.basis
    two = qi(2)
    assert geo.lie_table[0][1] == _lincomb([(two, x3)])
    assert geo.lie_table[0][2] == _lincomb([(two, x2)])
    assert geo.lie_table[1][2] == _lincomb([(-two, x1)])
    # Jacobi, exhaustively on the basis
    n = geo.fields.count
    for p in range(n):
        for q in range(n):
            for r in range(n):
                assert _lincomb((ONE, lie_bracket(geo, geo.fields.basis[a], geo.lie_table[b][c]))
                                for a, b, c in ((p, q, r), (q, r, p), (r, p, q))) == {}
    # the bracket formula against the reference connection, all pairs and
    # all 12 basis one-forms
    assert lc.classical_bracket_check(geo)
    report(5, "bracket constants, Jacobi, and the classical bracket identity hold exactly")


def test_criterion_6_flat_baseline(torus_geo):
    geo = torus_geo
    kz = levi_civita_koszul(geo)
    for z in geo.cert.center_one_forms.basis:
        assert vec_is_zero(kz.connection.nabla.apply(z))
    assert all(entry == {} for row in kz.table for entry in row)
    report(6, "abelian preset: connection vanishes on the frame, table is zero")


def test_criterion_7_golden_value(fuzzy_geo):
    geo = fuzzy_geo
    theta3 = {8: ONE}
    direct = levi_civita_direct(geo)
    koszul = levi_civita_koszul(geo)
    for table in (covariant_table(geo, direct.connection), koszul.table):
        val = geo.metric.e_star.value_sparse(table[0][1], theta3)
        assert val == vec_to_sparse(geo.calc.algebra.unit)
    report(7, "derivative of the second field along the first pairs to 1 "
              "against the third generator, on both routes")


def test_criterion_8_identity_suite(fuzzy_geo, torus_geo, line_geo):
    count = 0
    for geo in (fuzzy_geo, torus_geo):
        square = lc.metric_square(geo.calc, geo.cert, geo.metric)
        n0 = nabla_zero(geo.calc, geo.cert)
        checks = [
            lc.sigma_flips_one_central(geo),
            lc.metric_symmetric_one_central(geo),
            lc.central_pair_values_central(geo),
            lc.central_scalar_differentials_central(geo),
            lc.squared_contraction_matches_field_tensor(
                geo.metric, geo.cert, geo.calc.tensor_square, square),
            lc.squared_pairing_on_fixed_vectors_symmetric(geo, square),
            lc.squared_pairing_symmetrizer_hops(geo, square),
            lc.fields_values_on_central_forms_central(geo),
            lc.fields_equal_dual_center(geo),
            lc.fields_right_total(geo),
            lc.derivation_exactly_on_fields(geo),
            lc.antisymmetrized_reference_kills_exact_forms(geo),
            lc.covariant_derivative_axioms(geo, n0),
            lc.t_tilde_right_center_linear(geo, n0),
            lc.dual_pairing_central_and_symmetric(geo),
            lc.delta_translation_identity(geo),
            lc.pairing_evaluation_identity(geo),
        ]
        assert all(checks), checks
        count += len(checks)
    # the commutative fixture exercises the center-sensitive identities
    conn = grassmann(line_geo.calc, line_geo.cert)
    assert lc.covariant_derivative_axioms(line_geo, conn)
    assert lc.t_tilde_right_center_linear(line_geo, conn)
    count += 2
    report(8, f"{count} exact identity checks pass across the presets")


def test_criterion_9_reconstruction_round_trip(fuzzy_geo, torus_geo):
    for geo in (fuzzy_geo, torus_geo):
        lc_conn = levi_civita_koszul(geo).connection
        for conn in (nabla_zero(geo.calc, geo.cert), lc_conn):
            table = covariant_table(geo, conn)
            assert reconstruct_from_table(geo, table).nabla == conn.nabla
    report(9, "table -> connection -> table closes exactly for the reference "
              "and the Levi-Civita connection on both presets")


def test_criterion_10_determinism(tmp_path, capsys):
    for preset in ("matrix-derivations", "abelian-torus"):
        spec = tmp_path / f"{preset}.json"
        a1 = tmp_path / f"{preset}-1.out.json"
        a2 = tmp_path / f"{preset}-2.out.json"
        assert main(["gen", preset, "--n", "2", "--out", str(spec)]) == 0
        assert main(["connect", str(spec), "--out", str(a1)]) == 0
        assert main(["connect", str(spec), "--out", str(a2)]) == 0
        capsys.readouterr()
        assert a1.read_bytes() == a2.read_bytes()
    report(10, "repeated connect runs emit byte-identical artifacts")
