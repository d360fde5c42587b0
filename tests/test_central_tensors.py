"""Maps on E (x)_A E fixed by their values on the central tensors.

The tameness certificate keeps E (x)_A E as one `CentralGenerators` over the
central tensors pi(z_p (x) z_q); sigma, the compatibility map Pi_g and the
seeded metric are each extended from their values on it.  These tests hold
every such map to `dense_reference.through_central_tensors`, the same map
solved by solve_through over the translates pi(z_p (x) z_q) . a_r, and the
direct route's compatibility rows, posed once per central tensor, to the
system posed on every translate, and its connection to the one solved as
a perturbation of the reference connection.  The Levi-Civita conditions
that certify and the direct route read, torsion on each central generator and
compatibility on each central tensor, are held to the whole maps
wedge o nabla + d1 and Pi_g - d o g.
"""

import pytest

from conftest import load_perfbench, validated
from dense_reference import (
    CertificateParts,
    central_basis,
    compat_values,
    direct_system_reference,
    grassmann,
    leibniz_constants,
    levi_civita_perturbation,
    levi_civita_verdicts_reference,
    nabla_zero,
    pi_g_matrix,
    pure,
    quotient_metric,
    through_central_tensors,
    vec_is_zero,
)
from perturbations import (
    random_leibniz_perturbation,
    random_metric,
    random_torsionless_perturbation,
)
from tamecalc import connection
from tamecalc.bimodule import CentralGenerators
from tamecalc.builders import build_chevalley
from tamecalc.calculus import build_symmetry
from tamecalc.cli import main
from tamecalc.connection import (
    Geometry,
    certify,
    defects,
    levi_civita_direct,
)
from tamecalc.errors import InternalInconsistencyError, Refusal
from tamecalc.linalg import ONE, Matrix, _apply_sparse, solve_sparse, vec_to_sparse
from tamecalc.metric import validate_metric


@pytest.fixture(scope="module")
def fuzzy3_geo(fuzzy3_calc):
    sigma = build_symmetry(fuzzy3_calc)
    metric = validate_metric(fuzzy3_calc, sigma, random_metric(fuzzy3_calc, sigma, 3))
    return Geometry(fuzzy3_calc, sigma, metric)


@pytest.fixture(params=["fuzzy", "torus", "fuzzy3", "line"])
def geo(request):
    return request.getfixturevalue(
        {"fuzzy": "fuzzy_geo", "torus": "torus_geo", "fuzzy3": "fuzzy3_geo",
         "line": "line_geo"}[request.param])


def test_family_is_the_central_tensors(geo):
    parts = CertificateParts(geo.calc, geo.sigma)
    qt = geo.calc.tensor_square
    zs = geo.calc.one_forms.central_generators.zs
    assert zs == parts.center_one_forms.rows
    assert parts.spanning.source is qt.bimodule
    assert parts.spanning.spans
    assert parts.spanning.zs == tuple(qt.pure_sparse(zp, zq) for zp in zs for zq in zs)


def test_sigma_matches_solve_through(geo):
    calc = geo.calc
    qt = calc.tensor_square
    zs = central_basis(calc)
    flipped = [qt.bimodule.right[r].apply(pure(qt, zq, zp))
               for zp in zs for zq in zs for r in range(calc.algebra.dim)]
    assert geo.sigma == through_central_tensors(calc, flipped, qt.dim)


def test_compatibility_map_matches_solve_through(geo):
    calc = geo.calc
    for conn in (nabla_zero(geo.calc, geo.sigma), levi_civita_direct(geo)):
        want = through_central_tensors(calc, compat_values(geo, conn), calc.one_forms.dim)
        assert want is not None
        assert pi_g_matrix(geo, conn) == want


def test_seeded_metric_matches_solve_through(geo, line_geo, monkeypatch):
    # every draw that random_metric extends, kept or discarded
    calc, sigma = geo.calc, geo.sigma
    real = CentralGenerators.extend
    calls = []

    def recording(self, values, out_dim):
        got = real(self, values, out_dim)
        if self.source is calc.tensor_square.bimodule:
            calls.append((values, out_dim, got))
        return got

    monkeypatch.setattr(CentralGenerators, "extend", recording)
    assert random_metric(calc, sigma, 5) == calls[-1][2] @ calc.tensor_square.project
    for values, out_dim, got in calls:
        assert got == through_central_tensors(calc, values, out_dim)


@pytest.mark.parametrize("seed", range(6))
def test_seeded_metric_on_a_module_that_is_not_free(line_geo, seed):
    # on K[x]/(x^3) the central tensors' translates carry 24 relations; the
    # draws live in the kernel of the conditions they put on the
    # coefficients, so each seed gives a valid metric that is not the
    # Euclidean one
    calc, sigma = line_geo.calc, line_geo.sigma
    alg = calc.algebra
    g = random_metric(calc, sigma, seed)
    outcome = validate_metric(calc, sigma, g)
    assert not isinstance(outcome, Refusal)
    # g(z_p (x) z_q) is not 1 on the diagonal and 0 off it
    k = len(calc.one_forms.central_generators.zs)
    unit = vec_to_sparse(alg.unit)
    g_quotient = quotient_metric(calc, outcome)
    on_central = [_apply_sparse(g_quotient, z)
                  for z in CertificateParts(calc, sigma).spanning.zs]
    assert on_central != [unit if p == q else {} for p in range(k) for q in range(k)]
    assert g == random_metric(calc, sigma, seed)


def test_line_fixture_tensor_relations_refuse_breaking_values(line_geo):
    # 3 * 3 central tensors times dim A = 3 translates span the 3-dimensional
    # tensor square with 24 relations; values breaking one give no map,
    # and extending them raises
    calc = line_geo.calc
    span = CertificateParts(calc, line_geo.sigma).spanning
    assert calc.tensor_square.dim == 3
    assert len(span.zs) * calc.algebra.dim == 27
    assert len(span.relations) == 24
    values = [{} for _ in range(27)]
    values[min(span.relations[0])] = {0: ONE}
    with pytest.raises(InternalInconsistencyError, match="break a relation"):
        span.extend(values, 1)
    assert through_central_tensors(calc, values, 1) is None
    # the translates' own classes keep every relation and give the identity
    translates = [_apply_sparse(calc.tensor_square.bimodule.right[r], z)
                  for z in span.zs for r in range(calc.algebra.dim)]
    assert span.extend(translates, 3) == Matrix.identity(3)


def test_flip_breaking_a_relation_is_reported(capsys, tmp_path, monkeypatch):
    # the theory makes the flip well defined on a valid calculus, so a
    # relation it breaks is a bug: check exits 1 with one stderr line
    spec = str(tmp_path / "md2.json")
    assert main(["gen", "matrix-derivations", "--n", "2", "--out", spec]) == 0
    capsys.readouterr()
    monkeypatch.setattr(CentralGenerators, "relation_sums", lambda self, values: [{0: ONE}])
    assert main(["check", spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("InternalInconsistency: values break a relation among the "
                            "central generators\n")


@pytest.fixture(scope="module")
def fuzzy2_calc():
    """The fuzzy sphere N = 2 of the benchmark inputs: A = M_2, dim E = 12."""
    return validated(build_chevalley(load_perfbench("inputs").fuzzy_sphere_chevalley(2)))


def _seeded_geo(calc, seed):
    sigma = build_symmetry(calc)
    return Geometry(calc, sigma, validate_metric(calc, sigma, random_metric(calc, sigma, seed)))


# (fixture, seed of random_metric); None keeps the fixture's own metric.
# fuzzy_geo is matrix-derivations-2, torus_geo abelian-torus-2, and
# line_geo, over K[x]/(x^3), the one E with relations among its z_j.
DIRECT_CASES = [("fuzzy_geo", None), ("fuzzy_geo", 1), ("fuzzy2_calc", 2), ("fuzzy2_calc", 7),
                ("fuzzy3_geo", None), ("torus_geo", None), ("torus_geo", 4),
                ("line_geo", None), ("line_geo", 5)]


def _direct_geo(request, fixture, seed):
    got = request.getfixturevalue(fixture)
    if isinstance(got, Geometry):
        return got if seed is None else _seeded_geo(got.calc, seed)
    return _seeded_geo(got, seed)


@pytest.mark.parametrize("fixture, seed", DIRECT_CASES)
def test_direct_compatibility_once_per_central_tensor(request, monkeypatch, fixture, seed):
    geo = _direct_geo(request, fixture, seed)
    systems = []

    def recording(rows, ncols, rhs):
        result = solve_sparse(rows, ncols, rhs)
        systems.append((rows, ncols, result))
        return result

    monkeypatch.setattr(connection, "solve_sparse", recording)
    direct = levi_civita_direct(geo)
    (rows, ncols, ((sol,), rank)), = systems
    ref_rows, ref_ncols, ref_rhs = direct_system_reference(geo)
    (ref_sol,), ref_rank = solve_sparse(ref_rows, ref_ncols, [ref_rhs])
    assert ncols == ref_ncols
    assert rank == ref_rank == ncols
    assert sol is not None and sol == ref_sol
    # the unknowns are the images nabla(z_j), at j * dim(E (x)_A E)
    calc = geo.calc
    gens = calc.one_forms.central_generators
    nt = calc.tensor_square.dim
    assert sol == {j * nt + y: v for j, z in enumerate(gens.zs)
                   for y, v in _apply_sparse(direct, z).items()}
    # k^2 dim E compatibility rows, k dim Omega^2 torsion rows, then the
    # relations among the z_j
    k = len(gens.zs)
    compat = k * k * calc.one_forms.dim
    assert len(rows) == compat + k * calc.two_forms.dim + len(gens.relation_rows(
        calc.tensor_square.bimodule))
    assert len(ref_rows) == calc.algebra.dim * compat + len(rows) - compat


@pytest.mark.parametrize("fixture, seed", DIRECT_CASES)
def test_direct_route_matches_the_perturbation_oracle(request, fixture, seed):
    # solving for nabla(z_j) outright gives the connection, and the rank,
    # that solving for a perturbation of the reference connection gives
    geo = _direct_geo(request, fixture, seed)
    direct = levi_civita_direct(geo)
    oracle, oracle_rank = levi_civita_perturbation(geo)
    assert direct == oracle
    nunk = len(geo.calc.one_forms.central_generators.zs) * geo.calc.tensor_square.dim
    assert nunk == oracle_rank


def test_line_fixture_relations_have_leibniz_constants(line_geo):
    # on K[x]/(x^3) the Leibniz rule puts a constant on some of the
    # relations among the z_j, so the direct route's relation rows are
    # not homogeneous there
    constants = leibniz_constants(line_geo.calc)
    assert len(constants) == len(line_geo.calc.one_forms.central_generators.relations) == 6
    assert sum(not vec_is_zero(c) for c in constants) == 3


# -- the Levi-Civita conditions on generators ------------------------------------

def generator_verdicts(geo, conn) -> tuple[bool, bool]:
    """(torsionless, compatible) as the conditions on generators read them."""
    ncompat = geo.conditions.ncompat
    rows = defects(geo, conn)
    return all(i < ncompat for i in rows), all(i >= ncompat for i in rows)


@pytest.fixture(scope="module")
def fuzzy2_geo(fuzzy2_calc):
    return _seeded_geo(fuzzy2_calc, 2)


def _verdict_cases(geo):
    cases = {"levi-civita": levi_civita_direct(geo),
             "reference": nabla_zero(geo.calc, geo.sigma),
             "grassmann": grassmann(geo.calc, geo.sigma)}
    cases.update((f"perturbed-{seed}", random_leibniz_perturbation(geo, seed))
                 for seed in range(1, 4))
    cases.update((f"torsionless-{seed}", random_torsionless_perturbation(geo, seed))
                 for seed in range(1, 3))
    return cases


# line_geo, over K[x]/(x^3), has no bracket on its fields, so certify's
# covariant table cannot be read there; its generator verdicts still are
@pytest.mark.parametrize("fixture, covariant", [
    ("fuzzy_geo", True), ("fuzzy2_geo", True), ("fuzzy3_geo", True), ("torus_geo", True),
    ("line_geo", False)])
def test_generator_verdicts_match_whole_maps(request, fixture, covariant):
    geo = request.getfixturevalue(fixture)
    seen = set()
    for name, conn in _verdict_cases(geo).items():
        want = levi_civita_verdicts_reference(geo, conn)
        assert generator_verdicts(geo, conn) == want, name
        if covariant:
            # certify raises if its covariant verdicts and these disagree
            verdicts = certify(geo, conn)
            assert (not verdicts.torsion_witnesses, not verdicts.compat_witnesses) == want, name
        seen.add(want)
    assert levi_civita_verdicts_reference(geo, levi_civita_direct(geo)) == (True, True)
    # the torsionless draws keep torsion zero; a compatible one is an accident
    assert (True, False) in seen


def test_both_mixed_verdicts_on_matrix_derivations(fuzzy_geo):
    # the reference connection is torsionless but not compatible, the
    # Grassmann connection compatible but not torsionless
    geo = fuzzy_geo
    gr, n0 = grassmann(geo.calc, geo.sigma), nabla_zero(geo.calc, geo.sigma)
    assert levi_civita_verdicts_reference(geo, n0) == (True, False)
    assert levi_civita_verdicts_reference(geo, gr) == (False, True)
    assert generator_verdicts(geo, n0) == (True, False)
    assert generator_verdicts(geo, gr) == (False, True)


@pytest.mark.parametrize("condition", ["torsion", "compatibility"])
@pytest.mark.parametrize("side", ["covariant", "generators"])
def test_certify_raises_when_the_verdicts_disagree(fuzzy_geo, monkeypatch, condition, side):
    # the Grassmann connection fails only torsion, the reference connection
    # only compatibility; hiding that failure from one side must raise
    geo = fuzzy_geo
    conn = (grassmann if condition == "torsion" else nabla_zero)(geo.calc, geo.sigma)
    if side == "generators":
        monkeypatch.setattr(connection, "defects", lambda geo, conn: {})
    else:
        witnesses = "torsion_witnesses" if condition == "torsion" else "compat_witnesses"
        monkeypatch.setattr(connection, witnesses, lambda geo, table: ())
    with pytest.raises(InternalInconsistencyError, match=f"{condition} verdicts disagree"):
        certify(geo, conn)


def test_certify_reads_the_conditions_on_generators_only(fuzzy3_geo, monkeypatch):
    # on a fresh geometry, certify neither forms the whole torsion matrix
    # (the engine has none to form) nor extends a map over the central tensors
    geo = Geometry(fuzzy3_geo.calc, fuzzy3_geo.sigma, fuzzy3_geo.metric)
    conns = [levi_civita_direct(fuzzy3_geo),
             nabla_zero(fuzzy3_geo.calc, fuzzy3_geo.sigma),
             grassmann(geo.calc, geo.sigma)]
    real = CentralGenerators.extend
    extended = []

    def recording(self, values, out_dim):
        if self.source is geo.calc.tensor_square.bimodule:
            extended.append(out_dim)
        return real(self, values, out_dim)

    assert not hasattr(connection, "torsion")
    monkeypatch.setattr(CentralGenerators, "extend", recording)
    verdicts = [certify(geo, conn) for conn in conns]
    assert extended == []
    assert [(not v.torsion_witnesses, not v.compat_witnesses) for v in verdicts] == [
        (True, True), (True, False), (False, True)]
