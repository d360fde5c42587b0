"""Maps on E (x)_A E fixed by their values on the central tensors.

The tameness certificate keeps E (x)_A E as one `CentralGenerators` over the
central tensors pi(z_p (x) z_q); sigma, the compatibility map Pi_g and the
seeded metric are each extended from their values on it.  These tests hold
every such map to `dense_reference.through_central_tensors`, the same map
solved by solve_through over the translates pi(z_p (x) z_q) . a_r, and the
direct route's compatibility rows, posed once per central tensor, to the
system posed on every translate.
"""

import pytest

from conftest import load_perfbench
from dense_reference import direct_system_reference, pure, through_central_tensors
from perturbations import random_metric
from tamecalc import connection
from tamecalc.bimodule import CentralGenerators
from tamecalc.builders import build_chevalley
from tamecalc.calculus import build_symmetry
from tamecalc.connection import Geometry, compat_values, levi_civita_direct, pi_g_matrix
from tamecalc.linalg import ONE, Matrix, _apply_sparse, solve_sparse, vec_to_sparse
from tamecalc.metric import validate_metric


@pytest.fixture(scope="module")
def fuzzy3_geo(fuzzy3_calc):
    cert = build_symmetry(fuzzy3_calc).certificate
    metric = validate_metric(fuzzy3_calc, cert, random_metric(fuzzy3_calc, cert, 3)).metric
    return Geometry(fuzzy3_calc, cert, metric)


@pytest.fixture(params=["fuzzy", "torus", "fuzzy3", "line"])
def geo(request):
    return request.getfixturevalue(
        {"fuzzy": "fuzzy_geo", "torus": "torus_geo", "fuzzy3": "fuzzy3_geo",
         "line": "line_geo"}[request.param])


def test_family_is_the_central_tensors(geo):
    cert = geo.cert
    qt = geo.calc.tensor_square
    zs = cert.center_one_forms.rows
    assert cert.spanning.source is qt.bimodule
    assert cert.spanning.spans
    assert cert.spanning.zs == tuple(qt.pure_sparse(zp, zq) for zp in zs for zq in zs)


def test_sigma_matches_solve_through(geo):
    calc = geo.calc
    qt = calc.tensor_square
    zs = geo.cert.center_one_forms.basis
    flipped = [qt.bimodule.right[r].apply(pure(qt, zq, zp))
               for zp in zs for zq in zs for r in range(calc.algebra.dim)]
    assert geo.cert.sigma == through_central_tensors(calc, flipped, qt.dim)


def test_compatibility_map_matches_solve_through(geo):
    calc = geo.calc
    for conn in (geo.nabla0, levi_civita_direct(geo).connection):
        want = through_central_tensors(calc, compat_values(geo, conn), calc.one_forms.dim)
        assert want is not None
        assert pi_g_matrix(geo, conn) == want


def test_seeded_metric_matches_solve_through(geo, line_geo, monkeypatch):
    # every draw that random_metric extends, kept or discarded
    calc, cert = geo.calc, geo.cert
    real = CentralGenerators.extend
    calls = []

    def recording(self, values, out_dim):
        got = real(self, values, out_dim)
        if self is cert.spanning:
            calls.append((values, out_dim, got))
        return got

    monkeypatch.setattr(CentralGenerators, "extend", recording)
    assert random_metric(calc, cert, 5) == calls[-1][2]
    for values, out_dim, got in calls:
        assert got is not None
        assert got == through_central_tensors(calc, values, out_dim)


@pytest.mark.parametrize("seed", range(6))
def test_seeded_metric_on_a_module_that_is_not_free(line_geo, seed):
    # on K[x]/(x^3) the central tensors' translates carry 24 relations; the
    # draws live in the kernel of the conditions they put on the
    # coefficients, so each seed gives a valid metric that is not the
    # Euclidean one
    calc, cert = line_geo.calc, line_geo.cert
    alg = calc.algebra
    g = random_metric(calc, cert, seed)
    assert validate_metric(calc, cert, g).ok
    # g(z_p (x) z_q) is not 1 on the diagonal and 0 off it
    k = len(cert.center_one_forms.basis)
    unit = vec_to_sparse(alg.unit)
    on_central = [_apply_sparse(g, z) for z in cert.spanning.zs]
    assert on_central != [unit if p == q else {} for p in range(k) for q in range(k)]
    assert g == random_metric(calc, cert, seed)


def test_line_fixture_tensor_relations_refuse_breaking_values(line_geo):
    # 3 * 3 central tensors times dim A = 3 translates span the 3-dimensional
    # tensor square with 24 relations; values breaking one give no map
    calc = line_geo.calc
    span = line_geo.cert.spanning
    assert calc.tensor_square.dim == 3
    assert len(span.zs) * calc.algebra.dim == 27
    assert len(span.relations) == 24
    values = [{} for _ in range(27)]
    values[min(span.relations[0])] = {0: ONE}
    assert span.extend(values, 1) is None
    assert through_central_tensors(calc, values, 1) is None
    # the translates' own classes keep every relation and give the identity
    translates = [_apply_sparse(calc.tensor_square.bimodule.right[r], z)
                  for z in span.zs for r in range(calc.algebra.dim)]
    assert span.extend(translates, 3) == Matrix.identity(3)


def test_flip_breaking_a_relation_is_reported(fuzzy_preset, monkeypatch):
    monkeypatch.setattr(CentralGenerators, "extend", lambda self, values, out_dim: None)
    outcome = build_symmetry(fuzzy_preset.calculus)
    assert not outcome.ok
    assert outcome.failure.condition == "FlipNotWellDefined"


@pytest.fixture(scope="module")
def fuzzy2_calc():
    """The fuzzy sphere N = 2 of the benchmark inputs: A = M_2, dim E = 12."""
    return build_chevalley(load_perfbench("inputs").fuzzy_sphere_chevalley(2))


def _seeded_geo(calc, seed):
    cert = build_symmetry(calc).certificate
    return Geometry(calc, cert, validate_metric(calc, cert, random_metric(calc, cert, seed)).metric)


# (fixture, seed of random_metric); None keeps the fixture's own metric.
# fuzzy_geo is matrix-derivations-2, torus_geo abelian-torus-2, and
# line_geo, over K[x]/(x^3), the one E with relations among its z_j.
DIRECT_CASES = [("fuzzy_geo", None), ("fuzzy_geo", 1), ("fuzzy2_calc", 2), ("fuzzy2_calc", 7),
                ("fuzzy3_geo", None), ("torus_geo", None), ("torus_geo", 4),
                ("line_geo", None), ("line_geo", 5)]


@pytest.mark.parametrize("fixture, seed", DIRECT_CASES)
def test_direct_compatibility_once_per_central_tensor(request, monkeypatch, fixture, seed):
    got = request.getfixturevalue(fixture)
    if isinstance(got, Geometry):
        geo = got if seed is None else _seeded_geo(got.calc, seed)
    else:
        geo = _seeded_geo(got, seed)
    geo.nabla0   # the reference connection's own solve is not recorded
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
    assert direct.kernel_dim == 0
    # k^2 dim E compatibility rows, k dim Omega^2 torsion rows, then the
    # relations among the z_j
    calc = geo.calc
    gens = calc.one_forms.central_generators
    k = len(gens.zs)
    compat = k * k * calc.one_forms.dim
    assert len(rows) == compat + k * calc.two_forms.dim + len(gens.relation_rows(
        calc.tensor_square.bimodule))
    assert len(ref_rows) == calc.algebra.dim * compat + len(rows) - compat
