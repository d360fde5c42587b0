"""Maps on E (x)_A E fixed by their values on the central tensors.

The tameness certificate keeps E (x)_A E as one `CentralGenerators` over the
central tensors pi(z_p (x) z_q); sigma, the compatibility map Pi_g and the
seeded metric are each extended from their values on it.  These tests hold
every such map to `dense_reference.through_central_tensors`, the same map
solved by solve_through over the translates pi(z_p (x) z_q) . a_r.
"""

import pytest

from dense_reference import pure, through_central_tensors
from perturbations import random_metric
from tamecalc.bimodule import CentralGenerators
from tamecalc.calculus import build_symmetry
from tamecalc.connection import Geometry, compat_values, levi_civita_direct, pi_g_matrix
from tamecalc.linalg import ONE, Matrix, _apply_sparse, vec_to_sparse
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
