"""Shared geometry fixtures: built once per session, everything downstream
is read-only."""

import importlib.util
import sys
from pathlib import Path

import pytest

from dense_reference import from_rows, left_mult
from tamecalc.algebra import Algebra
from tamecalc.builders import (
    ChevalleySpec,
    build_chevalley,
    preset_abelian_torus,
    preset_matrix_derivations,
)
from tamecalc.calculus import build_symmetry
from tamecalc.connection import Geometry
from tamecalc.linalg import Matrix, ONE, ZERO, basis_vector, qi, vec_to_sparse, zero_vector
from tamecalc.metric import validate_metric


def _geometry(preset):
    cert = build_symmetry(preset.calculus).certificate
    metric = validate_metric(preset.calculus, cert, preset.metric_plain).metric
    return Geometry(preset.calculus, cert, metric)


def constant_metric_plain(spec: ChevalleySpec, c) -> Matrix:
    """g(theta_j (x) theta_k) = c[j][k] 1 on the frame one-forms, on plain
    tensor coordinates: g(phi_{j,a} (x) phi_{k,b}) = c_jk b_a b_b.  Unless c
    is diagonal, V_g^{-1} mixes the frame directions."""
    alg = spec.algebra
    nA, nL = alg.dim, spec.lie_dim
    ne = nL * nA
    entries = [[ZERO] * (ne * ne) for _ in range(nA)]
    for j in range(nL):
        for k in range(nL):
            if c[j][k] == 0:
                continue
            cjk = qi(c[j][k])
            for alpha in range(nA):
                for beta in range(nA):
                    col = (j * nA + alpha) * ne + (k * nA + beta)
                    for gamma, v in vec_to_sparse(alg.mul[alpha][beta]).items():
                        entries[gamma][col] = cjk * v
    return Matrix(nA, ne * ne, entries)


# dense symmetric invertible Gram matrices on the frame one-forms
GRAM_3 = ((2, 1, -1), (1, 3, 1), (-1, 1, 2))
GRAM_2 = ((2, 1), (1, -1))


def certified(x):
    """x (a calculus or a Lie datum) with its algebra certified, as `check`
    does before it reads the calculus: the builders leave certification to
    the commands, and the checks over the algebra's generators need it."""
    x.algebra.validate()
    return x


@pytest.fixture(scope="session")
def fuzzy_preset():
    preset = preset_matrix_derivations(2)
    certified(preset.calculus)
    return preset


@pytest.fixture(scope="session")
def torus_preset():
    preset = preset_abelian_torus(2)
    certified(preset.calculus)
    return preset


@pytest.fixture(scope="session")
def fuzzy_geo(fuzzy_preset):
    return _geometry(fuzzy_preset)


@pytest.fixture(scope="session")
def torus_geo(torus_preset):
    return _geometry(torus_preset)


def load_perfbench(name: str):
    """The benchmark's module perfbench/<name>.py, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def fuzzy3_calc():
    """The fuzzy sphere N = 3 of the benchmark inputs: A = M_3, dim E = 27."""
    return build_chevalley(load_perfbench("inputs").fuzzy_sphere_chevalley(3))


def truncated_line_spec() -> ChevalleySpec:
    """K[x]/(x^3) with the Euler derivation; commutative, tame, Z(A) = A."""
    dim = 3
    z = zero_vector(dim)
    e = [basis_vector(dim, k) for k in range(dim)]
    mul = [[z] * dim for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            if a + b < dim:
                mul[a][b] = e[a + b]
    alg = Algebra(dim, ("1", "x", "x^2"), e[0], mul)
    alg.validate()
    euler = from_rows([(ZERO, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, qi(2))])
    return ChevalleySpec(alg, 1, ((z[:1],),), (euler,))


@pytest.fixture(scope="session")
def line_geo():
    """The commutative fixture with the non-constant metric (1 + x) a b."""
    calc = build_chevalley(truncated_line_spec())
    cert = build_symmetry(calc).certificate
    alg = calc.algebra
    e0, e1 = basis_vector(3, 0), basis_vector(3, 1)
    weight = left_mult(alg, tuple(x + y for x, y in zip(e0, e1)))
    entries = [[ZERO] * 9 for _ in range(3)]
    for alpha in range(3):
        for beta in range(3):
            val = weight.apply(alg.mul[alpha][beta])
            for gamma in range(3):
                entries[gamma][alpha * 3 + beta] = val[gamma]
    metric = validate_metric(calc, cert, Matrix(3, 9, entries)).metric
    return Geometry(calc, cert, metric)
