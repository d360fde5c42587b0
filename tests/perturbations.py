"""Seeded test inputs: metrics and Leibniz perturbations.

A seeded metric is fixed, like sigma, by its values on the central tensors
of the tensor square, drawn from the center of the algebra.  The
perturbation shifts are drawn over the basis of hom_A(E, E (x)_A E), the
right-linear maps built from the images of the central generators of the
one-forms, or over the part of it that the wedge kills.  That construction
is checked against the kernel construction dense_reference.hom_kernel.
"""

from random import Random

from dense_reference import CertificateParts, center, nabla_zero, vec_is_zero
from tamecalc.bimodule import Bimodule, hom_A
from tamecalc.calculus import Calculus
from tamecalc.connection import Geometry
from tamecalc.errors import ContractViolationError, Refusal
from tamecalc.linalg import (
    Matrix,
    Scalar,
    Vector,
    ZERO,
    _apply_sparse,
    _lincomb,
    kernel_rows,
    qi,
    vec_to_sparse,
    zero_vector,
)
from tamecalc.metric import validate_metric


def random_leibniz_perturbation(geo: Geometry, seed: int) -> Matrix:
    """The reference connection plus a nonzero seeded right-linear shift."""
    rng = Random(seed)
    hom = hom_A(geo.calc.one_forms, geo.calc.tensor_square.bimodule)
    qt = geo.calc.tensor_square
    e = geo.calc.one_forms
    while True:
        alpha = Matrix.zeros(qt.dim, e.dim)
        nonzero = False
        for s in range(hom.dim):
            c = rng.randint(-2, 2)
            if c:
                nonzero = True
                alpha = alpha + hom.basis[s].scale(qi(c))
        if nonzero or hom.dim == 0:
            return nabla_zero(geo.calc, geo.sigma) + alpha


def random_torsionless_perturbation(geo: Geometry, seed: int) -> Matrix:
    """The reference connection plus a seeded right-linear shift alpha with
    wedge o alpha == 0, drawn over a kernel basis of alpha -> wedge o alpha
    on hom_A(E, E (x)_A E): torsionless, and compatible only by accident."""
    rng = Random(seed)
    hom = hom_A(geo.calc.one_forms, geo.calc.tensor_square.bimodule)
    ne = geo.calc.one_forms.dim
    rows: dict[int, dict[int, Scalar]] = {}
    for s, h in enumerate(hom.basis):
        for r, row in enumerate((geo.calc.wedge_q @ h).sparse_rows()):
            for c, v in row.items():
                rows.setdefault(r * ne + c, {})[s] = v
    kernel = kernel_rows(list(rows.values()), hom.dim)
    x = {}
    while kernel and not x:
        x = _lincomb([(qi(rng.randint(-2, 2)), k) for k in kernel])
    alpha = Matrix.zeros(geo.calc.tensor_square.dim, ne)
    for s, c in x.items():
        alpha = alpha + hom.basis[s].scale(c)
    return nabla_zero(geo.calc, geo.sigma) + alpha


def random_metric(calc: Calculus, sigma: Matrix, seed: int,
                  attempts: int = 64) -> Matrix:
    """A deterministic, seeded, valid, non-Euclidean metric on plain tensor
    coordinates, the form `validate_metric` takes.

    Coefficients on central generator pairs are drawn from the center of the
    algebra (symmetrically), which makes the candidate automatically bilinear
    and symmetric.  The integer draws are coordinates in a kernel basis of
    the conditions that the relations among the central tensors put on the
    coefficients, so every draw extends to a map on the tensor square; on a
    free E there are no conditions and the draws are the coefficients
    themselves.  Invertibility of V_g is then checked exactly and failing
    draws are discarded.
    """
    rng = Random(seed)
    alg = calc.algebra
    zc_alg = center(alg)
    spanning = CertificateParts(calc, sigma).spanning
    nz = len(calc.one_forms.central_generators.zs)
    if nz == 0:
        raise ContractViolationError("random_metric needs at least one central one-form")
    # unknown u = (p, q, b), p <= q, is the coefficient of center basis
    # element b in g(pi(z_p (x) z_q)); lift sends it to the coordinates of
    # the images g(pi(z_p (x) z_q)) and g(pi(z_q (x) z_p)) it sets, on which
    # the relation rows of the central tensors are posed
    unknowns = [(p, q, b) for p in range(nz) for q in range(p, nz) for b in range(zc_alg.dim)]
    nimages = nz * nz * alg.dim
    lift = Matrix.from_sparse_cols(
        [{j * alg.dim + y: v for j in (p * nz + q, q * nz + p) for y, v in zc_alg.rows[b].items()}
         for p, q, b in unknowns], nimages)
    relations = Matrix.from_sparse_rows(
        spanning.relation_rows(Bimodule.regular(alg)), nimages)
    kernel = kernel_rows((relations @ lift).sparse_rows(), len(unknowns))
    for _ in range(attempts):
        x = _lincomb([(qi(rng.randint(-3, 3)), k) for k in kernel])
        coeff: list[list[Vector]] = [[zero_vector(alg.dim)] * nz for _ in range(nz)]
        for u, (p, q, b) in enumerate(unknowns):
            c = x.get(u, ZERO)
            coeff[p][q] = coeff[q][p] = tuple(v + c * y for v, y in
                                              zip(coeff[p][q], zc_alg.basis[b]))
        # g(pi(z_p (x) z_q) . a_r) = coeff[p][q] a_r
        values = [_apply_sparse(alg.right_basis_matrix(r), vec_to_sparse(coeff[p][q]))
                  for p in range(nz) for q in range(nz) for r in range(alg.dim)]
        g = spanning.extend(values, alg.dim) @ calc.tensor_square.project
        if isinstance(validate_metric(calc, sigma, g), Refusal):
            continue
        euclidean = all(
            (coeff[p][q] == alg.unit if p == q else vec_is_zero(coeff[p][q]))
            for p in range(nz) for q in range(nz))
        if euclidean:
            continue
        return g
    raise ContractViolationError(f"no valid metric found in {attempts} seeded draws")
