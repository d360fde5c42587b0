"""Pseudo-Riemannian bilinear metrics and the vector-field module.

A metric is a bilinear symmetric map on the tensor square of the one-forms
whose one-leg contraction V_g identifies the one-forms with their dual.
Pulling the center of the one-forms through V_g produces the vector fields,
which act on the algebra by derivations; the pairing they inherit drives
the Koszul machinery in the connection module.  E* is taken over the
fields X_p = V_g(z_p) as one `CentralGenerators`, through which the general
bracket decomposes a dual element.  The seeded metric is fixed, like sigma,
by its values on the central tensors of the tameness certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Sequence

from .bimodule import CentralGenerators, HomModule, dual_module, module_center
from .calculus import Calculus, TamenessCertificate
from .errors import (
    CenterMismatchError,
    ContractViolationError,
    InternalInconsistencyError,
)
from .linalg import (
    LinAlgError,
    Matrix,
    ONE,
    Scalar,
    Subspace,
    Vector,
    _apply_sparse,
    _lincomb,
    basis_vector,
    qi,
    sparse_to_vec,
    vec_is_zero,
    vec_to_sparse,
    zero_vector,
)


@dataclass(frozen=True)
class Metric:
    """A validated metric: quotient-coordinate form plus both legs of V_g."""

    g: Matrix                 # A-coords <- tensor-square quotient coords
    e_star: HomModule         # Hom_A(E, A)
    v_g: Matrix               # E* coords <- E coords
    v_g_inv: Matrix

    def g_plain(self, calc: Calculus) -> Matrix:
        return self.g @ calc.tensor_square.project

    def functional(self, coords: Vector) -> Matrix:
        """The dual element with the given coordinates, as a map E -> A."""
        return self.e_star.matrix_of(coords)

    def form_of(self, phi: dict[int, Scalar]) -> dict[int, Scalar]:
        """V_g^{-1} phi as a sparse one-form, for sparse dual coordinates."""
        return _apply_sparse(self.v_g_inv, phi)


@dataclass(frozen=True)
class MetricFailure:
    reason: str               # NotBilinear | NotSymmetric | VgNotInvertible
    detail: str
    witness: object = None


@dataclass(frozen=True)
class MetricOutcome:
    metric: Metric | None
    failure: MetricFailure | None

    @property
    def ok(self) -> bool:
        return self.metric is not None


def _fail(reason: str, detail: str, witness=None) -> MetricOutcome:
    return MetricOutcome(None, MetricFailure(reason, detail, witness))


def validate_metric(calc: Calculus, cert: TamenessCertificate, g_in: Matrix) -> MetricOutcome:
    """Check bilinearity, symmetry and invertibility; build both legs of V_g.

    Accepts the metric either on plain tensor coordinates (dim E^2 columns,
    lifted by checking it kills the relations) or directly on quotient
    coordinates.  Bilinearity needs only the algebra's generators once the
    calculus validated.
    """
    qt = calc.tensor_square
    alg = calc.algebra
    e = calc.one_forms
    if g_in.rows != alg.dim:
        return _fail("NotBilinear", f"metric must be valued in the algebra ({alg.dim} rows)")
    if g_in.cols == qt.ambient_dim:
        unkilled = qt.first_unkilled(g_in)
        if unkilled is not None:
            return _fail("NotBilinear",
                         "metric on plain tensors does not kill the (x)_A relations",
                         unkilled)
        g = g_in @ qt.section
    elif g_in.cols == qt.dim:
        g = g_in
    else:
        return _fail("NotBilinear",
                     f"metric has {g_in.cols} columns; expected {qt.ambient_dim} (plain) "
                     f"or {qt.dim} (quotient)")

    def unbilinear(indices: Sequence[int]) -> MetricOutcome | None:
        for i in indices:
            if g @ qt.bimodule.left[i] != alg.left_basis_matrix(i) @ g:
                return _fail("NotBilinear", "metric is not left-linear", alg.labels[i])
            if g @ qt.bimodule.right[i] != alg.right_basis_matrix(i) @ g:
                return _fail("NotBilinear", "metric is not right-linear", alg.labels[i])
        return None

    failure = alg.first_failure(unbilinear, calc.validated)
    if failure is not None:
        return failure

    if g @ cert.sigma != g:
        for j in range(qt.dim):
            col = basis_vector(qt.dim, j)
            if g.apply(cert.sigma.apply(col)) != g.apply(col):
                return _fail("NotSymmetric", "g(sigma(x)) != g(x)", col)
        raise InternalInconsistencyError("matrix inequality without a witness column")

    e_star = dual_module(e)
    if e_star.dim != e.dim:
        return _fail("VgNotInvertible",
                     f"dual module has dimension {e_star.dim}, one-forms {e.dim}")
    cols = []
    for i in range(e.dim):
        functional = Matrix.from_sparse_cols(
            [_apply_sparse(g, qt.pure_sparse({i: ONE}, {j: ONE})) for j in range(e.dim)], alg.dim)
        coords = e_star.sparse_coords_of(functional)
        if coords is None:
            raise InternalInconsistencyError(
                "one-leg contraction of a right-linear metric is not right-linear")
        cols.append(coords)
    v_g = Matrix.from_sparse_cols(cols, e_star.dim)
    try:
        v_g_inv = v_g.inverse()
    except LinAlgError:
        kernel = v_g.kernel()
        return _fail("VgNotInvertible", "V_g has a nontrivial kernel",
                     kernel.basis[0] if kernel.dim else None)
    return MetricOutcome(Metric(g=g, e_star=e_star, v_g=v_g, v_g_inv=v_g_inv), None)


# ---------------------------------------------------------------------------
# Vector fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VectorFieldModule:
    """X(A): the image of the central one-forms under V_g.

    basis[p] are E*-coordinates of X_p = V_g(z_p); maps[p] the same elements
    as concrete functionals; deltas[p] the derivation a -> X_p(da).
    """

    basis: tuple[Vector, ...]
    maps: tuple[Matrix, ...]
    deltas: tuple[Matrix, ...]
    center_dual: Subspace              # Z(E*) in E* coordinates
    generators: CentralGenerators      # E* over the X_p

    @property
    def count(self) -> int:
        return len(self.basis)

    def contains(self, phi: Vector) -> bool:
        return self.center_dual.contains_vector(phi)


def vector_fields(calc: Calculus, cert: TamenessCertificate, metric: Metric) -> VectorFieldModule:
    """Build X(A) = V_g(Z(E)), certify it equals Z(E*), attach derivations."""
    alg = calc.algebra
    e_star = metric.e_star
    forms = [_apply_sparse(metric.v_g, z) for z in cert.center_one_forms.rows]
    basis = tuple(sparse_to_vec(x, e_star.dim) for x in forms)
    image = Subspace(e_star.dim, forms)
    center_dual = module_center(e_star.bimodule)
    if image != center_dual:
        raise CenterMismatchError(
            "V_g(Z(E)) differs from the center of the dual module",
            witness=(image.dim, center_dual.dim))
    maps = tuple(e_star.matrix_of(x) for x in basis)
    deltas = tuple(m @ calc.d0 for m in maps)
    for p, d in enumerate(deltas):
        if not alg.is_derivation(d):
            raise InternalInconsistencyError(
                f"vector field {p} does not act as a derivation")
    generators = CentralGenerators(e_star.bimodule, forms)
    if not generators.spans:
        raise InternalInconsistencyError(
            "vector fields are not right-total in the dual module")
    return VectorFieldModule(
        basis=basis, maps=maps, deltas=deltas, center_dual=center_dual,
        generators=generators)


def delta_of(calc: Calculus, metric: Metric, phi: Vector) -> Matrix:
    """The map a -> phi(da) for any dual element (a derivation iff central)."""
    return metric.e_star.matrix_of(phi) @ calc.d0


# ---------------------------------------------------------------------------
# The induced pairing on the dual
# ---------------------------------------------------------------------------

def g_tilde(calc: Calculus, metric: Metric, phi: Vector, psi: Vector) -> Vector:
    """g(V_g^{-1} phi (x) V_g^{-1} psi) for dual coordinates phi, psi."""
    g_plain = metric.g_plain(calc)
    return sparse_to_vec(g_of_forms(g_plain, calc.one_forms.dim,
                                    metric.form_of(vec_to_sparse(phi)),
                                    metric.form_of(vec_to_sparse(psi))), g_plain.rows)


def g_of_forms(g_plain: Matrix, e_dim: int, u: dict[int, Scalar],
               w: dict[int, Scalar]) -> dict[int, Scalar]:
    """g(u (x) w) for sparse one-forms u, w, sparse in the algebra: the sum
    of u_s w_t times column s * e_dim + t of the metric on plain tensors."""
    cols = g_plain.sparse_cols()
    return _lincomb((a * b, cols[s * e_dim + t]) for s, a in u.items() for t, b in w.items())


# ---------------------------------------------------------------------------
# Seeded metric generator for the exercise suites
# ---------------------------------------------------------------------------

def random_metric(calc: Calculus, cert: TamenessCertificate, seed: int,
                  attempts: int = 64) -> Matrix:
    """A deterministic, seeded, valid, non-Euclidean metric on quotient coords.

    Coefficients on central generator pairs are drawn from the center of the
    algebra (symmetrically), which makes the candidate automatically bilinear
    and symmetric; invertibility of V_g is then checked exactly and failing
    draws are discarded.
    """
    rng = Random(seed)
    alg = calc.algebra
    zc_alg = alg.center()
    nz = len(cert.central_basis)
    if nz == 0:
        raise ContractViolationError("random_metric needs at least one central one-form")
    for _ in range(attempts):
        coeff: list[list[Vector]] = [[zero_vector(alg.dim)] * nz for _ in range(nz)]
        for p in range(nz):
            for q in range(p, nz):
                vec = zero_vector(alg.dim)
                for zb in zc_alg.basis:
                    c = qi(rng.randint(-3, 3))
                    vec = tuple(x + c * y for x, y in zip(vec, zb))
                coeff[p][q] = vec
                coeff[q][p] = vec
        # g(pi(z_p (x) z_q) . a_r) = coeff[p][q] a_r
        values = [_apply_sparse(alg.right_basis_matrix(r), vec_to_sparse(coeff[p][q]))
                  for p in range(nz) for q in range(nz) for r in range(alg.dim)]
        g = cert.spanning.extend(values, alg.dim)
        if g is None:
            continue
        outcome = validate_metric(calc, cert, g)
        if not outcome.ok:
            continue
        euclidean = all(
            (coeff[p][q] == alg.unit if p == q else vec_is_zero(coeff[p][q]))
            for p in range(nz) for q in range(nz))
        if euclidean:
            continue
        return g
    raise ContractViolationError(f"no valid metric found in {attempts} seeded draws")
