"""Pseudo-Riemannian bilinear metrics and the vector-field module.

A metric is a bilinear symmetric map on the tensor square of the one-forms
whose one-leg contraction V_g identifies the one-forms with their dual.
Pulling the center of the one-forms through V_g produces the vector fields,
which act on the algebra by derivations; the pairing they inherit drives
the Koszul machinery in the connection module.  E* is taken over the
fields X_p = V_g(z_p) as one `CentralGenerators`, through which the general
bracket decomposes a dual element.  A dual element, a vector field
included, is a zero-free sparse dict of E* coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bimodule import CentralGenerators, HomModule, dual_module, module_center
from .calculus import Calculus, TamenessCertificate
from .errors import CenterMismatchError, InternalInconsistencyError
from .linalg import (
    LinAlgError,
    Matrix,
    Scalar,
    Subspace,
    _apply_sparse,
    _lincomb,
    basis_vector,
)


@dataclass(frozen=True)
class Metric:
    """A validated metric: quotient-coordinate form plus both legs of V_g."""

    g: Matrix                 # A-coords <- tensor-square quotient coords
    g_plain: Matrix           # A-coords <- plain tensor coords, the input
    e_star: HomModule         # Hom_A(E, A)
    v_g: Matrix               # E* coords <- E coords
    v_g_inv: Matrix

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

    g_in is the metric on plain tensor coordinates (dim E^2 columns), as
    every spec, metric file and builder gives it; once it kills the relations
    its quotient form is g_in @ section.  Bilinearity needs only the
    algebra's generators once the calculus validated.
    """
    qt = calc.tensor_square
    alg = calc.algebra
    e = calc.one_forms
    if g_in.rows != alg.dim:
        return _fail("NotBilinear", f"metric must be valued in the algebra ({alg.dim} rows)")
    if g_in.cols != qt.ambient_dim:
        return _fail("NotBilinear",
                     f"metric has {g_in.cols} columns; expected {qt.ambient_dim} (plain)")
    unkilled = qt.first_unkilled(g_in)
    if unkilled is not None:
        return _fail("NotBilinear",
                     "metric on plain tensors does not kill the (x)_A relations", unkilled)
    g = g_in @ qt.section

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

    g_sigma = g @ cert.sigma
    if g_sigma != g:
        # column j of g sigma is g(sigma(e_j)): the first that differs names e_j
        j = next(j for j, (a, b) in enumerate(zip(g_sigma.sparse_cols(), g.sparse_cols()))
                 if a != b)
        return _fail("NotSymmetric", "g(sigma(x)) != g(x)", basis_vector(qt.dim, j))

    e_star = dual_module(e)
    if e_star.dim != e.dim:
        return _fail("VgNotInvertible",
                     f"dual module has dimension {e_star.dim}, one-forms {e.dim}")
    # column i * dim E + j of g_in is g(pi(e_i (x) e_j)), so V_g(e_i) is
    # the dual element whose values are the i-th run of dim E columns
    g_cols = g_in.sparse_cols()
    cols = []
    for i in range(e.dim):
        functional = Matrix.from_sparse_cols(g_cols[i * e.dim:(i + 1) * e.dim], alg.dim)
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
    return MetricOutcome(Metric(g=g, g_plain=g_in, e_star=e_star, v_g=v_g,
                                v_g_inv=v_g_inv), None)


# ---------------------------------------------------------------------------
# Vector fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VectorFieldModule:
    """X(A): the image of the central one-forms under V_g.

    basis[p] are the sparse E*-coordinates of X_p = V_g(z_p); maps[p] the
    same elements as concrete functionals; deltas[p] the derivation
    a -> X_p(da).
    """

    basis: tuple[dict[int, Scalar], ...]
    maps: tuple[Matrix, ...]
    deltas: tuple[Matrix, ...]
    center_dual: Subspace              # Z(E*) in E* coordinates
    generators: CentralGenerators      # E* over the X_p

    @property
    def count(self) -> int:
        return len(self.basis)

    def contains(self, phi: dict[int, Scalar]) -> bool:
        """Is the sparse dual element phi a vector field (central in E*)?"""
        return not self.center_dual._residual(dict(phi))


def vector_fields(calc: Calculus, cert: TamenessCertificate, metric: Metric) -> VectorFieldModule:
    """Build X(A) = V_g(Z(E)), certify it equals Z(E*), attach derivations."""
    alg = calc.algebra
    e_star = metric.e_star
    basis = tuple(_apply_sparse(metric.v_g, z) for z in cert.center_one_forms.rows)
    image = Subspace(e_star.dim, basis)
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
    generators = CentralGenerators(e_star.bimodule, basis)
    if not generators.spans:
        raise InternalInconsistencyError(
            "vector fields are not right-total in the dual module")
    return VectorFieldModule(
        basis=basis, maps=maps, deltas=deltas, center_dual=center_dual,
        generators=generators)


# ---------------------------------------------------------------------------
# The induced pairing on the dual
# ---------------------------------------------------------------------------

def g_of_forms(g_plain: Matrix, e_dim: int, u: dict[int, Scalar],
               w: dict[int, Scalar]) -> dict[int, Scalar]:
    """g(u (x) w) for sparse one-forms u, w, sparse in the algebra: the sum
    of u_s w_t times column s * e_dim + t of the metric on plain tensors."""
    cols = g_plain.sparse_cols()
    return _lincomb((a * b, cols[s * e_dim + t]) for s, a in u.items() for t, b in w.items())
