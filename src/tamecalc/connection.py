"""Connections on the one-forms and both Levi-Civita solvers.

A connection is stored by its value matrix on a basis of the one-forms,
with the Leibniz rule as a checked invariant.  The module provides the
Grassmann connection of a frame, the torsionless reference connection, the
covariant derivative on vector fields, the Lie bracket, one certification
(`certify`) that reads torsion and metric compatibility off a single
covariant table and cross-checks each against its form-level formulation,
and two independent routes to the Levi-Civita connection:

* a Koszul route that reads every covariant derivative off the
  six-term formula and reconstructs the connection through the
  separating family of field pairs, and
* a direct route that solves the torsionless + compatible constraints
  over all Leibniz perturbations of the reference connection, each fixed
  by its images of the central generators of the one-forms.

Exact equality of the two routes is the engine's own strongest self-test.

A right-linear map out of the one-forms (a Grassmann splitting, a Leibniz
perturbation) is fixed by its images of the central generators z_i, and a
connection (Grassmann, reconstructed) by nabla(z_i) and the Leibniz rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .bimodule import Bimodule, pair_apply
from .calculus import Calculus, TamenessCertificate
from .errors import (
    BracketNotCentralError,
    BracketUnsolvableError,
    ContractViolationError,
    InternalInconsistencyError,
    NoSolutionError,
    NonUniqueSolutionError,
    NoSplittingError,
    NotRightLinearError,
    SystemSingularError,
    YNotCentralError,
)
from .linalg import (
    ColumnSolver,
    HALF,
    Matrix,
    ONE,
    Scalar,
    Vector,
    ZERO,
    _apply_sparse,
    _axpy,
    _lincomb,
    _product_rows,
    solve_sparse,
    sparse_to_vec,
    vec_is_zero,
    vec_to_sparse,
)
from .metric import Metric, VectorFieldModule, delta_of, g_of_forms, vector_fields


@dataclass(frozen=True)
class Connection:
    """A linear map from one-forms to the tensor square, on basis columns."""

    nabla: Matrix

    def of(self, omega: Vector) -> Vector:
        return self.nabla.apply(omega)


Table = tuple  # Table[p][q] = coordinates of the derivative of X_q along X_p


# ---------------------------------------------------------------------------
# Leibniz validation, Grassmann and the torsionless reference connection
# ---------------------------------------------------------------------------

def leibniz_witness(calc: Calculus, conn: Connection) -> tuple[int, int] | None:
    """First basis pair (s, i) with nabla(e_s . a_i) != nabla(e_s) . a_i +
    e_s (x) d a_i, algebra index outer, or None; compared on sparse columns.
    On a validated calculus the algebra's generators decide it."""
    e = calc.one_forms
    qt = calc.tensor_square
    ncols = conn.nabla.sparse_cols()
    dcols = calc.d0.sparse_cols()

    def pairs(indices: Sequence[int]) -> tuple[int, int] | None:
        for i in indices:
            rcols = e.right[i].sparse_cols()
            t2_right = qt.bimodule.right[i]
            for s in range(e.dim):
                lhs = _apply_sparse(conn.nabla, rcols[s])
                rhs = _lincomb(((ONE, _apply_sparse(t2_right, ncols[s])),
                                (ONE, qt.pure_sparse({s: ONE}, dcols[i]))))
                if lhs != rhs:
                    return (s, i)
        return None

    return calc.algebra.first_failure(pairs, calc.validated)


def leibniz_extension(calc: Calculus, images: Sequence[dict[int, Scalar]]) -> Connection:
    """The connection sending each central generator z_r of the one-forms to
    the sparse images[r], extended by the Leibniz rule:
    z_r . a_s -> images[r] . a_s + z_r (x) d a_s."""
    qt = calc.tensor_square
    gens = calc.one_forms.central_generators
    dcols = calc.d0.sparse_cols()
    values = [_lincomb(((ONE, _apply_sparse(qt.bimodule.right[s], w)),
                        (ONE, qt.pure_sparse(z, dcols[s]))))
              for w, z in zip(images, gens.zs) for s in range(calc.algebra.dim)]
    nabla = gens.extend(values, qt.dim)
    if nabla is None:
        raise InternalInconsistencyError("values break a relation among the central generators")
    return Connection(nabla)


def frame_splitting(calc: Calculus,
                    frame: Sequence[Vector]) -> tuple[tuple[dict[int, Scalar], ...], ...]:
    """Maps S_j in E* with sum_j g_j . S_j(e) == e for the frame g_j, any
    elements of E; entry [j][i] is S_j(z_i) in A, sparse, for the central
    generators z_i.  The unknowns are those images, at (j * k + i) * dim A:
    they satisfy the generators' relations, and sum_j g_j . S_j(z_i) == z_i,
    which is enough because e -> sum_j g_j . S_j(e) is right-linear."""
    e = calc.one_forms
    gens = e.central_generators
    zs = gens.zs
    frame_sparse = [vec_to_sparse(g) for g in frame]
    n, k, nA = len(frame_sparse), len(zs), calc.algebra.dim
    width = k * nA

    # each S_j is right-linear: its images respect the generators' relations
    linear = gens.relation_rows(Bimodule.regular(calc.algebra))
    rows = [{j * width + u: v for u, v in row.items()} for j in range(n) for row in linear]
    rhs = [ZERO] * len(rows)
    # sum_j g_j . S_j(z_i) == z_i, where g_j . a_s carries S_j(z_i)'s
    # coordinate s
    translates = [[_apply_sparse(e.right[s], g) for s in range(nA)] for g in frame_sparse]
    for i, z in enumerate(zs):
        recon: list[dict[int, Scalar]] = [{} for _ in range(e.dim)]
        for j in range(n):
            for s in range(nA):
                for c, v in translates[j][s].items():
                    recon[c][j * width + i * nA + s] = v
        rows.extend(recon)
        rhs.extend(z.get(c, ZERO) for c in range(e.dim))

    (sol,), _ = solve_sparse(rows, n * width, [rhs])
    if sol is None:
        raise NoSplittingError(
            "no right-linear splitting through the chosen frame generators",
            witness=[f"frame size {n}", f"one-forms dim {e.dim}"])
    return tuple(tuple(vec_to_sparse(sol[(j * k + i) * nA:(j * k + i + 1) * nA])
                       for i in range(k)) for j in range(n))


def grassmann(calc: Calculus, cert: TamenessCertificate,
              frame: tuple[Vector, ...] | None = None) -> Connection:
    """The connection of a right-linear splitting through the given frame.

    The default frame is the central basis of the one-forms, which is
    right-total whenever the calculus is tame.  The connection sends each
    central generator z_i to sum_j g_j (x) d(S_j(z_i)) and extends by the
    Leibniz rule, which gives sum_j g_j (x) d(S_j e) on every e because
    sum_j g_j . S_j(z_i) == z_i.
    """
    frame = frame if frame is not None else cert.central_basis
    splitting = frame_splitting(calc, frame)
    qt = calc.tensor_square
    frame_sparse = [vec_to_sparse(g) for g in frame]
    conn = leibniz_extension(calc, [
        _lincomb((ONE, qt.pure_sparse(g, _apply_sparse(calc.d0, image)))
                 for g, image in zip(frame_sparse, images_of_z))
        for images_of_z in zip(*splitting)])
    bad = leibniz_witness(calc, conn)
    if bad is not None:
        raise InternalInconsistencyError(f"Grassmann connection fails Leibniz at {bad}")
    return conn


def torsion(calc: Calculus, conn: Connection) -> Matrix:
    """wedge after the connection plus d; right-linear for honest connections,
    which the algebra's generators decide on a validated calculus."""
    t = calc.wedge_q @ conn.nabla + calc.d1
    e = calc.one_forms
    w2 = calc.two_forms

    def nonlinear(indices: Sequence[int]) -> int | None:
        for i in indices:
            if t @ e.right[i] != w2.right[i] @ t:
                return i
        return None

    bad = calc.algebra.first_failure(nonlinear, calc.validated)
    if bad is not None:
        raise NotRightLinearError(
            "torsion of a malformed connection is not right-linear",
            witness=calc.algebra.labels[bad])
    return t


def nabla_zero(calc: Calculus, cert: TamenessCertificate,
               frame: tuple[Vector, ...] | None = None) -> Connection:
    """Kill the Grassmann torsion through the wedge inverse on the complement."""
    gr = grassmann(calc, cert, frame)
    t = torsion(calc, gr)
    conn = Connection(gr.nabla - cert.q_inverse @ t)
    if not torsion(calc, conn).is_zero():
        raise InternalInconsistencyError("reference connection kept nonzero torsion")
    return conn


# ---------------------------------------------------------------------------
# Geometry: one tame calculus + one metric, with caches
# ---------------------------------------------------------------------------

class Geometry:
    """Bundles a tame calculus with a validated metric and its vector fields.

    Everything the connection-level solvers reuse (pairing legs, bracket
    solver, reconstruction system) is cached here; all members are
    effectively immutable once built.
    """

    def __init__(self, calc: Calculus, cert: TamenessCertificate, metric: Metric,
                 fields: VectorFieldModule | None = None,
                 frame: tuple[Vector, ...] | None = None):
        self.calc = calc
        self.cert = cert
        self.metric = metric
        self.frame = frame
        self.fields = fields if fields is not None else vector_fields(calc, cert, metric)
        self.g_plain = metric.g_plain(calc)
        # V_g^{-1} X_p, by field index
        self.field_forms = tuple(metric.form_of(vec_to_sparse(x)) for x in self.fields.basis)
        self._duals: dict[Vector, DualElement] = {}
        self._sigma_pure: dict[tuple[int, int], dict[int, Scalar]] = {}
        # the one-forms over their central generators, shared with E*
        self.generators = metric.e_star.generators

    # -- simple accessors ---------------------------------------------------

    @cached_property
    def nabla0(self) -> Connection:
        return nabla_zero(self.calc, self.cert, self.frame)

    def dual(self, phi: Vector) -> DualElement:
        """phi with what the connection layer reads off it, kept per element."""
        got = self._duals.get(phi)
        if got is None:
            got = DualElement(self, phi)
            self._duals[phi] = got
        return got

    def delta(self, phi: Vector, a: Vector) -> Vector:
        """phi(da): the derivation action when phi is a vector field."""
        return sparse_to_vec(_apply_sparse(self.dual(phi).delta, vec_to_sparse(a)),
                             self.calc.algebra.dim)

    def gt(self, phi: Vector, psi: Vector) -> Vector:
        """g_tilde(phi, psi) through the memoised V_g^{-1} images."""
        return sparse_to_vec(self.pair_forms(self.dual(phi).form, self.dual(psi).form),
                             self.calc.algebra.dim)

    def pair_forms(self, u: dict[int, Scalar], w: dict[int, Scalar]) -> dict[int, Scalar]:
        """g(u (x) w) for sparse one-forms, sparse in the algebra."""
        return g_of_forms(self.g_plain, self.calc.one_forms.dim, u, w)

    @cached_property
    def g_central(self) -> list[dict[int, Scalar]]:
        """g(z_p (x) z_q) on the central tensors, sparse in the algebra, by
        their index p * k + q in the certificate's spanning family."""
        return [_apply_sparse(self.metric.g, z) for z in self.cert.spanning.zs]

    @cached_property
    def field_gram(self) -> list[list[dict[int, Scalar]]]:
        """g_tilde(X_p, X_q), sparse, by field indices."""
        return [[self.pair_forms(u, w) for w in self.field_forms] for u in self.field_forms]

    @cached_property
    def lie_forms(self) -> list[list[dict[int, Scalar]]]:
        """V_g^{-1} [X_p, X_q], by field indices."""
        return [[self.metric.form_of(vec_to_sparse(b)) for b in row] for row in self.lie_table]

    # -- pairing legs for the compatibility map ------------------------------

    def _sigma_pure_lift(self, t: int, q: int) -> dict[int, Scalar]:
        key = (t, q)
        got = self._sigma_pure.get(key)
        if got is None:
            qt = self.calc.tensor_square
            z = self.cert.center_one_forms.rows[q]
            got = qt.lift_sparse(_apply_sparse(self.cert.sigma, qt.pure_sparse({t: ONE}, z)))
            self._sigma_pure[key] = got
        return got

    def _left_of_g(self, s: int, u: int, v: int) -> dict[int, Scalar]:
        """g(class of e_s (x) e_u) acting on e_v from the left, sparse."""
        e = self.calc.one_forms
        return e.act_left(self.g_plain.sparse_cols()[s * e.dim + u], {v: ONE})

    @cached_property
    def leg_sigma(self) -> list[Matrix]:
        """Entry q, as a matrix in w: contract g over legs 1-2 of
        sigma_23(w (x) z_q)."""
        return [self._build_leg_sigma(q) for q in range(len(self.cert.central_basis))]

    def _build_leg_sigma(self, q: int) -> Matrix:
        qt = self.calc.tensor_square
        e_dim = self.calc.one_forms.dim
        cols = []
        for y in range(qt.dim):
            terms = []
            for idx, c in qt.lift_sparse({y: ONE}).items():
                s, t = divmod(idx, e_dim)
                for uv, c2 in self._sigma_pure_lift(t, q).items():
                    u, v = divmod(uv, e_dim)
                    terms.append((c * c2, self._left_of_g(s, u, v)))
            cols.append(_lincomb(terms))
        return Matrix.from_sparse_cols(cols, e_dim)

    @cached_property
    def leg_plain(self) -> list[Matrix]:
        """Entry p, as a matrix in w: contract g over legs 1-2 of z_p (x) w."""
        return [self._build_leg_plain(p) for p in range(len(self.cert.central_basis))]

    def _build_leg_plain(self, p: int) -> Matrix:
        qt = self.calc.tensor_square
        e_dim = self.calc.one_forms.dim
        zp = self.cert.center_one_forms.rows[p]
        cols = []
        for y in range(qt.dim):
            terms = []
            for idx, c in qt.lift_sparse({y: ONE}).items():
                u, v = divmod(idx, e_dim)
                terms.extend((c * cz, self._left_of_g(s, u, v)) for s, cz in zp.items())
            cols.append(_lincomb(terms))
        return Matrix.from_sparse_cols(cols, e_dim)

    # -- brackets -------------------------------------------------------------

    @cached_property
    def bracket_solver(self) -> ColumnSolver:
        """Recovers a dual element from its values on the exact one-forms."""
        e_star = self.metric.e_star
        nA = self.calc.algebra.dim
        # row (i, c): the values phi(d a_i)_c of every dual basis element
        rows: list[dict[int, Scalar]] = [{} for _ in range(nA * nA)]
        for m, phi in enumerate(e_star.basis):
            for c, row in enumerate(_product_rows(phi, self.calc.d0)):
                for i, v in row.items():
                    rows[i * nA + c][m] = v
        solver = ColumnSolver(Matrix.from_sparse_rows(rows, e_star.dim))
        if solver.rank != e_star.dim:
            raise BracketUnsolvableError(
                "values on exact one-forms do not pin a dual element; "
                "the exact forms do not span")
        return solver

    @cached_property
    def field_solver(self) -> ColumnSolver:
        return ColumnSolver(Matrix.from_cols(list(self.fields.basis), self.metric.e_star.dim))

    @cached_property
    def lie_table(self) -> list[list[Vector]]:
        n = self.fields.count
        return [[lie_bracket(self, self.fields.basis[p], self.fields.basis[q])
                 for q in range(n)] for p in range(n)]

    # -- reconstruction ---------------------------------------------------------

    @cached_property
    def recon_solver(self) -> ColumnSolver:
        """The stacked pairings (X_p (x) X_q) as equations on tensor classes."""
        qt = self.calc.tensor_square
        nA = self.calc.algebra.dim
        n = self.fields.count
        # row ((p, q), c): coordinate c of (X_p (x) X_q)(e_y), over y
        rows: list[dict[int, Scalar]] = [{} for _ in range(n * n * nA)]
        for p in range(n):
            for q in range(n):
                base = (p * n + q) * nA
                for y in range(qt.dim):
                    val = pair_apply(qt, self.fields.maps[p], self.fields.maps[q], {y: ONE})
                    for c, v in val.items():
                        rows[base + c][y] = v
        solver = ColumnSolver(Matrix.from_sparse_rows(rows, qt.dim))
        if solver.rank != qt.dim:
            raise SystemSingularError(
                "field pairings do not separate the tensor square",
                witness=solver.rank)
        return solver


class DualElement:
    """One dual element phi and what the connection layer reads off it, each
    built on first use; Geometry.dual keeps one per element."""

    def __init__(self, geo: Geometry, phi: Vector):
        self.geo = geo
        self.phi = phi
        self._bracket_forms: dict[int, dict[int, Scalar]] = {}

    @cached_property
    def form(self) -> dict[int, Scalar]:
        """V_g^{-1} phi, a sparse one-form."""
        return self.geo.metric.form_of(vec_to_sparse(self.phi))

    @cached_property
    def delta(self) -> Matrix:
        """The map a -> phi(da)."""
        return delta_of(self.geo.calc, self.geo.metric, self.phi)

    def bracket_form(self, p: int) -> dict[int, Scalar]:
        """V_g^{-1} [X_p, phi], bracketed once per field index."""
        got = self._bracket_forms.get(p)
        if got is None:
            geo = self.geo
            bracket = bracket_general(geo, geo.fields.basis[p], self.phi)
            got = geo.metric.form_of(vec_to_sparse(bracket))
            self._bracket_forms[p] = got
        return got


# ---------------------------------------------------------------------------
# Covariant derivative and brackets
# ---------------------------------------------------------------------------

def covariant_derivative(geo: Geometry, conn: Connection, field: Vector,
                         direction: Vector) -> Vector:
    """The derivative of `field` along `direction`, as a dual element.

    Pointwise on one-forms w this is direction(d(field(w))) minus the
    pairing of field (x) direction against the connection of w; the pairing
    only makes sense when the direction is central, which is checked.
    """
    if not geo.fields.contains(direction):
        raise YNotCentralError("derivative direction must be a vector field")
    e_star = geo.metric.e_star
    e = geo.calc.one_forms
    qt = geo.calc.tensor_square
    fm = e_star.matrix_of(field)
    dm = e_star.matrix_of(direction)
    delta_dir = geo.dual(direction).delta
    fcols = fm.sparse_cols()
    ncols = conn.nabla.sparse_cols()
    cols = []
    for i in range(e.dim):
        second = pair_apply(qt, fm, dm, ncols[i])
        cols.append(_lincomb(((ONE, _apply_sparse(delta_dir, fcols[i])),
                              (-ONE, second))))
    functional = Matrix.from_sparse_cols(cols, geo.calc.algebra.dim)
    coords = e_star.coords_of(functional)
    if coords is None:
        raise InternalInconsistencyError("covariant derivative is not right-linear")
    return coords


def covariant_table(geo: Geometry, conn: Connection) -> Table:
    n = geo.fields.count
    return tuple(
        tuple(covariant_derivative(geo, conn, geo.fields.basis[q], geo.fields.basis[p])
              for q in range(n))
        for p in range(n))


def lie_bracket(geo: Geometry, x: Vector, y: Vector) -> Vector:
    """The unique dual element whose derivation is the commutator of the two."""
    if not geo.fields.contains(x) or not geo.fields.contains(y):
        raise ContractViolationError("lie_bracket arguments must be vector fields")
    dx = geo.dual(x).delta
    dy = geo.dual(y).delta
    comm = dx @ dy - dy @ dx
    nA = geo.calc.algebra.dim
    rhs = [ZERO] * (nA * nA)        # entry (i, c) is comm[c][i]
    for c, row in enumerate(comm.sparse_rows()):
        for i, v in row.items():
            rhs[i * nA + c] = v
    z = geo.bracket_solver.solve(rhs)
    if z is None:
        raise BracketUnsolvableError("no dual element matches the commutator")
    if not geo.fields.contains(z):
        raise BracketNotCentralError("bracket left the vector fields")
    return z


def bracket_general(geo: Geometry, x: Vector, phi: Vector) -> Vector:
    """[x, phi] for a field x and arbitrary dual phi.

    phi decomposes over the right-total family {X_p . a} of E*'s central
    generators; the bracket is the sum of [x, X_p] a_p plus delta_x(a_p) X_p,
    and does not depend on the decomposition.
    """
    lam = geo.field_solver.solve(x)
    if lam is None:
        raise ContractViolationError("bracket_general: first argument is not a vector field")
    nA = geo.calc.algebra.dim
    e_star = geo.metric.e_star
    dx = geo.dual(x).delta
    a_of: dict[int, dict[int, Scalar]] = {}
    for pos, c in geo.fields.generators.decompose(vec_to_sparse(phi)).items():
        p, r = divmod(pos, nA)
        a_of.setdefault(p, {})[r] = c
    lam_sparse = vec_to_sparse(lam)
    terms = []
    for p, a_p in a_of.items():
        bracket_xp = _lincomb((lm, vec_to_sparse(geo.lie_table[m][p]))
                              for m, lm in lam_sparse.items())
        terms.append((ONE, e_star.bimodule.act_right(a_p, bracket_xp)))
        dxa = _apply_sparse(dx, a_p)
        terms.append((ONE, e_star.bimodule.act_left(dxa, vec_to_sparse(geo.fields.basis[p]))))
    return sparse_to_vec(_lincomb(terms), e_star.dim)


# ---------------------------------------------------------------------------
# Torsion and compatibility in covariant form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdicts:
    """What certify found; no table or witnesses when Leibniz fails."""

    leibniz: tuple[int, int] | None
    table: Table | None = None
    torsion_witnesses: tuple[tuple[int, int], ...] = ()
    compat_witnesses: tuple[tuple[int, int, int], ...] = ()

    @property
    def ok(self) -> bool:
        return self.leibniz is None and not self.torsion_witnesses and not self.compat_witnesses


def certify(geo: Geometry, conn: Connection) -> Verdicts:
    """Leibniz first, then torsion and compatibility off one covariant table."""
    bad = leibniz_witness(geo.calc, conn)
    if bad is not None:
        return Verdicts(leibniz=bad)
    table = covariant_table(geo, conn)
    return Verdicts(leibniz=None, table=table,
                    torsion_witnesses=torsion_witnesses(geo, conn, table),
                    compat_witnesses=compat_witnesses(geo, conn, table))


def torsion_witnesses(geo: Geometry, conn: Connection,
                      table: Table) -> tuple[tuple[int, int], ...]:
    """Pairs p < q with nabla_p X_q - nabla_q X_p != [X_p, X_q], cross-checked
    against the form-level torsion; the pair (q, p) is the negative of (p, q)."""
    n = geo.fields.count
    witnesses = []
    for p in range(n):
        for q in range(p + 1, n):
            diff = tuple(a - b - c for a, b, c in
                         zip(table[p][q], table[q][p], geo.lie_table[p][q]))
            if not vec_is_zero(diff):
                witnesses.append((p, q))
    cov_ok = not witnesses
    form_ok = torsion(geo.calc, conn).is_zero()
    if cov_ok != form_ok:
        raise InternalInconsistencyError(
            f"torsion verdicts disagree: covariant {cov_ok}, form-level {form_ok}")
    return tuple(witnesses)


def compat_values(geo: Geometry, conn: Connection) -> list[dict[int, Scalar]]:
    """The compatibility one-form on each member of the certificate's
    spanning family, the class of z_p (x) z_q . a_r at (p * k + q) * dim A + r,
    sparse: pi0(p, q) . a_r + g(z_p (x) z_q) . d a_r, where pi0(p, q)
    contracts g against sigma_23(nabla z_p (x) z_q) and z_p (x) nabla z_q."""
    e = geo.calc.one_forms
    images = [_apply_sparse(conn.nabla, z) for z in geo.cert.center_one_forms.rows]
    dcols = geo.calc.d0.sparse_cols()
    k = len(images)
    values = []
    for j, g_pq in enumerate(geo.g_central):
        p, q = divmod(j, k)
        base = _lincomb(((ONE, _apply_sparse(geo.leg_sigma[q], images[p])),
                         (ONE, _apply_sparse(geo.leg_plain[p], images[q]))))
        values.extend(_lincomb(((ONE, _apply_sparse(e.right[r], base)),
                                (ONE, e.act_left(g_pq, dcols[r]))))
                      for r in range(geo.calc.algebra.dim))
    return values


def pi_g_matrix(geo: Geometry, conn: Connection) -> Matrix:
    """The compatibility map on the whole tensor square, fixed by its values
    on the central tensors."""
    m = geo.cert.spanning.extend(compat_values(geo, conn), geo.calc.one_forms.dim)
    if m is None:
        raise InternalInconsistencyError("compatibility map is not well-defined")
    return m


def compat_witnesses(geo: Geometry, conn: Connection,
                     table: Table) -> tuple[tuple[int, int, int], ...]:
    """Triples (y, z, x) with Y g(Z, X) != g(nabla_Y Z, X) + g(Z, nabla_Y X),
    cross-checked against the form-level compatibility map."""
    n = geo.fields.count
    forms = geo.field_forms
    table_forms = [[geo.dual(entry).form for entry in row] for row in table]
    witnesses = []
    for yp in range(n):
        delta_y = geo.fields.deltas[yp]
        for zp in range(n):
            for xp in range(n):
                lhs = _apply_sparse(delta_y, geo.field_gram[zp][xp])
                rhs = _lincomb(((ONE, geo.pair_forms(table_forms[yp][zp], forms[xp])),
                                (ONE, geo.pair_forms(table_forms[yp][xp], forms[zp]))))
                if lhs != rhs:
                    witnesses.append((yp, zp, xp))
    cov_ok = not witnesses
    form_ok = pi_g_matrix(geo, conn) == geo.calc.d0 @ geo.metric.g
    if cov_ok != form_ok:
        raise InternalInconsistencyError(
            f"compatibility verdicts disagree: covariant {cov_ok}, form-level {form_ok}")
    return tuple(witnesses)


# ---------------------------------------------------------------------------
# The Koszul route
# ---------------------------------------------------------------------------

def koszul_rhs(geo: Geometry, p: int, q: int, z: Vector) -> Vector:
    """The six-term right-hand side for x = X_p, y = X_q and any dual z:
    x g(y, z) + y g(x, z) - z g(x, y) - g(y, [x, z]) - g([y, x], z)
    + g(x, [z, y]), with g the pairing g_tilde and a field acting through
    its derivation."""
    zd = geo.dual(z)
    fx, fy = geo.field_forms[p], geo.field_forms[q]
    deltas = geo.fields.deltas
    terms = (
        (ONE, _apply_sparse(deltas[p], geo.pair_forms(fy, zd.form))),
        (ONE, _apply_sparse(deltas[q], geo.pair_forms(fx, zd.form))),
        (-ONE, _apply_sparse(zd.delta, geo.field_gram[p][q])),
        (-ONE, geo.pair_forms(fy, zd.bracket_form(p))),
        (-ONE, geo.pair_forms(geo.lie_forms[q][p], zd.form)),
        (-ONE, geo.pair_forms(fx, zd.bracket_form(q))),      # [z, y] = -[y, z]
    )
    return sparse_to_vec(_lincomb(terms), geo.calc.algebra.dim)


@dataclass(frozen=True)
class LeviCivitaResult:
    connection: Connection
    table: Table | None       # the Koszul route's table; None for the direct route
    table_in_fields: bool
    kernel_dim: int | None = None
    verdicts: Verdicts | None = None


def reconstruct_from_table(geo: Geometry, table: Table) -> Connection:
    """The unique connection whose covariant derivatives match the table.

    Solved through the separating family of field pairs on central
    one-forms, then extended to everything by the Leibniz rule.
    """
    nA = geo.calc.algebra.dim
    n = geo.fields.count
    e_star = geo.metric.e_star
    ws = []
    for z in geo.cert.central_basis:
        rhs = []
        for p in range(n):
            xp_of_z = _apply_sparse(geo.fields.maps[p], vec_to_sparse(z))
            for q in range(n):
                first = sparse_to_vec(_apply_sparse(geo.fields.deltas[q], xp_of_z), nA)
                second = e_star.value(table[q][p], z)
                # row order matches recon_solver: p outer, q inner, then the
                # algebra coordinate
                rhs.extend(a - b for a, b in zip(first, second))
        w = geo.recon_solver.solve(rhs)
        if w is None:
            raise SystemSingularError("reconstruction system has no solution")
        ws.append(vec_to_sparse(w))
    return leibniz_extension(geo.calc, ws)


def levi_civita_koszul(geo: Geometry) -> LeviCivitaResult:
    """Read the covariant-derivative table off the Koszul formula, then
    rebuild the connection and certify its defining properties exactly."""
    n = geo.fields.count
    e = geo.calc.one_forms
    e_star = geo.metric.e_star
    nA = geo.calc.algebra.dim
    table = []
    in_fields = True
    for p in range(n):
        row = []
        for q in range(n):
            cols = []
            for i in range(e.dim):
                z = geo.metric.v_g.col(i)
                val = koszul_rhs(geo, p, q, z)
                cols.append(tuple(HALF * v for v in val))
            functional = Matrix.from_cols(cols, nA)
            coords = e_star.coords_of(functional)
            if coords is None:
                raise InternalInconsistencyError("Koszul values are not right-linear")
            if not geo.fields.contains(coords):
                in_fields = False
            row.append(coords)
        table.append(tuple(row))
    table = tuple(table)
    conn = reconstruct_from_table(geo, table)

    verdicts = certify(geo, conn)
    if not verdicts.ok or verdicts.table != table:
        raise InternalInconsistencyError(
            "Koszul connection fails certification or does not regenerate its table")
    return LeviCivitaResult(connection=conn, table=table, table_in_fields=in_fields,
                            verdicts=verdicts)


# ---------------------------------------------------------------------------
# The direct route
# ---------------------------------------------------------------------------

def levi_civita_direct(geo: Geometry) -> LeviCivitaResult:
    """Solve for the torsionless compatible connection among all Leibniz
    perturbations of the reference connection; the constraint kernel must be
    zero, which witnesses uniqueness.

    A perturbation alpha is right-linear, so the images f_j = alpha(z_j) of
    the central generators fix it; they are the unknowns, f_j at
    j * dim(E (x)_A E), and alpha is rebuilt from them once at the end.
    """
    calc = geo.calc
    e = calc.one_forms
    alg = calc.algebra
    t2 = calc.tensor_square.bimodule
    nt = t2.dim
    n0 = geo.nabla0
    nz = len(geo.cert.central_basis)
    nunk = nz * nt

    def shifted(j: int, row: dict[int, Scalar]) -> dict[int, Scalar]:
        return {j * nt + f: v for f, v in row.items()}

    # lam[(p, q)]: the compatibility one-form on (z_p, z_q) as a map of the
    # unknowns, leg_sigma[q] f_p + leg_plain[p] f_q
    lam: dict[tuple[int, int], Matrix] = {}
    for p in range(nz):
        for q in range(nz):
            sig = geo.leg_sigma[q].sparse_rows()
            pla = geo.leg_plain[p].sparse_rows()
            lrows = []
            for c in range(e.dim):
                row = shifted(p, sig[c])
                _axpy(row, ONE, shifted(q, pla[c]), -1)
                lrows.append(row)
            lam[(p, q)] = Matrix.from_sparse_rows(lrows, nunk)

    rows: list[dict[int, Scalar]] = []
    rhs: list[Scalar] = []
    values = compat_values(geo, n0)
    for j, g_pq in enumerate(geo.g_central):
        for r in range(alg.dim):
            gval = _apply_sparse(alg.right_basis_matrix(r), g_pq)
            residual = _lincomb(((ONE, _apply_sparse(calc.d0, gval)),
                                 (-ONE, values[j * alg.dim + r])))
            rows.extend(_product_rows(e.right[r], lam[divmod(j, nz)]))
            rhs.extend(sparse_to_vec(residual, e.dim))
    # torsion stays zero: the wedge kills every generator image, hence alpha
    wedge = calc.wedge_q.sparse_rows()
    for j in range(nz):
        rows.extend(shifted(j, row) for row in wedge)
    rows.extend(geo.generators.relation_rows(t2))
    rhs.extend([ZERO] * (len(rows) - len(rhs)))

    (sol,), rank = solve_sparse(rows, nunk, [rhs])
    if sol is None:
        raise NoSolutionError("no torsionless compatible connection exists")
    kernel_dim = nunk - rank
    if kernel_dim:
        raise NonUniqueSolutionError(
            "constraint system has a nontrivial kernel", witness=kernel_dim)
    conn = Connection(n0.nabla + geo.generators.right_linear(t2, vec_to_sparse(sol)))
    return LeviCivitaResult(connection=conn, table=None,
                            table_in_fields=True, kernel_dim=kernel_dim)
