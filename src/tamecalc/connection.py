"""Connections on the one-forms and both Levi-Civita solvers.

A connection is stored by its value matrix on a basis of the one-forms,
with the Leibniz rule as a checked invariant.  The module provides the
Grassmann connection of a frame, the torsionless reference connection, the
covariant derivative on vector fields, the Lie bracket, the Levi-Civita
conditions stated once on generators (`Geometry.conditions`: torsion on
each central generator of the one-forms, compatibility on each central
tensor), one certification (`certify`) that reads torsion and metric
compatibility off a single covariant table and cross-checks each against
its defect in those conditions, and two independent routes to the
Levi-Civita connection:

* a Koszul route that reads every covariant derivative off the
  six-term formula and reconstructs the connection through the
  separating family of field pairs, and
* a direct route that solves the same conditions for the connection's
  images of the central generators of the one-forms.

Exact equality of the two routes is the engine's own strongest self-test.
Neither route uses the Grassmann or the reference connection; they are the
paper's constructions, kept for their own sake and as test oracles.

A right-linear map out of the one-forms (a Grassmann splitting) is fixed by
its images of the central generators z_i, and a connection (Grassmann,
reconstructed, direct) by nabla(z_i) and the Leibniz rule.
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
    _apply_sparse,
    _axpy,
    _lincomb,
    _product_rows,
    solve_sparse,
)
from .metric import Metric, g_of_forms, vector_fields


@dataclass(frozen=True)
class Connection:
    """A linear map from one-forms to the tensor square, on basis columns."""

    nabla: Matrix


Table = tuple  # Table[p][q] = sparse E* coordinates of the derivative of X_q along X_p


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


def _leibniz_values(calc: Calculus, images: Sequence[dict[int, Scalar]]
                    ) -> list[dict[int, Scalar]]:
    """images[r] . a_s + z_r (x) d a_s at r * dim A + s, sparse: what the
    Leibniz rule gives z_r . a_s when each central generator z_r of the
    one-forms goes to images[r]."""
    qt = calc.tensor_square
    dcols = calc.d0.sparse_cols()
    return [_lincomb(((ONE, _apply_sparse(qt.bimodule.right[s], w)),
                      (ONE, qt.pure_sparse(z, dcols[s]))))
            for w, z in zip(images, calc.one_forms.central_generators.zs)
            for s in range(calc.algebra.dim)]


def leibniz_extension(calc: Calculus, images: Sequence[dict[int, Scalar]]) -> Connection:
    """The connection sending each central generator z_r of the one-forms to
    the sparse images[r], extended by the Leibniz rule:
    z_r . a_s -> images[r] . a_s + z_r (x) d a_s."""
    nabla = calc.one_forms.central_generators.extend(_leibniz_values(calc, images),
                                                     calc.tensor_square.dim)
    if nabla is None:
        raise InternalInconsistencyError("values break a relation among the central generators")
    return Connection(nabla)


def frame_splitting(calc: Calculus, frame: Sequence[dict[int, Scalar]]
                    ) -> tuple[tuple[dict[int, Scalar], ...], ...]:
    """Maps S_j in E* with sum_j g_j . S_j(e) == e for the frame g_j, any
    sparse elements of E; entry [j][i] is S_j(z_i) in A, sparse, for the
    central generators z_i.  The unknowns are those images, at
    (j * k + i) * dim A: they satisfy the generators' relations, and
    sum_j g_j . S_j(z_i) == z_i, which is enough because
    e -> sum_j g_j . S_j(e) is right-linear."""
    e = calc.one_forms
    gens = e.central_generators
    zs = gens.zs
    n, k, nA = len(frame), len(zs), calc.algebra.dim
    width = k * nA

    # each S_j is right-linear: its images respect the generators' relations
    linear = gens.relation_rows(Bimodule.regular(calc.algebra))
    rows = [{j * width + u: v for u, v in row.items()} for j in range(n) for row in linear]
    rhs: dict[int, Scalar] = {}
    # sum_j g_j . S_j(z_i) == z_i, where g_j . a_s carries S_j(z_i)'s
    # coordinate s
    translates = [[_apply_sparse(e.right[s], g) for s in range(nA)] for g in frame]
    for i, z in enumerate(zs):
        recon: list[dict[int, Scalar]] = [{} for _ in range(e.dim)]
        for j in range(n):
            for s in range(nA):
                for c, v in translates[j][s].items():
                    recon[c][j * width + i * nA + s] = v
        rhs.update((len(rows) + c, v) for c, v in z.items())
        rows.extend(recon)

    (sol,), _ = solve_sparse(rows, n * width, [rhs])
    if sol is None:
        raise NoSplittingError(
            "no right-linear splitting through the chosen frame generators",
            witness=[f"frame size {n}", f"one-forms dim {e.dim}"])
    # unknown (j * k + i) * nA + s is coordinate s of S_j(z_i)
    images: list[list[dict[int, Scalar]]] = [[{} for _ in range(k)] for _ in range(n)]
    for u, v in sol.items():
        ji, s = divmod(u, nA)
        j, i = divmod(ji, k)
        images[j][i][s] = v
    return tuple(map(tuple, images))


def grassmann(calc: Calculus, cert: TamenessCertificate,
              frame: Sequence[dict[int, Scalar]] | None = None) -> Connection:
    """The connection of a right-linear splitting through the given sparse
    frame.

    The default frame is the central basis of the one-forms, which is
    right-total whenever the calculus is tame.  The connection sends each
    central generator z_i to sum_j g_j (x) d(S_j(z_i)) and extends by the
    Leibniz rule, which gives sum_j g_j (x) d(S_j e) on every e because
    sum_j g_j . S_j(z_i) == z_i.
    """
    frame = frame if frame is not None else calc.one_forms.central_generators.zs
    splitting = frame_splitting(calc, frame)
    qt = calc.tensor_square
    conn = leibniz_extension(calc, [
        _lincomb((ONE, qt.pure_sparse(g, _apply_sparse(calc.d0, image)))
                 for g, image in zip(frame, images_of_z))
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
               frame: Sequence[dict[int, Scalar]] | None = None) -> Connection:
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

    Everything the connection-level solvers reuse (pairing legs, the
    Levi-Civita conditions, bracket solver, reconstruction system) is cached
    here; all members are effectively immutable once built.
    """

    def __init__(self, calc: Calculus, cert: TamenessCertificate, metric: Metric):
        self.calc = calc
        self.cert = cert
        self.metric = metric
        self.fields = vector_fields(calc, cert, metric)
        # V_g^{-1} X_p, by field index
        self.field_forms = tuple(metric.form_of(x) for x in self.fields.basis)
        self._duals: dict[frozenset, DualElement] = {}

    # -- simple accessors ---------------------------------------------------

    def dual(self, phi: dict[int, Scalar]) -> DualElement:
        """The sparse dual element phi with what the connection layer reads
        off it, kept per element whatever the order of its keys."""
        key = frozenset(phi.items())
        got = self._duals.get(key)
        if got is None:
            got = DualElement(self, phi)
            self._duals[key] = got
        return got

    def pair_forms(self, u: dict[int, Scalar], w: dict[int, Scalar]) -> dict[int, Scalar]:
        """g(u (x) w) for sparse one-forms, sparse in the algebra."""
        return g_of_forms(self.metric.g_plain, self.calc.one_forms.dim, u, w)

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
        return [[self.metric.form_of(b) for b in row] for row in self.lie_table]

    # -- pairing legs for the compatibility map ------------------------------

    def _left_of_g(self, s: int, u: int, v: int) -> dict[int, Scalar]:
        """g(class of e_s (x) e_u) acting on e_v from the left, sparse."""
        e = self.calc.one_forms
        return e.act_left(self.metric.g_plain.sparse_cols()[s * e.dim + u], {v: ONE})

    @cached_property
    def leg_sigma(self) -> list[Matrix]:
        """Entry q, as a matrix in w: contract g over legs 1-2 of
        sigma_23(w (x) z_q)."""
        return [self._build_leg_sigma(z) for z in self.calc.one_forms.central_generators.zs]

    def _build_leg_sigma(self, z: dict[int, Scalar]) -> Matrix:
        qt = self.calc.tensor_square
        e_dim = self.calc.one_forms.dim
        lifts: dict[int, dict[int, Scalar]] = {}   # t -> lift of sigma(e_t (x) z)
        cols = []
        for y in range(qt.dim):
            terms = []
            for idx, c in qt.lift_sparse({y: ONE}).items():
                s, t = divmod(idx, e_dim)
                if t not in lifts:
                    lifts[t] = qt.lift_sparse(
                        _apply_sparse(self.cert.sigma, qt.pure_sparse({t: ONE}, z)))
                for uv, c2 in lifts[t].items():
                    u, v = divmod(uv, e_dim)
                    terms.append((c * c2, self._left_of_g(s, u, v)))
            cols.append(_lincomb(terms))
        return Matrix.from_sparse_cols(cols, e_dim)

    @cached_property
    def leg_plain(self) -> list[Matrix]:
        """Entry p, as a matrix in w: contract g over legs 1-2 of z_p (x) w."""
        return [self._build_leg_plain(z) for z in self.calc.one_forms.central_generators.zs]

    def _build_leg_plain(self, zp: dict[int, Scalar]) -> Matrix:
        qt = self.calc.tensor_square
        e_dim = self.calc.one_forms.dim
        cols = []
        for y in range(qt.dim):
            terms = []
            for idx, c in qt.lift_sparse({y: ONE}).items():
                u, v = divmod(idx, e_dim)
                terms.extend((c * cz, self._left_of_g(s, u, v)) for s, cz in zp.items())
            cols.append(_lincomb(terms))
        return Matrix.from_sparse_cols(cols, e_dim)

    @cached_property
    def conditions(self) -> Conditions:
        """Compatibility on each central tensor, then torsion on each central
        generator, as rows over the generator images."""
        calc = self.calc
        nt = calc.tensor_square.dim
        zs = calc.one_forms.central_generators.zs
        nz = len(zs)

        def shifted(j: int, row: dict[int, Scalar]) -> dict[int, Scalar]:
            return {j * nt + f: v for f, v in row.items()}

        rows: list[dict[int, Scalar]] = []
        constant: dict[int, Scalar] = {}
        for j, g_pq in enumerate(self.g_central):
            p, q = divmod(j, nz)
            constant.update((len(rows) + c, -v) for c, v in _apply_sparse(calc.d0, g_pq).items())
            for srow, prow in zip(self.leg_sigma[q].sparse_rows(),
                                  self.leg_plain[p].sparse_rows()):
                row = shifted(p, srow)
                _axpy(row, ONE, shifted(q, prow), -1)
                rows.append(row)
        ncompat = len(rows)
        wedge = calc.wedge_q.sparse_rows()
        for j, z in enumerate(zs):
            constant.update((len(rows) + c, v) for c, v in _apply_sparse(calc.d1, z).items())
            rows.extend(shifted(j, row) for row in wedge)
        return Conditions(Matrix.from_sparse_rows(rows, nz * nt), constant, ncompat)

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
        return ColumnSolver(Matrix.from_sparse_cols(self.fields.basis, self.metric.e_star.dim))

    @cached_property
    def lie_table(self) -> list[list[dict[int, Scalar]]]:
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

    def __init__(self, geo: Geometry, phi: dict[int, Scalar]):
        self.geo = geo
        self.phi = phi
        self._bracket_forms: dict[int, dict[int, Scalar]] = {}

    @cached_property
    def form(self) -> dict[int, Scalar]:
        """V_g^{-1} phi, a sparse one-form."""
        return self.geo.metric.form_of(self.phi)

    @cached_property
    def delta(self) -> Matrix:
        """The map a -> phi(da), a derivation exactly when phi is central."""
        return self.geo.metric.e_star.matrix_of(self.phi) @ self.geo.calc.d0

    def bracket_form(self, p: int) -> dict[int, Scalar]:
        """V_g^{-1} [X_p, phi], bracketed once per field index."""
        got = self._bracket_forms.get(p)
        if got is None:
            geo = self.geo
            got = geo.metric.form_of(bracket_general(geo, geo.fields.basis[p], self.phi))
            self._bracket_forms[p] = got
        return got


# ---------------------------------------------------------------------------
# Covariant derivative and brackets
# ---------------------------------------------------------------------------

def covariant_derivative(geo: Geometry, conn: Connection, field: dict[int, Scalar],
                         direction: dict[int, Scalar]) -> dict[int, Scalar]:
    """The derivative of `field` along `direction`, both sparse dual
    elements, as a sparse dual element.

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
    coords = e_star.sparse_coords_of(functional)
    if coords is None:
        raise InternalInconsistencyError("covariant derivative is not right-linear")
    return coords


def covariant_table(geo: Geometry, conn: Connection) -> Table:
    n = geo.fields.count
    return tuple(
        tuple(covariant_derivative(geo, conn, geo.fields.basis[q], geo.fields.basis[p])
              for q in range(n))
        for p in range(n))


def lie_bracket(geo: Geometry, x: dict[int, Scalar], y: dict[int, Scalar]) -> dict[int, Scalar]:
    """The unique dual element whose derivation is the commutator of the
    two fields, all sparse."""
    if not geo.fields.contains(x) or not geo.fields.contains(y):
        raise ContractViolationError("lie_bracket arguments must be vector fields")
    dx = geo.dual(x).delta
    dy = geo.dual(y).delta
    comm = dx @ dy - dy @ dx
    nA = geo.calc.algebra.dim
    # entry (i, c) is comm[c][i]
    rhs = {i * nA + c: v for c, row in enumerate(comm.sparse_rows()) for i, v in row.items()}
    z = geo.bracket_solver.solve(rhs)
    if z is None:
        raise BracketUnsolvableError("no dual element matches the commutator")
    if not geo.fields.contains(z):
        raise BracketNotCentralError("bracket left the vector fields")
    return z


def bracket_general(geo: Geometry, x: dict[int, Scalar],
                    phi: dict[int, Scalar]) -> dict[int, Scalar]:
    """[x, phi] for a field x and arbitrary dual phi, all sparse.

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
    for pos, c in geo.fields.generators.decompose(phi).items():
        p, r = divmod(pos, nA)
        a_of.setdefault(p, {})[r] = c
    terms = []
    for p, a_p in a_of.items():
        bracket_xp = _lincomb((lm, geo.lie_table[m][p]) for m, lm in lam.items())
        terms.append((ONE, e_star.bimodule.act_right(a_p, bracket_xp)))
        dxa = _apply_sparse(dx, a_p)
        terms.append((ONE, e_star.bimodule.act_left(dxa, geo.fields.basis[p])))
    return _lincomb(terms)


# ---------------------------------------------------------------------------
# The Levi-Civita conditions on generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Conditions:
    """Torsion and compatibility, each stated once on generators, as an
    affine map of a connection's images f_j = nabla(z_j) of the central
    generators of the one-forms, f_j at j * dim(E (x)_A E): the defect is
    linear . f + constant.

    Rows below ncompat hold compatibility, dim E per central tensor
    pi(z_p (x) z_q) in the order of geo.g_central:
    leg_sigma[q] f_p + leg_plain[p] f_q - d g(z_p (x) z_q).  The rest hold
    torsion, dim Omega^2 per z_j: W f_j + d1 z_j for the wedge W.
    """

    linear: Matrix
    constant: dict[int, Scalar]
    ncompat: int


def defects(geo: Geometry, conn: Connection) -> dict[int, Scalar]:
    """The defect of conn in the Levi-Civita conditions, sparse over their
    rows; a Leibniz connection with no defect is torsionless and compatible."""
    nt = geo.calc.tensor_square.dim
    images: dict[int, Scalar] = {}
    for j, z in enumerate(geo.calc.one_forms.central_generators.zs):
        images.update((j * nt + y, v) for y, v in _apply_sparse(conn.nabla, z).items())
    cond = geo.conditions
    return _lincomb(((ONE, _apply_sparse(cond.linear, images)), (ONE, cond.constant)))


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
    """Leibniz first, then torsion and compatibility off one covariant table,
    each cross-checked against its defect on the central generators.

    The calculus and the metric must be validated, as every command has
    them before it certifies.  Once Leibniz holds, both defects are
    right-linear, so they vanish exactly when they vanish on the central
    generators z_j and the central tensors pi(z_p (x) z_q), which span."""
    bad = leibniz_witness(geo.calc, conn)
    if bad is not None:
        return Verdicts(leibniz=bad)
    table = covariant_table(geo, conn)
    tw, cw = torsion_witnesses(geo, table), compat_witnesses(geo, table)
    defect = defects(geo, conn)
    ncompat = geo.conditions.ncompat
    for name, cov_ok, form_ok in (("torsion", not tw, all(i < ncompat for i in defect)),
                                  ("compatibility", not cw, all(i >= ncompat for i in defect))):
        if cov_ok != form_ok:
            raise InternalInconsistencyError(
                f"{name} verdicts disagree: covariant {cov_ok}, form-level {form_ok}")
    return Verdicts(leibniz=None, table=table, torsion_witnesses=tw, compat_witnesses=cw)


def torsion_witnesses(geo: Geometry, table: Table) -> tuple[tuple[int, int], ...]:
    """Pairs p < q with nabla_p X_q - nabla_q X_p != [X_p, X_q]; the pair
    (q, p) is the negative of (p, q)."""
    n = geo.fields.count
    return tuple((p, q) for p in range(n) for q in range(p + 1, n)
                 if _lincomb(((ONE, table[p][q]), (-ONE, table[q][p]),
                              (-ONE, geo.lie_table[p][q]))))


def compat_witnesses(geo: Geometry, table: Table) -> tuple[tuple[int, int, int], ...]:
    """Triples (y, z, x) with Y g(Z, X) != g(nabla_Y Z, X) + g(Z, nabla_Y X)."""
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
    return tuple(witnesses)


# ---------------------------------------------------------------------------
# The Koszul route
# ---------------------------------------------------------------------------

def koszul_rhs(geo: Geometry, p: int, q: int, z: dict[int, Scalar]) -> dict[int, Scalar]:
    """The six-term right-hand side for x = X_p, y = X_q and any sparse dual z:
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
    return _lincomb(terms)


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
    for z in geo.calc.one_forms.central_generators.zs:
        rhs: dict[int, Scalar] = {}
        for p in range(n):
            xp_of_z = _apply_sparse(geo.fields.maps[p], z)
            for q in range(n):
                value = _lincomb(((ONE, _apply_sparse(geo.fields.deltas[q], xp_of_z)),
                                  (-ONE, e_star.value_sparse(table[q][p], z))))
                # row order matches recon_solver: p outer, q inner, then the
                # algebra coordinate
                base = (p * n + q) * nA
                rhs.update((base + c, v) for c, v in value.items())
        w = geo.recon_solver.solve(rhs)
        if w is None:
            raise SystemSingularError("reconstruction system has no solution")
        ws.append(w)
    return leibniz_extension(geo.calc, ws)


def levi_civita_koszul(geo: Geometry) -> LeviCivitaResult:
    """Read the covariant-derivative table off the Koszul formula, then
    rebuild the connection and certify its defining properties exactly."""
    n = geo.fields.count
    e_star = geo.metric.e_star
    nA = geo.calc.algebra.dim
    v_g_cols = geo.metric.v_g.sparse_cols()
    table = []
    in_fields = True
    for p in range(n):
        row = []
        for q in range(n):
            cols = [{c: HALF * v for c, v in koszul_rhs(geo, p, q, z).items()} for z in v_g_cols]
            functional = Matrix.from_sparse_cols(cols, nA)
            coords = e_star.sparse_coords_of(functional)
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
    """Solve for the torsionless compatible connection by its images
    f_j = nabla(z_j) of the central generators of the one-forms; the
    constraint kernel must be zero, which witnesses uniqueness.

    The unknowns are the f_j, f_j at j * dim(E (x)_A E), and the Leibniz
    rule builds nabla from them once at the end.  The constraints are the
    Levi-Civita conditions that certify reads, and the relations among the
    z_j: nabla is well defined only if each relation
    sum w_(j,s) z_j . a_s == 0 goes to zero, that is
    sum w_(j,s) f_j . a_s == -sum w_(j,s) z_j (x) d a_s.
    """
    calc = geo.calc
    t2 = calc.tensor_square.bimodule
    gens = calc.one_forms.central_generators
    cond = geo.conditions
    nunk = len(gens.zs) * t2.dim
    rows = [*cond.linear.sparse_rows(), *gens.relation_rows(t2)]
    rhs = {i: -v for i, v in cond.constant.items()}
    # each relation's Leibniz constant: its sum over nabla(z_j . a_s) with f = 0
    constants = gens.relation_sums(_leibniz_values(calc, [{}] * len(gens.zs)))
    for r, constant in enumerate(constants):
        rhs.update((cond.linear.rows + r * t2.dim + y, -v) for y, v in constant.items())

    (sol,), rank = solve_sparse(rows, nunk, [rhs])
    if sol is None:
        raise NoSolutionError("no torsionless compatible connection exists")
    kernel_dim = nunk - rank
    if kernel_dim:
        raise NonUniqueSolutionError(
            "constraint system has a nontrivial kernel", witness=kernel_dim)
    images: list[dict[int, Scalar]] = [{} for _ in gens.zs]
    for u, v in sol.items():
        j, y = divmod(u, t2.dim)
        images[j][y] = v
    return LeviCivitaResult(connection=leibniz_extension(calc, images), table=None,
                            table_in_fields=True, kernel_dim=kernel_dim)
