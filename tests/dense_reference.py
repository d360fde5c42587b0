"""Dense reference formulas for the sparse kernels.

Each function is a kernel's definition written with dense vectors, dense
entry grids and whole action matrices, as the engine computed it before the
kernel went sparse: the full-reduction elimination, the dense matrix
arithmetic, and the connection-layer formulas.  The equivalence tests hold
the sparse kernels to these.  hom_kernel is the Hom space as the exact
kernel of the right-linearity rows, grassmann_reference the Grassmann
connection solved over whole splitting matrices, and through_central_tensors
a map on E (x)_A E solved from its values on the central tensors by
solve_through: the oracles for the constructions from the images of the
central generators.  direct_system_reference is the direct route's
system with compatibility posed on every right translate of the central
tensors and the relations' Leibniz constants (leibniz_constants) summed
densely, the oracle for posing it once per tensor, and
levi_civita_perturbation the route posed over the perturbations of the
reference connection, the oracle for solving for nabla outright.
compat_values and pi_g_matrix evaluate the compatibility map Pi_g on every
right translate of the central tensors and extend it over the whole tensor
square, and
levi_civita_verdicts_reference reads torsion off the full matrix
wedge o nabla + d1 and compatibility off Pi_g == d o g: the oracles for
the Levi-Civita conditions posed once per central generator and tensor.
validate_calculus_reference states
every calculus axiom as a matrix identity over the whole algebra basis,
the oracle for the checks that run over the algebra's generators.
lie_table_failure states antisymmetry and Jacobi for a table of bracket
constants, which no command checks: the complex reads [X_p, X_q] only for
p < q.  The
dense forms that only tests read live here too: the action matrix of an
algebra element on a bimodule, left multiplication in the algebra and
its center, the sum, intersection and containment of subspaces, the
kernel of a ColumnSolver, the failed items of a calculus report and the
complex conjugate.
"""

from tamecalc.connection import Connection, defects, nabla_zero
from tamecalc.linalg import (
    ColumnSolver,
    LinAlgError,
    Matrix,
    ONE,
    ZERO,
    Scalar,
    Subspace,
    Vector,
    _apply_sparse,
    _lincomb,
    basis_vector,
    commutator_rows,
    kernel_rows,
    kronecker,
    solve_sparse,
    solve_through,
    sparse_to_vec,
    vec_to_sparse,
    zero_vector,
)


# -- elimination ----------------------------------------------------------------

def _subtract(row, coef, src, skip):
    """row -= coef * src in place, over every column of src except skip."""
    for cc, v in src.items():
        if cc == skip:
            continue
        cur = row.get(cc)
        nv = cur - coef * v if cur is not None else -(coef * v)
        if nv.is_zero():
            row.pop(cc, None)
        else:
            row[cc] = nv


def rref_full(rows, stop_col):
    """Incremental RREF that keeps every pivot row fully reduced: each new
    pivot column is cleared from all earlier pivot rows at once.  Same
    contract as linalg._rref: (pivots, leftovers)."""
    pivots = {}
    leftovers = []
    for raw in rows:
        row = {c: v for c, v in raw.items() if not v.is_zero()}
        for c in [c for c in row if c in pivots]:
            _subtract(row, row.pop(c), pivots[c], c)
        if not row:
            continue
        elig = [c for c in row if c < stop_col]
        if not elig:
            leftovers.append(row)
            continue
        c = min(elig)
        inv = row[c].inverse()
        if inv == ONE:
            newrow = row
        else:
            newrow = {cc: v * inv for cc, v in row.items()}
            newrow[c] = ONE
        for p2 in pivots.values():
            coef = p2.pop(c, None)
            if coef is not None:
                _subtract(p2, coef, newrow, c)
        pivots[c] = newrow
    return pivots, leftovers


# -- dense forms of what the engine keeps sparse -------------------------------------

def conjugate(x: Scalar) -> Scalar:
    """The complex conjugate of a Gaussian rational."""
    return Scalar(x.rn, -x.im, x.dn)


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """u intersected with v: x = sum a_k u_k = sum b_l v_l is the kernel of
    [U^T | -V^T]."""
    assert u.ambient_dim == v.ambient_dim
    k = u.dim
    rows = {}
    for j, r in enumerate(u.rows):
        for i, a in r.items():
            rows.setdefault(i, {})[j] = a
    for j, r in enumerate(v.rows):
        for i, b in r.items():
            rows.setdefault(i, {})[k + j] = -b
    null = kernel_rows([rows[i] for i in sorted(rows)], k + v.dim)
    return Subspace(u.ambient_dim,
                    [_lincomb((c, u.rows[j]) for j, c in w.items() if j < k) for w in null])


def check_ambient(u: Subspace, v: Subspace) -> None:
    if u.ambient_dim != v.ambient_dim:
        raise LinAlgError(f"ambient mismatch: {u.ambient_dim} vs {v.ambient_dim}")


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    check_ambient(u, v)
    return Subspace(u.ambient_dim, u.rows + v.rows)


def subspace_contains(u: Subspace, v: Subspace) -> bool:
    """True iff v is a subspace of u."""
    check_ambient(u, v)
    return not any(u._residual(dict(r)) for r in v.rows)


def solver_kernel(solver: ColumnSolver) -> Subspace:
    """The kernel of the solver's matrix, from the solver's own pivots."""
    return Subspace(solver.m.cols, solver.kernel_rows)


def failures(report) -> list:
    """The failed items of a CalculusReport."""
    return [item for item in report if not item.ok]


def left_action(b, a: Vector) -> Matrix:
    """The action matrix of a dense algebra element a on the bimodule b from
    the left."""
    return _action(b.left, a, b.dim)


def right_action(b, a: Vector) -> Matrix:
    """The action matrix of a on b from the right."""
    return _action(b.right, a, b.dim)


def left_mult(alg, a: Vector) -> Matrix:
    """The matrix of x -> a x on the algebra."""
    return _action([alg.left_basis_matrix(i) for i in range(alg.dim)], a, alg.dim)


def center(alg) -> Subspace:
    """Exact basis of {z : z b = b z for every basis b}."""
    rows = []
    for i in range(alg.dim):
        d = alg.left_basis_matrix(i) - alg.right_basis_matrix(i)
        rows.extend(d.sparse_rows())
    return Subspace(alg.dim, kernel_rows(rows, alg.dim))


def commutator(alg, a: Vector, b: Vector) -> Vector:
    """a b - b a for dense algebra elements."""
    return tuple(x - y for x, y in zip(multiply_dense(alg, a, b), multiply_dense(alg, b, a)))


def pure(qt, e_vec: Vector, f_vec: Vector) -> Vector:
    """Dense quotient coordinates of the class of e (x) f, through the
    engine's sparse pure_sparse."""
    return sparse_to_vec(qt.pure_sparse(vec_to_sparse(e_vec), vec_to_sparse(f_vec)), qt.dim)


def lift(qt, x: Vector) -> dict:
    """The sparse canonical plain-tensor representative of a dense class."""
    return qt.lift_sparse(vec_to_sparse(x))


def vec_is_zero(u: Vector) -> bool:
    return all(a.is_zero() for a in u)


def contains_vector(space: Subspace, v: Vector) -> bool:
    """Is the dense vector v in the subspace?"""
    return not space._residual(vec_to_sparse(v))


# -- dense matrices ---------------------------------------------------------------

def col(m: Matrix, j: int) -> Vector:
    """Column j of m as a dense vector."""
    return sparse_to_vec(m.sparse_cols()[j], m.rows)


def from_cols(cols, nrows: int | None = None) -> Matrix:
    """The matrix with the given dense columns; nrows is read off the first
    column when not given."""
    if nrows is None:
        nrows = len(cols[0])
    assert all(len(c) == nrows for c in cols), "entry grid does not match declared shape"
    return Matrix.from_sparse_cols([vec_to_sparse(c) for c in cols], nrows)


def from_rows(entries) -> Matrix:
    """The matrix with the given dense rows."""
    rows = len(entries)
    return Matrix(rows, len(entries[0]) if rows else 0, entries)


def row_space(m: Matrix) -> Subspace:
    return Subspace(m.cols, m.entries)


class DenseMatrix:
    """An entry grid with the arithmetic Matrix had while it stored one."""

    def __init__(self, rows: int, cols: int, entries):
        self.rows = rows
        self.cols = cols
        self.entries = tuple(tuple(r) for r in entries)

    @staticmethod
    def of(m: Matrix) -> "DenseMatrix":
        return DenseMatrix(m.rows, m.cols, m.entries)

    def __matmul__(self, other):
        out = [[ZERO] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            for k in range(self.cols):
                a = self.entries[i][k]
                for j in range(other.cols):
                    out[i][j] = out[i][j] + a * other.entries[k][j]
        return DenseMatrix(self.rows, other.cols, out)

    def __add__(self, other):
        return DenseMatrix(self.rows, self.cols, [[a + b for a, b in zip(r1, r2)]
                                                  for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return DenseMatrix(self.rows, self.cols, [[a - b for a, b in zip(r1, r2)]
                                                  for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self):
        return DenseMatrix(self.rows, self.cols, [[-a for a in r] for r in self.entries])

    def scale(self, c):
        return DenseMatrix(self.rows, self.cols, [[c * a for a in r] for r in self.entries])

    def transpose(self):
        return DenseMatrix(self.cols, self.rows, [[self.entries[i][j] for i in range(self.rows)]
                                                  for j in range(self.cols)])

    def is_zero(self) -> bool:
        return all(a.is_zero() for r in self.entries for a in r)


def kronecker_dense(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    out = [[ZERO] * (a.cols * b.cols) for _ in range(a.rows * b.rows)]
    for i in range(a.rows):
        for j in range(a.cols):
            for p in range(b.rows):
                for q in range(b.cols):
                    out[i * b.rows + p][j * b.cols + q] = a.entries[i][j] * b.entries[p][q]
    return DenseMatrix(a.rows * b.rows, a.cols * b.cols, out)


def wedge_of(calc, e_vec: Vector, f_vec: Vector) -> Vector:
    """wedge(e (x) f): the wedge matrix on the Kronecker coordinates."""
    return calc.wedge_plain.apply(tuple(a * b for a in e_vec for b in f_vec))


# -- Hom spaces ---------------------------------------------------------------------

def hom_kernel(source, target) -> Subspace:
    """The right-linear maps source -> target, flattened target-major as in
    HomModule.flat: the maps T with T R_a == R_a T for every basis element a,
    dim A * source.dim * target.dim rows."""
    n = source.dim * target.dim
    rows = commutator_rows((target.right[i], source.right[i]) for i in range(source.algebra.dim))
    return Subspace(n, kernel_rows(rows, n))


def through_central_tensors(calc, values, out_dim: int) -> Matrix | None:
    """The map on E (x)_A E sending pi(z_p (x) z_q) . a_r to values[(p, q, r)]
    (triples in lexicographic order), solved by solve_through over those
    columns; None when the values break a relation among them."""
    qt = calc.tensor_square
    zs = calc.one_forms.centered.center.basis
    cols = [qt.bimodule.right[r].apply(pure(qt, zp, zq))
            for zp in zs for zq in zs for r in range(calc.algebra.dim)]
    return solve_through(cols, values, out_dim=out_dim, in_dim=qt.dim)


# -- connection-layer kernels ------------------------------------------------------

def compat_values(geo, conn) -> list[dict]:
    """The compatibility one-form on each member of the certificate's
    spanning family, the class of z_p (x) z_q . a_r at (p * k + q) * dim A + r,
    sparse: pi0(p, q) . a_r + g(z_p (x) z_q) . d a_r, where pi0(p, q)
    contracts g against sigma_23(nabla z_p (x) z_q) and z_p (x) nabla z_q."""
    e = geo.calc.one_forms
    images = [_apply_sparse(conn.nabla, z) for z in e.central_generators.zs]
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


def pi_g_matrix(geo, conn) -> Matrix:
    """The compatibility map Pi_g on the whole tensor square, extended from
    its values on every right translate of the central tensors."""
    m = geo.cert.spanning.extend(compat_values(geo, conn), geo.calc.one_forms.dim)
    assert m is not None, "compatibility map is not well-defined"
    return m


def levi_civita_verdicts_reference(geo, conn) -> tuple[bool, bool]:
    """(torsionless, compatible) of a Leibniz connection, read off whole
    maps: wedge o nabla + d1 == 0 and Pi_g == d o g."""
    calc = geo.calc
    return ((calc.wedge_q @ conn.nabla + calc.d1).is_zero(),
            pi_g_matrix(geo, conn) == calc.d0 @ geo.metric.g)


def leibniz_constants(calc) -> list[Vector]:
    """sum w_(j,s) z_j (x) d a_s for each relation sum w_(j,s) z_j . a_s == 0
    among the central generators z_j of the one-forms, dense: the Leibniz
    rule sends the relation to sum w_(j,s) nabla(z_j) . a_s plus this
    constant, so a connection's images must cancel it."""
    qt = calc.tensor_square
    gens = calc.one_forms.central_generators
    nA, ne = calc.algebra.dim, calc.one_forms.dim
    constants = []
    for w in gens.relations:
        total = zero_vector(qt.dim)
        for pos, c in w.items():
            j, s = divmod(pos, nA)
            term = pure_dense(qt, sparse_to_vec(gens.zs[j], ne), col(calc.d0, s))
            total = tuple(x + c * y for x, y in zip(total, term))
        constants.append(total)
    return constants


def direct_system_reference(geo) -> tuple[list[dict], int, dict]:
    """The direct route's constraint system (rows, unknowns, right-hand side)
    over the images f_j = nabla(z_j), with compatibility posed on every
    right translate pi(z_p (x) z_q) . a_r of the central tensors: the
    k^2 dim A blocks, each the map f -> leg_sigma[q] f_p + leg_plain[p] f_q
    right-multiplied by a_r, with d(g(z_p (x) z_q) a_r) minus
    g(z_p (x) z_q) . d a_r on the right.  The torsion rows W f_j have
    -d1 z_j on the right, and the relation rows minus leibniz_constants."""
    calc = geo.calc
    e = calc.one_forms
    alg = calc.algebra
    t2 = calc.tensor_square.bimodule
    gens = e.central_generators
    nz, nt = len(gens.zs), t2.dim
    nunk = nz * nt

    def shifted(j, row):
        return {j * nt + f: v for f, v in row.items()}

    lam = {}
    for p in range(nz):
        for q in range(nz):
            sig = geo.leg_sigma[q].sparse_rows()
            pla = geo.leg_plain[p].sparse_rows()
            lam[(p, q)] = Matrix.from_sparse_rows(
                [_lincomb(((ONE, shifted(p, sig[c])), (ONE, shifted(q, pla[c]))))
                 for c in range(e.dim)], nunk)
    rows, rhs = [], {}
    for j, g_pq in enumerate(geo.g_central):
        g_dense = sparse_to_vec(g_pq, alg.dim)
        for r in range(alg.dim):
            gval = alg.right_basis_matrix(r).apply(g_dense)
            g_dr = left_action(e, g_dense).apply(col(calc.d0, r))
            residual = tuple(x - y for x, y in zip(calc.d0.apply(gval), g_dr))
            rhs.update((len(rows) + c, v) for c, v in vec_to_sparse(residual).items())
            rows.extend((e.right[r] @ lam[divmod(j, nz)]).sparse_rows())
    for j, z in enumerate(gens.zs):
        torsion = calc.d1.apply(sparse_to_vec(z, e.dim))
        rhs.update((len(rows) + c, -v) for c, v in vec_to_sparse(torsion).items())
        rows.extend(shifted(j, row) for row in calc.wedge_q.sparse_rows())
    for r, constant in enumerate(leibniz_constants(calc)):
        rhs.update((len(rows) + r * nt + y, -v) for y, v in vec_to_sparse(constant).items())
    rows.extend(gens.relation_rows(t2))
    return rows, nunk, rhs


def levi_civita_perturbation(geo) -> tuple[Connection, int]:
    """The direct route posed over the Leibniz perturbations alpha of the
    reference connection nabla0 = nabla_zero: the unknowns are the images
    alpha(z_j), the rows those of the route, and the right-hand side the
    defect of nabla0, negated, with nothing on the relation rows, since
    alpha is right-linear.  The Levi-Civita connection nabla0 + alpha and
    the system's rank."""
    t2 = geo.calc.tensor_square.bimodule
    gens = geo.calc.one_forms.central_generators
    nabla0 = nabla_zero(geo.calc, geo.cert)
    rhs = {i: -v for i, v in defects(geo, nabla0).items()}
    rows = [*geo.conditions.linear.sparse_rows(), *gens.relation_rows(t2)]
    (sol,), rank = solve_sparse(rows, len(gens.zs) * t2.dim, [rhs])
    assert sol is not None, "no torsionless compatible perturbation"
    return Connection(nabla0.nabla + gens.right_linear(t2, sol)), rank


def pure_dense(qt, e_vec: Vector, f_vec: Vector) -> Vector:
    """The class of e (x) f: the Kronecker vector, projected."""
    plain = tuple(a * b for a in e_vec for b in f_vec)
    return qt.project.apply(plain)


def g_tilde_dense(calc, metric, phi: Vector, psi: Vector) -> Vector:
    """g(V_g^{-1} phi (x) V_g^{-1} psi) through two dense applies."""
    u = metric.v_g_inv.apply(phi)
    w = metric.v_g_inv.apply(psi)
    return metric.g.apply(pure_dense(calc.tensor_square, u, w))


def multiply_dense(alg, a: Vector, b: Vector) -> Vector:
    out = [ZERO] * alg.dim
    for i, ca in vec_to_sparse(a).items():
        for j, cb in vec_to_sparse(b).items():
            c = ca * cb
            for k, s in enumerate(alg.mul[i][j]):
                out[k] = out[k] + c * s
    return tuple(out)


def pair_apply_dense(qt, phi: Matrix, psi: Matrix, x: Vector) -> Vector:
    """phi(e) * psi(f) summed over the canonical representative of x."""
    alg = qt.left_factor.algebra
    fdim = qt.right_factor.dim
    rep = qt.section.apply(x)
    out = zero_vector(alg.dim)
    for idx, c in vec_to_sparse(rep).items():
        s, t = divmod(idx, fdim)
        prod = multiply_dense(alg, col(phi, s), col(psi, t))
        out = tuple(u + c * v for u, v in zip(out, prod))
    return out


def leibniz_witness_dense(calc, conn) -> tuple[int, int] | None:
    """First (s, i), algebra index outer, with
    nabla(e_s . a_i) != nabla(e_s) . a_i + e_s (x) d a_i."""
    e = calc.one_forms
    qt = calc.tensor_square
    for i in range(calc.algebra.dim):
        for s in range(e.dim):
            lhs = conn.nabla.apply(col(e.right[i], s))
            rhs = qt.bimodule.right[i].apply(col(conn.nabla, s))
            extra = pure_dense(qt, basis_vector(e.dim, s), col(calc.d0, i))
            if lhs != tuple(x + y for x, y in zip(rhs, extra)):
                return (s, i)
    return None


def grassmann_reference(calc, frame) -> Matrix:
    """The Grassmann connection of a frame g_j, solved over whole splitting
    matrices: each S_j: E -> A is dim A * dim E unknowns with
    S_j R_a == R_a S_j for every basis element a, and
    sum_j g_j . S_j(e_k) == e_k on every basis vector e_k.  Then
    nabla(e_k) = sum_j g_j (x) d(S_j e_k)."""
    e = calc.one_forms
    alg = calc.algebra
    qt = calc.tensor_square
    n, nA, nE = len(frame), alg.dim, e.dim
    width = nA * nE

    def unknown(j, a, k):
        return j * width + a * nE + k

    linear = commutator_rows((alg.right_basis_matrix(i), e.right[i]) for i in range(nA))
    rows = [{j * width + u: v for u, v in row.items()} for j in range(n) for row in linear]
    rhs = [ZERO] * len(rows)
    translates = [[e.right[a].apply(g) for a in range(nA)] for g in frame]
    for k in range(nE):
        for c in range(nE):
            rows.append({unknown(j, a, k): translates[j][a][c]
                         for j in range(n) for a in range(nA)
                         if not translates[j][a][c].is_zero()})
            rhs.append(ONE if c == k else ZERO)
    (sol,), _ = solve_sparse(rows, n * width, [vec_to_sparse(rhs)])
    assert sol is not None, "no splitting through the frame"
    sol = sparse_to_vec(sol, n * width)
    cols = []
    for k in range(nE):
        col = zero_vector(qt.dim)
        for j in range(n):
            s_jk = tuple(sol[unknown(j, a, k)] for a in range(nA))
            term = pure_dense(qt, frame[j], calc.d0.apply(s_jk))
            col = tuple(x + y for x, y in zip(col, term))
        cols.append(col)
    return from_cols(cols, qt.dim)


def graded_leibniz_dense(calc) -> str | None:
    """The graded Leibniz check on dense vectors: the first failing identity's
    witness, in the calculus check's order, or None."""
    alg, e, w2 = calc.algebra, calc.one_forms, calc.two_forms
    nA, nE = alg.dim, e.dim
    for i in range(nA):
        da = col(calc.d0, i)
        for j in range(nA):
            lhs = calc.d1.apply(e.right[j].apply(da))
            rhs = tuple(-x for x in wedge_of(calc, da, col(calc.d0, j)))
            if lhs != rhs:
                return f"d(da.b) != -da^db at ({alg.labels[i]}, {alg.labels[j]})"
    for i in range(nA):
        da = col(calc.d0, i)
        for s in range(nE):
            es = basis_vector(nE, s)
            ds = col(calc.d1, s)
            lhs = calc.d1.apply(e.left[i].apply(es))
            rhs = tuple(x + y for x, y in zip(wedge_of(calc, da, es), w2.left[i].apply(ds)))
            if lhs != rhs:
                return f"d(a.w) != da^w + a.dw at (a={alg.labels[i]}, w={s})"
            lhs = calc.d1.apply(e.right[i].apply(es))
            rhs = tuple(x - y for x, y in zip(w2.right[i].apply(ds), wedge_of(calc, es, da)))
            if lhs != rhs:
                return f"d(w.a) != dw.a - w^da at (a={alg.labels[i]}, w={s})"
    return None


# -- the calculus axioms over the whole algebra basis --------------------------------

def _action(actions, a: Vector, dim: int) -> Matrix:
    """sum_k a_k actions[k]."""
    out = Matrix.zeros(dim, dim)
    for k, c in vec_to_sparse(a).items():
        out = out + actions[k].scale(c)
    return out


def bimodule_axioms_reference(b) -> str | None:
    """The message of the first failing bimodule axiom, every basis pair
    (i, j) in order, or None."""
    alg = b.algebra
    ident = Matrix.identity(b.dim)
    if _action(b.left, alg.unit, b.dim) != ident:
        return "bimodule: unit does not act as identity on the left"
    if _action(b.right, alg.unit, b.dim) != ident:
        return "bimodule: unit does not act as identity on the right"
    for i in range(alg.dim):
        for j in range(alg.dim):
            prod = alg.mul[i][j]
            if _action(b.left, prod, b.dim) != b.left[i] @ b.left[j]:
                return f"bimodule: (ab)e != a(be) at basis pair ({i}, {j})"
            if _action(b.right, prod, b.dim) != b.right[j] @ b.right[i]:
                return f"bimodule: e(ab) != (ea)b at basis pair ({i}, {j})"
            if b.left[i] @ b.right[j] != b.right[j] @ b.left[i]:
                return f"bimodule: (a e) b != a (e b) at basis pair ({i}, {j})"
    return None


def validate_calculus_reference(calc) -> list[tuple[str, bool, str | None]]:
    """(name, ok, witness) of every item validate_calculus reports, each
    identity checked over the whole algebra basis on dense vectors or whole
    matrices."""
    alg, e, w2 = calc.algebra, calc.one_forms, calc.two_forms
    nA, nE = alg.dim, e.dim
    w = calc.wedge_plain

    def d0_leibniz():
        for i in range(nA):
            for j in range(nA):
                lhs = calc.d0.apply(alg.mul[i][j])
                rhs = tuple(x + y for x, y in zip(e.right[j].apply(col(calc.d0, i)),
                                                  e.left[i].apply(col(calc.d0, j))))
                if lhs != rhs:
                    return f"d(ab) != da.b + a.db at basis pair ({alg.labels[i]}, {alg.labels[j]})"
        return None

    def d_squared():
        return None if (calc.d1 @ calc.d0).is_zero() else "d1 . d0 != 0"

    def wedge_middle_linear():
        rows = commutator_rows((e.right[i].transpose(), e.left[i]) for i in range(nA))
        relations = Subspace(nE * nE, rows)
        if (w @ Matrix.from_sparse_cols(relations.rows, nE * nE)).is_zero():
            return None
        return "wedge does not vanish on the (x)_A relation subspace"

    def wedge_bimodule_map():
        eye = Matrix.identity(nE)
        for i in range(nA):
            left = ((w @ kronecker(e.left[i], eye)).sparse_cols(),
                    (w2.left[i] @ w).sparse_cols())
            right = ((w @ kronecker(eye, e.right[i])).sparse_cols(),
                     (w2.right[i] @ w).sparse_cols())
            for s in range(nE):
                for t in range(nE):
                    if left[0][s * nE + t] != left[1][s * nE + t]:
                        return f"wedge(a e (x) f) != a wedge(e (x) f) at (a={alg.labels[i]}, {s}, {t})"
                    if right[0][s * nE + t] != right[1][s * nE + t]:
                        return f"wedge(e (x) f a) != wedge(e (x) f) a at (a={alg.labels[i]}, {s}, {t})"
        return None

    def spanned_by_da_b():
        cols = [e.right[j].apply(col(calc.d0, i)) for i in range(nA) for j in range(nA)]
        if Subspace(nE, cols).dim != nE:
            return "one-forms are not the right-linear span of {da.b}"
        return None

    def wedge_surjective():
        return None if w.rank() == w2.dim else "wedge does not reach all of the two-forms"

    checks = (
        ("one_forms_bimodule_axioms", lambda: bimodule_axioms_reference(e)),
        ("two_forms_bimodule_axioms", lambda: bimodule_axioms_reference(w2)),
        ("d0_leibniz", d0_leibniz),
        ("d_squared_zero", d_squared),
        ("wedge_middle_linear", wedge_middle_linear),
        ("wedge_bimodule_map", wedge_bimodule_map),
        ("graded_leibniz", lambda: graded_leibniz_dense(calc)),
        ("one_forms_spanned_by_exact_forms", spanned_by_da_b),
        ("wedge_surjective", wedge_surjective),
    )
    return [(name, witness is None, witness) for name, witness in
            ((name, fn()) for name, fn in checks)]


def lie_table_failure(brackets) -> tuple[int, ...] | None:
    """The first (i, j) where the dense bracket table is not antisymmetric,
    else the first (i, j, k) where [[X_i, X_j], X_k] + cyclic != 0, else
    None.  brackets[i][j] is the coordinate vector of [X_i, X_j]."""
    n = len(brackets)
    for i in range(n):
        for j in range(n):
            if brackets[i][j] != tuple(-x for x in brackets[j][i]):
                return (i, j)

    def bracket(u: Vector, k: int) -> Vector:
        out = [ZERO] * n
        for m, c in enumerate(u):
            for r, x in enumerate(brackets[m][k]):
                out[r] = out[r] + c * x
        return tuple(out)

    for i in range(n):
        for j in range(n):
            for k in range(n):
                terms = [bracket(brackets[a][b], c) for a, b, c in ((i, j, k), (j, k, i), (k, i, j))]
                if not vec_is_zero(tuple(sum(xs, ZERO) for xs in zip(*terms))):
                    return (i, j, k)
    return None
