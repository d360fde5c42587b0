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
central generators.  validate_calculus_reference states
every calculus axiom as a matrix identity over the whole algebra basis,
the oracle for the checks that run over the algebra's generators.
"""

from tamecalc.linalg import (
    Matrix,
    ONE,
    ZERO,
    Subspace,
    Vector,
    basis_vector,
    commutator_rows,
    kernel_rows,
    kronecker,
    solve_sparse,
    solve_through,
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


# -- dense matrices ---------------------------------------------------------------

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
    cols = [qt.bimodule.right[r].apply(qt.pure(zp, zq))
            for zp in zs for zq in zs for r in range(calc.algebra.dim)]
    return solve_through(cols, values, out_dim=out_dim, in_dim=qt.dim)


# -- connection-layer kernels ------------------------------------------------------


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
        prod = multiply_dense(alg, phi.col(s), psi.col(t))
        out = tuple(u + c * v for u, v in zip(out, prod))
    return out


def leibniz_witness_dense(calc, conn) -> tuple[int, int] | None:
    """First (s, i), algebra index outer, with
    nabla(e_s . a_i) != nabla(e_s) . a_i + e_s (x) d a_i."""
    e = calc.one_forms
    qt = calc.tensor_square
    for i in range(calc.algebra.dim):
        for s in range(e.dim):
            lhs = conn.nabla.apply(e.right[i].col(s))
            rhs = qt.bimodule.right[i].apply(conn.nabla.col(s))
            extra = pure_dense(qt, basis_vector(e.dim, s), calc.d0.col(i))
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
    (sol,), _ = solve_sparse(rows, n * width, [rhs])
    assert sol is not None, "no splitting through the frame"
    cols = []
    for k in range(nE):
        col = zero_vector(qt.dim)
        for j in range(n):
            s_jk = tuple(sol[unknown(j, a, k)] for a in range(nA))
            term = pure_dense(qt, frame[j], calc.d0.apply(s_jk))
            col = tuple(x + y for x, y in zip(col, term))
        cols.append(col)
    return Matrix.from_cols(cols, qt.dim)


def graded_leibniz_dense(calc) -> str | None:
    """The graded Leibniz check on dense vectors: the first failing identity's
    witness, in the calculus check's order, or None."""
    alg, e, w2 = calc.algebra, calc.one_forms, calc.two_forms
    nA, nE = alg.dim, e.dim
    for i in range(nA):
        da = calc.d0.col(i)
        for j in range(nA):
            lhs = calc.d1.apply(e.right[j].apply(da))
            rhs = tuple(-x for x in wedge_of(calc, da, calc.d0.col(j)))
            if lhs != rhs:
                return f"d(da.b) != -da^db at ({alg.labels[i]}, {alg.labels[j]})"
    for i in range(nA):
        da = calc.d0.col(i)
        for s in range(nE):
            es = basis_vector(nE, s)
            ds = calc.d1.col(s)
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
                rhs = tuple(x + y for x, y in zip(e.right[j].apply(calc.d0.col(i)),
                                                  e.left[i].apply(calc.d0.col(j))))
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
        cols = [e.right[j].apply(calc.d0.col(i)) for i in range(nA) for j in range(nA)]
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
