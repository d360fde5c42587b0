"""Dense reference formulas for the sparse connection-layer kernels.

Each function is the kernel's definition written with dense vectors and
whole action matrices, as the engine computed it before its kernels moved
to sparse columns.  The equivalence tests hold the kernels to these.
"""

from tamecalc.linalg import Matrix, ZERO, Vector, basis_vector, vec_to_sparse, zero_vector


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
