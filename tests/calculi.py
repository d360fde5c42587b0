"""Calculi the builders do not make, each valid whenever its input is:
the graph calculus on two points, a calculus with its two-forms dropped,
and the quotient of a calculus by a sub-bimodule N of its one-forms.

With no two-forms, d1 and the wedge are zero maps into the zero space,
and every axiom about them holds.  The quotient E/N takes d' = pi d, so
it is spanned by the d'a.b, and its actions are those of E read through
pi; it keeps Omega^2 = 0.
"""

from __future__ import annotations

from tamecalc.algebra import Algebra
from tamecalc.bimodule import Bimodule
from tamecalc.calculus import Calculus
from tamecalc.linalg import ONE, ZERO, Matrix, Scalar, Subspace, _apply_sparse


def two_point_graph() -> Calculus:
    """Functions on two points, A = K^2 with basis the point functions p1
    and p2, and E spanned by the edges d12 and d21: f . d_xy = f(x) d_xy,
    d_xy . f = f(y) d_xy and df = sum (f(y) - f(x)) d_xy.  Omega^2 = 0.
    No nonzero one-form is central, so E is not centered."""
    e1, e2, z = (ONE, ZERO), (ZERO, ONE), (ZERO, ZERO)
    alg = Algebra(2, ("p1", "p2"), (ONE, ONE), [[e1, z], [z, e2]])
    only = [Matrix.from_sparse_rows([{0: ONE}, {}], 2), Matrix.from_sparse_rows([{}, {1: ONE}], 2)]
    e = Bimodule(alg, 2, only, only[::-1])
    d0 = Matrix.from_sparse_cols([{0: -ONE, 1: ONE}, {0: ONE, 1: -ONE}], 2)
    return without_two_forms(alg, e, d0)


def without_two_forms(alg: Algebra, e: Bimodule, d0: Matrix) -> Calculus:
    """The calculus (A, E, d0) with Omega^2 = 0."""
    return Calculus(alg, e, Bimodule.zero(alg), d0, Matrix.zeros(0, e.dim),
                    Matrix.zeros(0, e.dim * e.dim))


def sub_bimodule(e: Bimodule, v: dict[int, Scalar]) -> Subspace:
    """The sub-bimodule of e generated by the sparse element v: the span
    of v closed under every basis element's actions."""
    span = Subspace(e.dim, [v])
    while True:
        grown = Subspace(e.dim, [*span.rows, *(_apply_sparse(m, row) for row in span.rows
                                               for m in (*e.left, *e.right))])
        if grown.dim == span.dim:
            return span
        span = grown


def quotient_calculus(calc: Calculus, v: dict[int, Scalar]) -> Calculus | None:
    """E/N with d' = pi d and Omega^2 = 0, for N the sub-bimodule that v
    generates; None when N is 0 or all of E.  E/N has the coordinates of
    E off N's pivots, and pi reduces modulo N onto them."""
    e = calc.one_forms
    n = sub_bimodule(e, v)
    if n.dim in (0, e.dim):
        return None
    free = n.complement_positions()
    position = {j: k for k, j in enumerate(free)}

    def pi(cols) -> Matrix:
        return Matrix.from_sparse_cols(
            [{position[j]: c for j, c in n._residual(dict(col)).items()} for col in cols],
            len(free))

    def on_quotient(m: Matrix) -> Matrix:
        cols = m.sparse_cols()
        return pi([cols[j] for j in free])

    quotient = Bimodule(calc.algebra, len(free), [on_quotient(m) for m in e.left],
                        [on_quotient(m) for m in e.right])
    return without_two_forms(calc.algebra, quotient, pi(calc.d0.sparse_cols()))
