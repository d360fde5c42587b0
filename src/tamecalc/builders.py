"""Constructors for the shipped example calculi.

Everything here goes through one functor: given a Lie algebra L acting on A
by derivations, the one-forms are the A-valued linear functionals on L, the
two-forms the alternating ones, and d and wedge are the usual
finite-dimensional complex formulas

    da(X)      = X(a)
    dphi(X, Y) = X(phi(Y)) - Y(phi(X)) - phi([X, Y])
    (phi ^ psi)(X, Y) = phi(X) psi(Y) - phi(Y) psi(X).

Two presets are shipped: a 2x2 matrix algebra with its inner derivations
(noncommutative, curvature-bearing) and a matrix algebra with two commuting
projector derivations (the flat baseline).

Builders build, and `check` certifies: past its shapes, nothing here checks
the algebra or the Lie datum.  On the built calculus a broken datum fails a
named check: an action that is no derivation `d0_leibniz`, actions that do
not represent the bracket `d_squared_zero` (d1 d0 is [X_p, X_q] - X_[p,q]).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .algebra import Algebra
from .bimodule import Bimodule
from .calculus import Calculus
from .errors import ContractViolationError
from .linalg import (
    Matrix,
    ONE,
    Scalar,
    Vector,
    ZERO,
    basis_vector,
    kronecker,
    qi,
    zero_vector,
)


@dataclass(frozen=True)
class ChevalleySpec:
    """A Lie algebra L acting on A by derivations, by structure constants.

    brackets[i][j] is the L-coordinate vector of [X_i, X_j]; actions[i] is
    the matrix of X_i on A.  d1 reads brackets[p][q] for p < q only.
    """

    algebra: Algebra
    lie_dim: int
    brackets: tuple[tuple[Vector, ...], ...]
    actions: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        n, nA = self.lie_dim, self.algebra.dim
        if (len(self.actions) != n or any((a.rows, a.cols) != (nA, nA) for a in self.actions)
                or [len(r) for r in self.brackets] != [n] * n
                or any(len(v) != n for r in self.brackets for v in r)):
            raise ContractViolationError("chevalley: bracket/action tables of wrong size")


def build_chevalley(spec: ChevalleySpec) -> Calculus:
    """The degree-(0,1,2) piece of the complex of L with coefficients in A."""
    alg = spec.algebra
    nA = alg.dim
    nL = spec.lie_dim

    # One-forms: functionals L -> A, basis phi_{j,alpha}(X_k) = delta_jk b_alpha,
    # index (j, alpha) -> j*nA + alpha.  Actions act on values.
    eye_l = Matrix.identity(nL)
    left = [kronecker(eye_l, alg.left_basis_matrix(i)) for i in range(nA)]
    right = [kronecker(eye_l, alg.right_basis_matrix(i)) for i in range(nA)]
    one_forms = Bimodule(alg, nL * nA, left, right) if nL else Bimodule.zero(alg)

    pairs = list(combinations(range(nL), 2))
    npairs = len(pairs)
    pair_index = {pq: m for m, pq in enumerate(pairs)}
    if npairs:
        eye_p = Matrix.identity(npairs)
        left2 = [kronecker(eye_p, alg.left_basis_matrix(i)) for i in range(nA)]
        right2 = [kronecker(eye_p, alg.right_basis_matrix(i)) for i in range(nA)]
        two_forms = Bimodule(alg, npairs * nA, left2, right2)
    else:
        two_forms = Bimodule.zero(alg)

    # d0: (da)(X_k) = X_k(a), so rows k*nA + gamma are the rows of X_k
    d0 = Matrix.from_sparse_rows([r for act in spec.actions for r in act.sparse_rows()], nA)

    # d1: (dphi)(X_p, X_q) = X_p(phi(X_q)) - X_q(phi(X_p)) - phi([X_p, X_q])
    d1_rows: list[dict[int, Scalar]] = [{} for _ in range(npairs * nA)]

    def add(row: int, col: int, v: Scalar) -> None:
        cur = d1_rows[row].get(col)
        d1_rows[row][col] = v if cur is None else cur + v

    for j in range(nL):
        for alpha in range(nA):
            col = j * nA + alpha
            for (p, q) in pairs:
                row_base = pair_index[(p, q)] * nA
                if q == j:
                    for gamma, v in spec.actions[p].sparse_cols()[alpha].items():
                        add(row_base + gamma, col, v)
                if p == j:
                    for gamma, v in spec.actions[q].sparse_cols()[alpha].items():
                        add(row_base + gamma, col, -v)
                c = spec.brackets[p][q][j]
                if not c.is_zero():
                    add(row_base + alpha, col, -c)
    d1 = Matrix.from_sparse_rows([{c: v for c, v in r.items() if not v.is_zero()} for r in d1_rows],
                                 one_forms.dim)

    # wedge on the plain tensor square
    ne = nL * nA
    wedge_rows: list[dict[int, Scalar]] = [{} for _ in range(npairs * nA)]
    table = alg.sparse_mul
    for j in range(nL):
        for alpha in range(nA):
            for k in range(nL):
                if j == k:
                    continue
                sign = ONE if j < k else -ONE
                m = pair_index[(j, k) if j < k else (k, j)]
                for beta in range(nA):
                    col = (j * nA + alpha) * ne + (k * nA + beta)
                    for gamma, v in table[alpha][beta].items():
                        wedge_rows[m * nA + gamma][col] = sign * v
    wedge = Matrix.from_sparse_rows(wedge_rows, ne * ne)

    return Calculus(alg, one_forms, two_forms, d0, d1, wedge)


def euclidean_metric_plain(spec: ChevalleySpec) -> Matrix:
    """g(theta_j (x) theta_k) = delta_jk 1, extended to the functional basis.

    On plain basis tensors this reads g(phi_{j,a} (x) phi_{k,b}) =
    delta_jk b_a b_b.
    """
    alg = spec.algebra
    nA, nL = alg.dim, spec.lie_dim
    ne = nL * nA
    rows: list[dict[int, Scalar]] = [{} for _ in range(nA)]
    table = alg.sparse_mul
    for j in range(nL):
        for alpha in range(nA):
            for beta in range(nA):
                col = (j * nA + alpha) * ne + (j * nA + beta)
                for gamma, v in table[alpha][beta].items():
                    rows[gamma][col] = v
    return Matrix.from_sparse_rows(rows, ne * ne)


# ---------------------------------------------------------------------------
# Preset: n x n matrix algebra with inner derivations (shipped at n = 2)
# ---------------------------------------------------------------------------

def matrix_derivations_chevalley(n: int = 2) -> ChevalleySpec:
    """A = span{1, U, V, W} with U^2 = V^2 = 1, VU = -UV, W = UV (so A is the
    2x2 matrix algebra), acted on by its inner derivations ad U, ad V, ad W.
    """
    if n != 2:
        raise ContractViolationError("matrix-derivations preset ships only n = 2")
    e = [basis_vector(4, k) for k in range(4)]
    z = zero_vector(4)

    def v(*coeffs: tuple[int, int]) -> Vector:
        out = list(z)
        for idx, c in coeffs:
            out[idx] = qi(c)
        return tuple(out)

    mul = [[z] * 4 for _ in range(4)]
    for k in range(4):
        mul[0][k] = e[k]
        mul[k][0] = e[k]
    mul[1][1] = e[0]
    mul[1][2] = e[3]
    mul[1][3] = e[2]
    mul[2][1] = v((3, -1))
    mul[2][2] = e[0]
    mul[2][3] = v((1, -1))
    mul[3][1] = v((2, -1))
    mul[3][2] = e[1]
    mul[3][3] = v((0, -1))
    alg = Algebra(4, ("1", "U", "V", "W"), e[0], mul)

    actions = tuple(alg.ad(e[k]) for k in (1, 2, 3))
    two = qi(2)
    zero3 = zero_vector(3)
    brackets = [[zero3] * 3 for _ in range(3)]
    brackets[0][1] = (ZERO, ZERO, two)          # [ad U, ad V] = 2 ad W
    brackets[1][0] = (ZERO, ZERO, -two)
    brackets[0][2] = (ZERO, two, ZERO)          # [ad U, ad W] = 2 ad V
    brackets[2][0] = (ZERO, -two, ZERO)
    brackets[1][2] = (-two, ZERO, ZERO)         # [ad V, ad W] = -2 ad U
    brackets[2][1] = (two, ZERO, ZERO)
    return ChevalleySpec(alg, 3, tuple(tuple(r) for r in brackets), actions)


# ---------------------------------------------------------------------------
# Preset: abelian torus-like family of commuting matrix derivations
# ---------------------------------------------------------------------------

def abelian_torus_chevalley(n: int = 2) -> ChevalleySpec:
    """A = M_{n+1} acted on by the two commuting inner derivations
    ad(E_11) and ad(E_{n+1,n+1}): the flat two-direction baseline.

    Finite-dimensional commutative algebras cannot carry this preset: every
    derivation of one lands in the radical (idempotents map to zero), so
    exact one-forms never span Hom(L, A).  One matrix block with a pair of
    commuting projector derivations is the smallest realization where they
    do; the bracket vanishes, so with the Euclidean metric the preset is the
    flat baseline at every size.
    """
    if n not in (2, 4):
        raise ContractViolationError("abelian-torus preset ships n in {2, 4}")
    m = n + 1
    dim = m * m

    def idx(i: int, j: int) -> int:
        return i * m + j

    zvec = zero_vector(dim)
    mul = [[zvec] * dim for _ in range(dim)]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for l in range(m):
                    if j == k:
                        mul[idx(i, j)][idx(k, l)] = basis_vector(dim, idx(i, l))
    labels = tuple(f"E{i + 1}{j + 1}" for i in range(m) for j in range(m))
    unit = tuple(ONE if (d % (m + 1) == 0) else ZERO for d in range(dim))
    alg = Algebra(dim, labels, unit, mul)

    actions = (alg.ad(basis_vector(dim, idx(0, 0))),
               alg.ad(basis_vector(dim, idx(m - 1, m - 1))))
    zero_l = zero_vector(2)
    brackets = ((zero_l, zero_l), (zero_l, zero_l))
    return ChevalleySpec(alg, 2, brackets, actions)


@dataclass(frozen=True)
class Preset:
    name: str
    calculus: Calculus
    metric_plain: Matrix


def preset_matrix_derivations(n: int = 2) -> Preset:
    spec = matrix_derivations_chevalley(n)
    return Preset(f"matrix-derivations-{n}", build_chevalley(spec),
                  euclidean_metric_plain(spec))


def preset_abelian_torus(n: int = 2) -> Preset:
    spec = abelian_torus_chevalley(n)
    return Preset(f"abelian-torus-{n}", build_chevalley(spec),
                  euclidean_metric_plain(spec))


PRESETS = {
    "matrix-derivations": preset_matrix_derivations,
    "abelian-torus": preset_abelian_torus,
}
