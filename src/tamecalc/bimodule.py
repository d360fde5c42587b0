"""Bimodules over a finite-dimensional algebra.

A bimodule is a K-space with one left-action and one right-action matrix per
algebra basis element.  Tensor products over the algebra are materialized as
quotients of the plain tensor space by the middle-linearity relations, with
explicit project/section matrices.  Right-linear maps out of a centered
bimodule have one constructor, `CentralGenerators`: such a map is fixed by
its images of the central generators z_j, and a right-linear identity holds
once it holds on the z_j.  Each bimodule decides once whether it is centered
and keeps one `central_generators`, which the tameness certificate, its Hom
spaces and the connection layer share.

A bimodule records in `validated` that its axioms hold over a validated
algebra, or that it was built from bimodules that did.  Then the bimodule
axioms, the center and the middle-linearity relations only need the
algebra's generators: the relation e.(ab) (x) f - e (x) (ab).f is a sum of
relations for a and for b, so the relation subspace, and with it the
quotient basis, project and section, is the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .algebra import Algebra
from .errors import ContractViolationError, InternalInconsistencyError
from .linalg import (
    Matrix,
    ONE,
    Scalar,
    Subspace,
    Vector,
    ZERO,
    _apply_sparse,
    _combination_rows,
    _lincomb,
    _product_rows,
    basis_vector,
    commutator_rows,
    kernel_rows,
    solve_sparse,
    sparse_to_vec,
    vec_to_sparse,
)


class Bimodule:
    """A-A-bimodule as a K-space with action tensors."""

    def __init__(self, algebra: Algebra, dim: int,
                 left: Sequence[Matrix], right: Sequence[Matrix]):
        if len(left) != algebra.dim or len(right) != algebra.dim:
            raise ContractViolationError("bimodule: one action matrix per algebra basis element")
        for m in (*left, *right):
            if m.rows != dim or m.cols != dim:
                raise ContractViolationError("bimodule: action matrix of wrong shape")
        self.algebra = algebra
        self.dim = dim
        self.left = tuple(left)
        self.right = tuple(right)
        self.validated = False

    def _derived(self, *sources: "Bimodule | Algebra") -> "Bimodule":
        """Mark a bimodule built from validated ones (or from a validated
        algebra) as validated itself."""
        self.validated = all(src.validated for src in sources)
        return self

    @staticmethod
    def regular(algebra: Algebra) -> "Bimodule":
        """The algebra as a bimodule over itself."""
        n = algebra.dim
        return Bimodule(algebra, n,
                        [algebra.left_basis_matrix(i) for i in range(n)],
                        [algebra.right_basis_matrix(i) for i in range(n)])._derived(algebra)

    @staticmethod
    def zero(algebra: Algebra) -> "Bimodule":
        z = Matrix.zeros(0, 0)
        return Bimodule(algebra, 0, [z] * algebra.dim, [z] * algebra.dim)

    @cached_property
    def centered(self) -> "CenteredReport":
        """is_centered, decided once per bimodule."""
        return is_centered(self)

    @cached_property
    def central_generators(self) -> "CentralGenerators":
        """Raises ContractViolationError when the bimodule is not centered."""
        return CentralGenerators(self)

    def left_action(self, a: Vector) -> Matrix:
        return Matrix.from_sparse_rows(self._action_rows(self.left, a), self.dim)

    def right_action(self, a: Vector) -> Matrix:
        return Matrix.from_sparse_rows(self._action_rows(self.right, a), self.dim)

    def _action_rows(self, actions: Sequence[Matrix], a: Vector) -> list[dict[int, Scalar]]:
        return _combination_rows(((c, actions[i]) for i, c in vec_to_sparse(a).items()), self.dim)

    def act_left(self, a: dict[int, Scalar], v: dict[int, Scalar]) -> dict[int, Scalar]:
        """a . v for sparse a and v, without building the action of a."""
        return _act(self.left, a, v)

    def act_right(self, a: dict[int, Scalar], v: dict[int, Scalar]) -> dict[int, Scalar]:
        """v . a for sparse a and v, without building the action of a."""
        return _act(self.right, a, v)

    def validate(self) -> None:
        """Certify the bimodule axioms; raises with the failing pair.

        Every identity is compared on sparse rows.  Over a validated algebra
        with the unit acting as the identity, each axiom holds for all of A
        once it holds for the generators in the slot named below."""
        alg = self.algebra
        n = alg.dim
        ident = [{i: ONE} for i in range(self.dim)]
        if self._action_rows(self.left, alg.unit) != ident:
            raise ContractViolationError("bimodule: unit does not act as identity on the left")
        if self._action_rows(self.right, alg.unit) != ident:
            raise ContractViolationError("bimodule: unit does not act as identity on the right")

        def axioms(gens: Sequence[int]) -> ContractViolationError | None:
            # (ab)e with a, e(ab) with b and (ae)b with a in gens
            for i in range(n):
                for j in range(n):
                    prod = alg.mul[i][j]
                    if i in gens and self._action_rows(self.left, prod) != \
                            _product_rows(self.left[i], self.left[j]):
                        return ContractViolationError(
                            f"bimodule: (ab)e != a(be) at basis pair ({i}, {j})", witness=(i, j))
                    if j in gens and self._action_rows(self.right, prod) != \
                            _product_rows(self.right[j], self.right[i]):
                        return ContractViolationError(
                            f"bimodule: e(ab) != (ea)b at basis pair ({i}, {j})", witness=(i, j))
                    if i in gens and _product_rows(self.left[i], self.right[j]) != \
                            _product_rows(self.right[j], self.left[i]):
                        return ContractViolationError(
                            f"bimodule: (a e) b != a (e b) at basis pair ({i}, {j})", witness=(i, j))
            return None

        failure = alg.first_failure(axioms, alg.validated)
        if failure is not None:
            raise failure
        self.validated = alg.validated

    def __repr__(self) -> str:
        return f"Bimodule(dim={self.dim} over {self.algebra!r})"


def _act(maps: Sequence[Matrix], a: dict[int, Scalar], v: dict[int, Scalar]) -> dict[int, Scalar]:
    """sum_i a_i maps[i] v, summed over the maps' sparse columns."""
    terms = []
    for i, c in a.items():
        cols = maps[i].sparse_cols()
        terms.extend((c * x, cols[j]) for j, x in v.items())
    return _lincomb(terms)


# ---------------------------------------------------------------------------
# Center and centeredness
# ---------------------------------------------------------------------------

def module_center(e: Bimodule) -> Subspace:
    """Basis of {v : a v = v a for every basis a}; the generators suffice
    when e is validated."""
    rows = []
    for i in e.algebra.basis_indices(e.validated):
        diff = e.left[i] - e.right[i]
        rows.extend(diff.sparse_rows())
    return Subspace(e.dim, kernel_rows(rows, e.dim))


@dataclass(frozen=True)
class CenteredReport:
    ok: bool
    center: Subspace
    witness: Vector | None  # a direction missing from the right span of the center


def is_centered(e: Bimodule) -> CenteredReport:
    """Does the center generate e as a right module?"""
    zc = module_center(e)
    span = Subspace(e.dim, [_apply_sparse(e.right[r], z) for z in zc.rows
                            for r in range(e.algebra.dim)])
    if span.dim == e.dim:
        return CenteredReport(True, zc, None)
    missing = span.complement_positions()[0]
    return CenteredReport(False, zc, basis_vector(e.dim, missing))


# ---------------------------------------------------------------------------
# Tensor products over the algebra
# ---------------------------------------------------------------------------

def _tensor_left_apply(l: Matrix, fdim: int, svec: dict[int, Scalar]) -> dict[int, Scalar]:
    """(L (x) id) on a sparse plain-tensor vector, index (s, t) -> s*fdim + t."""
    cols = l.sparse_cols()
    terms = []
    for idx, c in svec.items():
        s, t = divmod(idx, fdim)
        terms.append((c, {k * fdim + t: a for k, a in cols[s].items()}))
    return _lincomb(terms)


def _tensor_right_apply(r: Matrix, fdim: int, svec: dict[int, Scalar]) -> dict[int, Scalar]:
    """(id (x) R) on a sparse plain-tensor vector."""
    cols = r.sparse_cols()
    terms = []
    for idx, c in svec.items():
        s, t = divmod(idx, fdim)
        terms.append((c, {s * fdim + k: a for k, a in cols[t].items()}))
    return _lincomb(terms)


class QuotientTensor:
    """E (x)_A F as an explicit quotient of the plain tensor space.

    project sends plain coordinates to quotient coordinates, section is the
    canonical splitting through the echelon complement of the relation
    subspace, so project @ section == identity.
    """

    def __init__(self, left_factor: Bimodule, right_factor: Bimodule):
        if left_factor.algebra is not right_factor.algebra:
            raise ContractViolationError("tensor_over_A: factors over different algebras")
        e, f = left_factor, right_factor
        self.left_factor = e
        self.right_factor = f
        self.ambient_dim = e.dim * f.dim
        alg = e.algebra

        # e.a (x) f - e (x) a.f, as the rows of X -> R_a^T X - X L_a
        rows = commutator_rows((e.right[i].transpose(), f.left[i])
                               for i in alg.basis_indices(e.validated and f.validated))
        self.relations = Subspace(self.ambient_dim, rows)
        free = self.relations.complement_positions()
        self.dim = len(free)
        self._free = free

        # project: eliminate the relation pivots from each ambient basis
        # vector, which leaves it on the free positions; section: include
        # the free positions.
        pos = {f_: q for q, f_ in enumerate(free)}
        self._project_cols = [{pos[c]: v for c, v in self.relations._residual({j: ONE}).items()}
                              for j in range(self.ambient_dim)]
        self.project = Matrix.from_sparse_cols(self._project_cols, self.dim)
        self.section = Matrix.from_sparse_cols([{f_: ONE} for f_ in free], self.ambient_dim)

        left = []
        right = []
        for i in range(alg.dim):
            lcols = []
            rcols = []
            for f_ in free:
                svec = {f_: ONE}
                lcols.append(self._project_sparse(_tensor_left_apply(e.left[i], f.dim, svec)))
                rcols.append(self._project_sparse(_tensor_right_apply(f.right[i], f.dim, svec)))
            left.append(Matrix.from_sparse_cols(lcols, self.dim))
            right.append(Matrix.from_sparse_cols(rcols, self.dim))
        self.bimodule = Bimodule(alg, self.dim, left, right)._derived(e, f)

    def _project_sparse(self, svec: dict[int, Scalar]) -> dict[int, Scalar]:
        return _lincomb((c, self._project_cols[j]) for j, c in svec.items())

    def pure(self, e_vec: Vector, f_vec: Vector) -> Vector:
        """Quotient coordinates of the class of e (x) f."""
        return sparse_to_vec(self.pure_sparse(vec_to_sparse(e_vec), vec_to_sparse(f_vec)),
                             self.dim)

    def pure_sparse(self, e_vec: dict[int, Scalar], f_vec: dict[int, Scalar]) -> dict[int, Scalar]:
        """pure on sparse factors, with sparse quotient coordinates."""
        fdim = self.right_factor.dim
        return self._project_sparse({s * fdim + t: a * b
                                     for s, a in e_vec.items() for t, b in f_vec.items()})

    def first_unkilled(self, m: Matrix) -> Vector | None:
        """The first relation basis vector that the plain-coordinate map m
        does not send to zero, or None when m factors through the quotient.

        m kills the relations exactly when m == (m @ section) @ project; the
        relation rows are searched only when it does not."""
        if m == (m @ self.section) @ self.project:
            return None
        mrows = [r for r in m.sparse_rows() if r]
        for rel in self.relations.rows:
            for mrow in mrows:
                acc = ZERO
                for c, v in rel.items():
                    a = mrow.get(c)
                    if a is not None:
                        acc = acc + a * v
                if not acc.is_zero():
                    return sparse_to_vec(rel, self.ambient_dim)
        return None

    def lift(self, x: Vector) -> dict[int, Scalar]:
        """The canonical plain-tensor representative of a quotient class,
        sparse: section only includes the free positions."""
        return self.lift_sparse(vec_to_sparse(x))

    def lift_sparse(self, x: dict[int, Scalar]) -> dict[int, Scalar]:
        """lift of a class given by sparse quotient coordinates."""
        return {self._free[q]: c for q, c in x.items()}

    def __repr__(self) -> str:
        return f"QuotientTensor(dim={self.dim}, ambient={self.ambient_dim})"


def tensor_over_A(e: Bimodule, f: Bimodule) -> QuotientTensor:
    """E (x)_A F with induced actions and canonical project/section."""
    return QuotientTensor(e, f)


# ---------------------------------------------------------------------------
# Hom modules
# ---------------------------------------------------------------------------

class CentralGenerators:
    """A centered bimodule as a right module over its central basis z_1..z_k.

    A right-linear map out of it is fixed by the images f_j of the z_j: it
    sends z_j . a to f_j . a.  Images (f_1..f_k) in a bimodule F come from a
    right-linear map exactly when sum_j f_j . w_j == 0 for every relation
    sum_j z_j . w_j == 0, and there are no relations when the module is free
    on the z_j.  Unknown j * dim F + f is coordinate f of f_j.
    """

    def __init__(self, source: Bimodule):
        rep = source.centered
        if not rep.ok:
            raise ContractViolationError(
                "hom_A: the source is not generated by its center as a right module",
                witness=rep.witness)
        nA = source.algebra.dim
        self.source = source
        self.center = rep.center
        # the spanning family z_j . a_s, column j * nA + s
        span = Matrix.from_sparse_cols([_apply_sparse(source.right[s], z)
                                        for z in rep.center.rows for s in range(nA)], source.dim)
        # the coefficients w of each relation sum w_(j,s) z_j . a_s == 0
        self.relations = kernel_rows(span.sparse_rows(), span.cols)
        # one decomposition of each basis vector over the spanning family,
        # from one elimination
        sols, _ = solve_sparse(span.sparse_rows(), span.cols,
                               [basis_vector(source.dim, t) for t in range(source.dim)])
        self._through = [vec_to_sparse(x) for x in sols]

    def relation_rows(self, target: Bimodule) -> list[dict[int, Scalar]]:
        """sum_j f_j . w_j == 0 as rows on the images in target, one per
        relation and target coordinate."""
        nA = self.source.algebra.dim
        rows = []
        for w in self.relations:
            terms: dict[int, list[tuple[Scalar, Matrix]]] = {}
            for pos, c in w.items():
                j, s = divmod(pos, nA)
                terms.setdefault(j, []).append((c, target.right[s]))
            blocks = [(j * target.dim, _combination_rows(t, target.dim)) for j, t in terms.items()]
            for y in range(target.dim):
                rows.append({off + f: v for off, act in blocks for f, v in act[y].items()})
        return rows

    def extend(self, values: Sequence[dict[int, Scalar]], out_dim: int) -> Matrix:
        """The linear map sending z_j . a_s to the sparse values[j * nA + s];
        raises when the values break a relation among the z_j . a_s."""
        for w in self.relations:
            if _lincomb((c, values[i]) for i, c in w.items()):
                raise InternalInconsistencyError(
                    "values break a relation among the central generators")
        return Matrix.from_sparse_cols(
            [_lincomb((c, values[i]) for i, c in through.items()) for through in self._through],
            out_dim)

    def right_linear(self, target: Bimodule, images: dict[int, Scalar]) -> Matrix:
        """The right-linear map source -> target sending z_j to f_j, from
        sparse images that satisfy relation_rows(target)."""
        nA, nt = self.source.algebra.dim, target.dim
        f_of: list[dict[int, Scalar]] = [{} for _ in range(self.center.dim)]
        for u, c in images.items():
            j, f = divmod(u, nt)
            f_of[j][f] = c
        return self.extend([_apply_sparse(target.right[s], f) for f in f_of for s in range(nA)], nt)


class HomModule:
    """All right-A-linear maps source -> target, with its bimodule structure.

    The maps are spanned by the right-linear maps of the kernel vectors of
    the generators' relation rows; Subspace makes the basis canonical.
    Maps are flattened target-major: coordinate f*source.dim + e is the
    (f, e) matrix entry.  The bimodule actions are (a T)(v) = a T(v) and
    (T a)(v) = T(a v).
    """

    def __init__(self, source: Bimodule, target: Bimodule):
        if source.algebra is not target.algebra:
            raise ContractViolationError("hom_A: source and target over different algebras")
        self.source = source
        self.target = target
        self.generators = gens = source.central_generators
        nunk = gens.center.dim * target.dim
        self.flat = Subspace(source.dim * target.dim,
                             [_flatten(gens.right_linear(target, v))
                              for v in kernel_rows(gens.relation_rows(target), nunk)])
        self.basis: tuple[Matrix, ...] = tuple(self._unflatten(v) for v in self.flat.rows)
        self.dim = len(self.basis)

    def _unflatten(self, flat: dict[int, Scalar]) -> Matrix:
        """The map with flat coordinates flat, as a target x source matrix."""
        ns = self.source.dim
        rows: list[dict[int, Scalar]] = [{} for _ in range(self.target.dim)]
        for k, v in flat.items():
            f, e = divmod(k, ns)
            rows[f][e] = v
        return Matrix.from_sparse_rows(rows, ns)

    @cached_property
    def bimodule(self) -> Bimodule:
        """The actions, built on first use: most Hom spaces only need a basis.
        Column t of each action holds the coordinates of the action on basis
        map t, read off its sparse rows."""
        left = []
        right = []
        for i in range(self.source.algebra.dim):
            lcols = []
            rcols = []
            for t in self.basis:
                lcols.append(self._coords(self.target.left[i] @ t))
                rcols.append(self._coords(t @ self.source.left[i]))
            left.append(Matrix.from_sparse_cols(lcols, self.dim))
            right.append(Matrix.from_sparse_cols(rcols, self.dim))
        return Bimodule(self.source.algebra, self.dim, left, right)._derived(
            self.source, self.target)

    def _coords(self, m: Matrix) -> dict[int, Scalar]:
        c = self.sparse_coords_of(m)
        if c is None:
            raise InternalInconsistencyError(
                "hom module is not closed under the bimodule actions")
        return c

    def coords_of(self, m: Matrix) -> Vector | None:
        """Coordinates of the map m in this basis, or None if m is not in it."""
        c = self.sparse_coords_of(m)
        return None if c is None else sparse_to_vec(c, self.dim)

    def sparse_coords_of(self, m: Matrix) -> dict[int, Scalar] | None:
        """coords_of, sparse (basis index -> coefficient), read off the
        sparse rows of m."""
        return self.flat.coordinates_sparse(_flatten(m))

    def matrix_of(self, coords: Vector) -> Matrix:
        terms = ((c, self.basis[s]) for s, c in vec_to_sparse(coords).items())
        return Matrix.from_sparse_rows(_combination_rows(terms, self.target.dim), self.source.dim)

    def value(self, coords: Vector, v: Vector) -> Vector:
        """Evaluate the map with the given coordinates on v."""
        return sparse_to_vec(_act(self.basis, vec_to_sparse(coords), vec_to_sparse(v)),
                             self.target.dim)

    def __repr__(self) -> str:
        return f"HomModule(dim={self.dim}: {self.source.dim} -> {self.target.dim})"


def _flatten(m: Matrix) -> dict[int, Scalar]:
    """The sparse flat coordinates of a map, target-major."""
    return {f * m.cols + e: v for f, row in enumerate(m.sparse_rows()) for e, v in row.items()}


def hom_A(e: Bimodule, f: Bimodule) -> HomModule:
    """The right-A-linear maps e -> f as a bimodule; e must be centered."""
    return HomModule(e, f)


def dual_module(e: Bimodule) -> HomModule:
    """E* = Hom_A(E, A) with A acting through the regular bimodule."""
    return hom_A(e, Bimodule.regular(e.algebra))


# ---------------------------------------------------------------------------
# Pairings
# ---------------------------------------------------------------------------

def pair_apply(qt: QuotientTensor, phi: Matrix, psi: Matrix,
               x: dict[int, Scalar]) -> dict[int, Scalar]:
    """(phi (x) psi) applied to a class in E (x)_A F, valued in A; the class
    and the value are sparse.

    Defined as phi(e) * psi(f) summed over the canonical representative;
    independent of the representative when psi is a central element of the
    dual (callers enforce that where it matters).
    """
    fdim = qt.right_factor.dim
    table = qt.left_factor.algebra.sparse_mul
    phi_cols, psi_cols = phi.sparse_cols(), psi.sparse_cols()
    terms = []
    for idx, c in qt.lift_sparse(x).items():
        s, t = divmod(idx, fdim)
        right = psi_cols[t]
        for i, a in phi_cols[s].items():
            ca = c * a
            terms.extend((ca * b, table[i][j]) for j, b in right.items())
    return _lincomb(terms)
