"""Finite-dimensional associative unital algebras over Q(i).

An algebra is given by structure constants: mul[i][j] is the coordinate
vector of basis_i * basis_j.  Elements are coordinate vectors.  The
derivation test compares sparse sums over the structure constants.

Most axioms of the engine read "for every a in A" and are linear in a.
Once the axioms they rest on hold, the elements where such an identity
holds form a unital subalgebra, so a check over `Algebra.generators` (and
the unit, where the identity does not give it for free) decides it for all
of A.  `Algebra.first_failure` runs a check that way and reruns it over
the whole basis on a failure, so the witness is the first in basis order.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Sequence, TypeVar

from .errors import ContractViolationError
from .linalg import (
    Matrix,
    ONE,
    Scalar,
    Subspace,
    Vector,
    _apply_sparse,
    _lincomb,
    vec_to_sparse,
)

T = TypeVar("T")


class Algebra:
    """Associative unital algebra via structure constants.

    The constructor checks shapes only; call validate() to certify
    associativity and the unit laws (the commands do, the builders do not).
    `validated` records that it passed.
    """

    def __init__(self, dim: int, labels: Sequence[str], unit: Vector,
                 mul: Sequence[Sequence[Vector]]):
        if len(labels) != dim or len(unit) != dim:
            raise ContractViolationError("algebra: label/unit dimensions do not match dim")
        if len(mul) != dim or any(len(r) != dim for r in mul) or any(
                len(v) != dim for r in mul for v in r):
            raise ContractViolationError("algebra: structure constant tensor has wrong shape")
        self.dim = dim
        self.labels = tuple(labels)
        self.unit = tuple(unit)
        self.mul = tuple(tuple(tuple(v) for v in r) for r in mul)
        self._left: list[Matrix | None] = [None] * dim
        self._right: list[Matrix | None] = [None] * dim
        self.validated = False

    # -- multiplication -----------------------------------------------------

    def left_basis_matrix(self, i: int) -> Matrix:
        """Matrix of x -> basis_i * x."""
        m = self._left[i]
        if m is None:
            m = Matrix.from_sparse_cols(self.sparse_mul[i], self.dim)
            self._left[i] = m
        return m

    def right_basis_matrix(self, i: int) -> Matrix:
        """Matrix of x -> x * basis_i."""
        m = self._right[i]
        if m is None:
            m = Matrix.from_sparse_cols([row[i] for row in self.sparse_mul], self.dim)
            self._right[i] = m
        return m

    @cached_property
    def sparse_mul(self) -> tuple[tuple[dict[int, Scalar], ...], ...]:
        """The structure constants as sparse vectors: sparse_mul[i][j] is b_i b_j."""
        return tuple(tuple(vec_to_sparse(v) for v in row) for row in self.mul)

    @cached_property
    def sparse_unit(self) -> dict[int, Scalar]:
        """The unit as a sparse vector."""
        return vec_to_sparse(self.unit)

    def ad(self, a: Vector) -> Matrix:
        """Inner derivation x -> a*x - x*a of a dense element a; column j is
        sum_i a_i (b_i b_j - b_j b_i)."""
        table = self.sparse_mul
        terms = [(c, i) for i, c in vec_to_sparse(a).items()]
        return Matrix.from_sparse_cols(
            [_lincomb([*((c, table[i][j]) for c, i in terms),
                       *((-c, table[j][i]) for c, i in terms)]) for j in range(self.dim)],
            self.dim)

    # -- generators ---------------------------------------------------------

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Basis indices that generate A as a unital algebra, chosen greedily
        in basis order: b_i is kept when it is not in the unital subalgebra
        the kept elements generate.  That subalgebra is computed exactly, as
        the span of the unit closed under right multiplication by them."""
        table = self.sparse_mul
        kept: list[int] = []
        span = Subspace(self.dim, [self.sparse_unit])
        for i in range(self.dim):
            if not span._residual({i: ONE}):
                continue
            kept.append(i)
            while True:
                grown = Subspace(self.dim, [*span.rows, *(
                    _lincomb((c, table[k][g]) for k, c in row.items())
                    for row in span.rows for g in kept)])
                if grown.dim == span.dim:
                    break
                span = grown
        return tuple(kept)

    def basis_indices(self, certified: bool) -> Sequence[int]:
        """The generators when certified, the whole basis otherwise: the
        indices a subspace cut out by a condition linear in a (a relation,
        a center, a right-linearity constraint) needs once the axioms it
        rests on hold."""
        return self.generators if certified else range(self.dim)

    def first_failure(self, loop: Callable[[Sequence[int]], T | None],
                      certified: bool) -> T | None:
        """The first failure of a check that is linear in one algebra element.

        loop(indices) runs the check with that element over the given basis
        indices, in basis order, and returns its first failure or None.
        certified says the axioms the check rests on hold, so the elements
        where it holds form a unital subalgebra; callers also fold into it
        the unit case where the identity does not give it for free.  Then
        the generators decide the check, and a failure on them is rerun over
        the whole basis, whose first failure is the witness.
        """
        if certified and loop(self.generators) is None:
            return None
        return loop(range(self.dim))

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Certify associativity and the unit laws; raises with the failing
        triple.  Given the unit laws, the c with (ab)c = a(bc) for all a, b
        form a unital subalgebra, so the generators decide associativity."""
        n = self.dim
        mul = self.sparse_mul
        unit = self.sparse_unit
        for i in range(n):
            e = {i: ONE}
            if (_lincomb((c, mul[u][i]) for u, c in unit.items()) != e
                    or _lincomb((c, mul[i][u]) for u, c in unit.items()) != e):
                raise ContractViolationError(
                    f"unit law fails on basis element {self.labels[i]}", witness=i)
        # (b_i b_j) b_k and b_i (b_j b_k) as sparse sums over the table

        def associativity(lasts: Sequence[int]) -> ContractViolationError | None:
            for i in range(n):
                for j in range(n):
                    ij = mul[i][j]
                    for k in lasts:
                        left = _lincomb((c, mul[p][k]) for p, c in ij.items())
                        right = _lincomb((c, mul[i][q]) for q, c in mul[j][k].items())
                        if left != right:
                            return ContractViolationError(
                                "associativity fails on basis triple "
                                f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]})",
                                witness=(i, j, k))
            return None

        failure = self.first_failure(associativity, True)
        if failure is not None:
            raise failure
        self.validated = True

    # -- derivations --------------------------------------------------------

    def is_derivation(self, delta: Matrix) -> bool:
        """Leibniz test delta(ab) = delta(a) b + a delta(b) on all basis pairs.

        On a validated algebra the a where it holds for every b form a
        subalgebra, which holds the unit exactly when delta(1) == 0."""
        if delta.rows != self.dim or delta.cols != self.dim:
            raise ContractViolationError("derivation matrix has wrong shape")
        # both sides as sparse sums over the structure constants
        table = self.sparse_mul
        dcols = delta.sparse_cols()

        def leibniz(firsts: Sequence[int]) -> tuple[int, int] | None:
            for i in firsts:
                for j in range(self.dim):
                    lhs = _apply_sparse(delta, table[i][j])
                    rhs = _lincomb([*((c, table[k][j]) for k, c in dcols[i].items()),
                                    *((c, table[i][k]) for k, c in dcols[j].items())])
                    if lhs != rhs:
                        return (i, j)
            return None

        unit_ok = not _apply_sparse(delta, self.sparse_unit)
        return self.first_failure(leibniz, self.validated and unit_ok) is None

    def __repr__(self) -> str:
        return f"Algebra(dim={self.dim}, basis={list(self.labels)})"
