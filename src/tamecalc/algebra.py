"""Finite-dimensional associative unital algebras over Q(i).

An algebra is given by structure constants: mul[i][j] is the coordinate
vector of basis_i * basis_j.  Elements are coordinate vectors.  The center
and the derivation test reduce to exact kernels.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from .errors import ContractViolationError
from .linalg import (
    Matrix,
    Scalar,
    Subspace,
    Vector,
    ZERO,
    _apply_sparse,
    _combination_rows,
    _lincomb,
    basis_vector,
    kernel_rows,
    vec_to_sparse,
)


class Algebra:
    """Associative unital algebra via structure constants.

    The constructor checks shapes only; call validate() to certify
    associativity and the unit laws (loaders do, builders are trusted by
    their own tests).
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

    def left_mult(self, a: Vector) -> Matrix:
        terms = ((c, self.left_basis_matrix(i)) for i, c in vec_to_sparse(a).items())
        return Matrix.from_sparse_rows(_combination_rows(terms, self.dim), self.dim)

    @cached_property
    def sparse_mul(self) -> tuple[tuple[dict[int, Scalar], ...], ...]:
        """The structure constants as sparse vectors: sparse_mul[i][j] is b_i b_j."""
        return tuple(tuple(vec_to_sparse(v) for v in row) for row in self.mul)

    def multiply(self, a: Vector, b: Vector) -> Vector:
        table = self.sparse_mul
        out = [ZERO] * self.dim
        b_sparse = vec_to_sparse(b)
        for i, ca in vec_to_sparse(a).items():
            for j, cb in b_sparse.items():
                c = ca * cb
                for k, s in table[i][j].items():
                    out[k] = out[k] + c * s
        return tuple(out)

    def commutator(self, a: Vector, b: Vector) -> Vector:
        ab = self.multiply(a, b)
        ba = self.multiply(b, a)
        return tuple(x - y for x, y in zip(ab, ba))

    def ad(self, a: Vector) -> Matrix:
        """Inner derivation x -> a*x - x*a."""
        return Matrix.from_cols(
            [self.commutator(a, basis_vector(self.dim, j)) for j in range(self.dim)],
            self.dim)

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Certify associativity and the unit laws; raises with the failing triple."""
        n = self.dim
        for i in range(n):
            e = basis_vector(n, i)
            if self.multiply(self.unit, e) != e or self.multiply(e, self.unit) != e:
                raise ContractViolationError(
                    f"unit law fails on basis element {self.labels[i]}", witness=i)
        # (b_i b_j) b_k and b_i (b_j b_k) as sparse sums over the table
        mul = self.sparse_mul
        for i in range(n):
            for j in range(n):
                ij = mul[i][j]
                for k in range(n):
                    left = _lincomb((c, mul[p][k]) for p, c in ij.items())
                    right = _lincomb((c, mul[i][q]) for q, c in mul[j][k].items())
                    if left != right:
                        raise ContractViolationError(
                            "associativity fails on basis triple "
                            f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]})",
                            witness=(i, j, k))

    # -- center and derivations ---------------------------------------------

    def center(self) -> Subspace:
        """Exact basis of {z : z b = b z for every basis b}."""
        rows = []
        for i in range(self.dim):
            d = self.left_basis_matrix(i) - self.right_basis_matrix(i)
            rows.extend(d.sparse_rows())
        return Subspace(self.dim, kernel_rows(rows, self.dim))

    def is_derivation(self, delta: Matrix) -> bool:
        """Leibniz test delta(ab) = delta(a) b + a delta(b) on all basis pairs."""
        if delta.rows != self.dim or delta.cols != self.dim:
            raise ContractViolationError("derivation matrix has wrong shape")
        # both sides as sparse sums over the structure constants
        table = self.sparse_mul
        dcols = delta.sparse_cols()
        for i in range(self.dim):
            for j in range(self.dim):
                lhs = _apply_sparse(delta, table[i][j])
                rhs = _lincomb([*((c, table[k][j]) for k, c in dcols[i].items()),
                                *((c, table[i][k]) for k, c in dcols[j].items())])
                if lhs != rhs:
                    return False
        return True

    def __repr__(self) -> str:
        return f"Algebra(dim={self.dim}, basis={list(self.labels)})"
