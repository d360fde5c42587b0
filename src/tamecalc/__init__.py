"""Exact computer algebra for tame differential calculi over Q(i).

Given a finite-dimensional associative algebra with a differential calculus
and a bilinear metric on its one-forms, this package certifies the tameness
conditions, builds the vector-field Lie algebra, and computes the unique
torsionless metric-compatible connection two independent ways, all in exact
Gaussian-rational arithmetic.
"""

__version__ = "0.1.0"

from .algebra import Algebra
from .bimodule import Bimodule, hom_A, is_centered, module_center, tensor_over_A
from .calculus import Calculus, build_symmetry, validate_calculus
from .connection import (
    Connection,
    Geometry,
    certify,
    covariant_derivative,
    grassmann,
    koszul_rhs,
    levi_civita_direct,
    levi_civita_koszul,
    lie_bracket,
    nabla_zero,
    torsion,
)
from .linalg import Matrix, Scalar, Subspace, kernel_rows, qi
from .metric import validate_metric, vector_fields

__all__ = [
    "Algebra",
    "Bimodule",
    "Calculus",
    "Connection",
    "Geometry",
    "Matrix",
    "Scalar",
    "Subspace",
    "__version__",
    "build_symmetry",
    "certify",
    "covariant_derivative",
    "grassmann",
    "hom_A",
    "is_centered",
    "kernel_rows",
    "koszul_rhs",
    "levi_civita_direct",
    "levi_civita_koszul",
    "lie_bracket",
    "module_center",
    "nabla_zero",
    "qi",
    "tensor_over_A",
    "torsion",
    "validate_calculus",
    "validate_metric",
    "vector_fields",
]
