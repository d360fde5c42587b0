"""Structured errors shared across the engine.

Mathematical *diagnoses* come back as values, never raised: a failed
algebra, bimodule or calculus axiom as the text of its first failure, and a
calculus failing a tameness condition or a metric failing symmetry as one
`Refusal`.  Exceptions are reserved for broken inputs and shapes and for
situations the theory rules out, which therefore signal corrupted data or
an implementation bug.
"""

from __future__ import annotations


class Refusal:
    """A refused check: the condition that failed, a one-line detail and an
    optional witness, a zero-free sparse vector {index: value} or a basis
    label.  `build_symmetry` and `validate_metric` return it in place of
    their certificate or metric."""

    __slots__ = ("condition", "detail", "witness")

    def __init__(self, condition: str, detail: str, witness: dict | str | None = None):
        self.condition, self.detail, self.witness = condition, detail, witness


class EngineError(Exception):
    """Base error carrying a stable machine-readable code and a witness."""

    code = "EngineError"

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ContractViolationError(EngineError):
    """A broken shape or contract, such as an action matrix of the wrong
    size; never a failed axiom."""

    code = "ContractViolation"


class SpecFileError(EngineError):
    """Unreadable or structurally invalid input file (CLI exit code 2)."""

    code = "SpecFileError"


class YNotCentralError(EngineError):
    code = "YNotCentral"


class BracketUnsolvableError(EngineError):
    code = "BracketUnsolvable"


class BracketNotCentralError(EngineError):
    code = "BracketNotCentral"


class SystemSingularError(EngineError):
    code = "SystemSingular"


class NoSolutionError(EngineError):
    code = "NoSolution"


class NonUniqueSolutionError(EngineError):
    code = "NonUniqueSolution"


class CenterMismatchError(EngineError):
    code = "CenterMismatch"


class InternalInconsistencyError(EngineError):
    """A situation the theory rules out, such as two provably equivalent
    routes disagreeing or a tameness condition failing on a valid calculus:
    always a bug, never data."""

    code = "InternalInconsistency"
