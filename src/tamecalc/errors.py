"""Structured errors shared across the engine.

Mathematical *diagnoses* (a calculus failing a tameness condition, a metric
failing symmetry) are returned as report data, not raised; exceptions are
reserved for broken inputs and for situations the theory rules out, which
therefore signal corrupted data or an implementation bug.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base error carrying a stable machine-readable code and a witness."""

    code = "EngineError"

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ContractViolationError(EngineError):
    code = "ContractViolation"


class SpecFileError(EngineError):
    """Unreadable or structurally invalid input file (CLI exit code 2)."""

    code = "SpecFileError"


class NoSplittingError(EngineError):
    code = "NoSplitting"


class NotRightLinearError(EngineError):
    code = "NotRightLinear"


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
    """Two provably equivalent routes disagreed; always a bug, never data."""

    code = "InternalInconsistency"
