"""Exception hierarchy shared by all modules.

Every error carries a short machine-readable category (used by the CLI as
the ``error:<category>:`` prefix) and the process exit code it maps to:
1 for validation and usage problems, 2 for numerical certification failures.
"""

from __future__ import annotations


class AnomalyWalkError(Exception):
    """Base class for all library errors."""

    category = "internal"
    exit_code = 1


class SpecSyntaxError(AnomalyWalkError):
    """Graph spec text is not well-formed JSON."""

    category = "syntax"
    exit_code = 1

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class SpecSemanticError(AnomalyWalkError):
    """Well-formed spec with invalid content (bad key, type, or value)."""

    category = "semantic"
    exit_code = 1


class SizeError(AnomalyWalkError):
    """Graph too small, or a dimension over a configured cap."""

    category = "size"
    exit_code = 1


class IndexRangeError(AnomalyWalkError):
    """Anomaly vertex index outside 1..N."""

    category = "index"
    exit_code = 1


class SelfEdgeError(AnomalyWalkError):
    """Extra edge with both endpoints on the same vertex."""

    category = "self-edge"
    exit_code = 1


class DimensionMismatchError(AnomalyWalkError):
    """Operands defined over spaces of different dimension."""

    category = "dimension"
    exit_code = 1


class ConfigurationError(AnomalyWalkError):
    """Incompatible option combination (e.g. a loop-kind state on a loop-free graph)."""

    category = "config"
    exit_code = 1


class NoPredictionError(AnomalyWalkError):
    """No closed-form hitting-step formula for this anomaly variant."""

    category = "no-prediction"
    exit_code = 1


class NothingToFindError(AnomalyWalkError):
    """Classical baseline requested on a graph without an anomaly."""

    category = "nothing-to-find"
    exit_code = 1


class InvarianceError(AnomalyWalkError):
    """A basis claimed to be invariant fails the residual check."""

    category = "invariance"
    exit_code = 2


class NumericalFailureError(AnomalyWalkError):
    """A numerical certification (residual, unitarity, modulus) failed."""

    category = "numerical"
    exit_code = 2


class MatchingError(AnomalyWalkError):
    """Eigenphase branch matching was ambiguous or inconsistent."""

    category = "matching"
    exit_code = 2


class InsufficientDataError(AnomalyWalkError):
    """Too few usable points for a requested fit."""

    category = "insufficient-data"
    exit_code = 2
