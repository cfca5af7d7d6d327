"""Exception taxonomy.

ParseError and SceneSchemaError signal bad input documents (CLI exit code 2);
everything deriving from GeometryError is a numeric/guard condition raised by
the computational modules (CLI exit code 3 when uncaught by a check).
"""

from __future__ import annotations


class ParseError(ValueError):
    """Syntax error in an expression, with 1-based line/column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}:{col}: {message}")
        self.line = line
        self.col = col


class SceneSchemaError(ValueError):
    """Scene document does not conform to the schema (path included)."""


class GeometryError(RuntimeError):
    """Base class for numeric errors raised by the geometry modules."""


class DomainEvalError(GeometryError):
    """Expression evaluation hit a domain error (sqrt/log of a non-positive
    value, division by zero, ...); carries the offending subexpression."""

    def __init__(self, reason: str, subexpr: str):
        super().__init__(f"{reason} in subexpression '{subexpr}'")
        self.reason = reason
        self.subexpr = subexpr


class JetDomainError(ValueError):
    """Internal: a row of the function table was asked for a value or a
    derivative outside its domain (wrapped into DomainEvalError by the
    expression evaluator, for floats and jets alike)."""


class SingularMetricError(GeometryError):
    """Metric (or another SPD matrix) failed Cholesky at spd_tol."""


class DegeneratePlaneError(GeometryError):
    """Plane section spanned by nearly dependent vectors."""


class OrderInsufficientError(GeometryError):
    """An operation needed higher metric jets than were computed."""


class RankDeficiencyError(GeometryError):
    """Immersion Jacobian lost rank at a sampled point."""


class NonNormalVectorError(GeometryError):
    """A vector passed as normal has a tangential component above tolerance."""


class ZeroFieldError(GeometryError):
    """The vector field vanishes (below min_field_norm) at the point."""


class SingularFitError(GeometryError):
    """The torse-forming fit is singular (|V| too small, or m = 1) or not finite."""


class InconsistentSampleError(GeometryError):
    """Per-point verdicts disagree across the sample: the field changes class
    over the scene domain."""

    def __init__(self, message: str, verdicts: dict):
        super().__init__(message)
        self.verdicts = verdicts


class PreconditionError(GeometryError):
    """A check's stated precondition does not hold; carries a witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ModelViolationError(GeometryError):
    """Measured data leaves the model's range (e.g. warping factor >= 1)."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class SamplingError(GeometryError):
    """Could not draw enough admissible points from the scene domain."""


def replay(batch, single, items):
    """batch(); if that raises a GeometryError, single(item) for each item in
    order, so that the first failing item raises its own error.  If none
    fails alone, the batch's error is raised."""
    try:
        return batch()
    except GeometryError:
        for item in items:
            single(item)
        raise
