"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for all library errors."""


class ExpressionError(GeometryError):
    """Base class for expression parsing/evaluation failures."""


class ExpressionSyntaxError(ExpressionError):
    """Malformed expression text. Carries the 0-based character position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(ExpressionError):
    """Identifier that is neither a declared variable nor a known function."""

    def __init__(self, name, position):
        super().__init__(f"unknown identifier '{name}' (at position {position})")
        self.name = name
        self.position = position


class ArityError(ExpressionError):
    """Wrong number of arguments to a function or component list."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class EvalError(GeometryError):
    """Singular elementary function during evaluation (log of non-positive, etc.)."""


class DomainError(GeometryError):
    """Parameter point outside the declared domain."""


class DegeneratePoint(GeometryError):
    """Surface point where EG - F^2 is below the regularity threshold."""


class IrregularCurve(GeometryError):
    """Arc-length parametrization undefined or unresolved: speed below
    threshold, or the arc-length table or its inversion not converging."""


class FrameUndefined(GeometryError):
    """Curvature too small for a well-defined principal normal."""


class NoSeed(GeometryError):
    """Tangency-locus seed correction failed to reach the zero set."""


class SingularLocus(GeometryError):
    """Tangency locus gradient vanishes near the seed (e.g. isolated zero)."""


class IdenticallyTangent(GeometryError):
    """Tangency residual vanishes on an open neighborhood; locus is not a curve."""


class OracleMismatch(GeometryError):
    """A fast route and its independent oracle disagree beyond tolerance."""


class MetricMismatch(GeometryError):
    """Candidate surface pair whose first fundamental forms disagree."""


class ConfigError(GeometryError):
    """Scene configuration failed to load or resolve, or a run option (such
    as the tracer's step size) is out of range."""
