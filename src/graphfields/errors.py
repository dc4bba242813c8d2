"""Exception hierarchy.

Two branches matter for callers: ``ValidationError`` (bad inputs, exit code 2
in the CLI) and ``NumericalError`` (a computation that should have succeeded
did not, exit code 3).
"""


class GraphFieldError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GraphFieldError, ValueError):
    """Invalid input: graph, point, parameters, or an unsupported request."""


class GraphValidationError(ValidationError):
    """The graph description violates a structural invariant."""


class NonPositiveLengthError(GraphValidationError):
    """An edge length is not a finite number > 0."""


class DanglingEndpointError(GraphValidationError):
    """An edge references a vertex index outside [0, vertex_count)."""


class DisconnectedGraphError(GraphValidationError):
    """The graph is not connected (or has an isolated vertex)."""


class PointError(ValidationError):
    """A point address (edge id, arclength) is invalid for the graph."""


class UnsupportedGraphError(ValidationError):
    """Operation requires a graph class the input does not belong to."""


class DegenerateCaseError(ValidationError):
    """Parameters degenerate to a case excluded by the underlying result."""


class UnsupportedAlphaError(ValidationError):
    """The requested smoothness exponent is outside this routine's range."""


class MeshResolutionError(ValidationError):
    """A mesh is too coarse for the requested finite-difference stencil."""


class NumericalError(GraphFieldError, RuntimeError):
    """A numerical step failed (singular system, non-PSD matrix, ...)."""


class ConditioningError(NumericalError):
    """Gaussian conditioning failed: constraint Gram matrix is singular."""


class NotPositiveDefiniteError(NumericalError):
    """A matrix that must be (semi)definite is not, beyond tolerance."""
