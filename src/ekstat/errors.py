"""Exception types shared across the library."""


class EkstatError(Exception):
    """Base class for library errors."""


class ParameterError(EkstatError, ValueError):
    """A distribution or operator parameter is outside its admissible domain."""


class DomainError(EkstatError, ValueError):
    """An evaluation point lies outside the domain of the map or operator."""


class ShapeError(EkstatError, ValueError):
    """Array dimensions are inconsistent with the declared dimension count."""


class SizeError(EkstatError, ValueError):
    """A requested size (tensor grid, rule nodes, dimension count) exceeds
    its supported limit."""


class EmptyRequestError(EkstatError, ValueError):
    """Zero samples (or an otherwise empty work unit) were requested."""


class EvaluationError(EkstatError, ArithmeticError):
    """A function produced a non-finite value during quadrature.

    Carries the offending evaluation point in ``point`` when available.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class PoleError(EkstatError, ArithmeticError):
    """A gamma factor was evaluated at a non-positive integer argument."""

    def __init__(self, message, dimension=None):
        super().__init__(message)
        self.dimension = dimension


class UsageError(EkstatError, ValueError):
    """The call is structurally invalid (missing sampler, unknown id, ...)."""
