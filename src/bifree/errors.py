"""Exception types shared across the package."""


class BifreeError(Exception):
    """Base class for all library errors."""


class SizeLimitError(BifreeError):
    """A size exceeds its cap: a partition ground set."""


class DegreeError(BifreeError):
    """Degree cap exceeded, table degree insufficient, or degrees mismatch."""


class OrderError(BifreeError):
    """Partitions are not comparable in reverse refinement order."""


class ShapeError(BifreeError):
    """Arrays of the wrong shape, or an operator of an unknown kind."""


class CommutationError(BifreeError):
    """The two faces of a model fail to commute."""


class UnsupportedMeasureError(BifreeError):
    """Operation requires a positive (unsigned) probability measure."""


class RealizabilityError(BifreeError):
    """Data fails the positivity or boundedness conditions required here."""
