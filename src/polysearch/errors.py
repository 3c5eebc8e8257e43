"""Exception types shared across the package, one per kind of fault."""
from __future__ import annotations


class PolySearchError(Exception):
    """Base class for all package errors."""


class InvalidPolygon(PolySearchError):
    """A vertex list or cell set does not describe a simple orthogonal polygon with cells."""


class IterationBudgetExceeded(PolySearchError):
    """Random generation failed to produce an acceptable cut in budget."""


class TooFewRobots(PolySearchError):
    """Robot count below the minimum the strategy needs on this input."""


class TooManyRobots(PolySearchError):
    """More robots than cells on the curve they must share."""


class TooLarge(PolySearchError):
    """An input would build more than MAX_CELLS cells, MAX_ROBOTS robots or MAX_VERTICES vertices."""


class Unreachable(PolySearchError):
    """No path between the requested cells."""


class InvalidConfig(PolySearchError, ValueError):
    """An argument is out of range, malformed or unknown."""


class EmptyInput(PolySearchError):
    """An aggregate was requested over zero results."""


class IoError(PolySearchError):
    """File could not be read or written."""
