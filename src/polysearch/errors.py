"""Exception types shared across the package."""
from __future__ import annotations


class PolySearchError(Exception):
    """Base class for all package errors."""


class InvalidPolygon(PolySearchError):
    """Input vertex list does not describe a simple orthogonal polygon."""


class NonOrthogonalEdge(InvalidPolygon):
    pass


class SelfIntersection(InvalidPolygon):
    pass


class OddVertexCount(InvalidPolygon):
    pass


class DegenerateEdge(InvalidPolygon):
    pass


class NonIntegralVertex(InvalidPolygon):
    pass


class CollinearEdges(InvalidPolygon):
    pass


class EmptyInterior(PolySearchError):
    """Polygon contains no unit cells."""


class CellOutsideGraph(PolySearchError):
    """A queried cell is not a member of the grid graph."""


class OddTargetVertices(PolySearchError):
    """Orthogonal polygons have an even vertex count >= 4."""


class IterationBudgetExceeded(PolySearchError):
    """Random generation failed to produce an acceptable cut in budget."""


class InstanceInvalid(PolySearchError):
    """3-Partition instance fails its structural checks."""


class TooFewRobots(PolySearchError):
    """Robot count below the minimum the strategy needs on this input."""


class TooManyRobots(PolySearchError):
    """More robots than cells on the curve they must share."""


class TooLarge(PolySearchError):
    """An input would build more than MAX_CELLS cells, MAX_ROBOTS robots or MAX_VERTICES vertices."""


class DimensionMismatch(PolySearchError):
    """Curve extents do not match the target rectangle."""


class Unreachable(PolySearchError):
    """No path between the requested cells."""


class NonSquare(PolySearchError):
    """Assignment cost matrix must be square."""


class NegativeEntry(PolySearchError):
    """Assignment cost matrix entries must be non-negative."""


class InvalidConfig(PolySearchError, ValueError):
    """A sweep, trial or assignment parameter is out of range or unknown."""


class EmptyInput(PolySearchError):
    """An aggregate was requested over zero results."""


class IoError(PolySearchError):
    """File could not be read or written."""
