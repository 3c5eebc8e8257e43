"""Orthogonal polygons on the integer lattice and their unit-cell grid graphs.

A polygon is a closed rectilinear loop with integer vertices. Its interior
decomposes into unit cells; cell (col, row) covers [col, col+1] x [row, row+1]
and is identified by its lower-left corner. Cell centers sit at half-integer
coordinates, so the scanline through a row of centers never hits a vertex or
runs along an edge, and its crossing parity decides membership.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Integral, Rational, Real
from typing import Any, Callable, Hashable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidConfig, InvalidPolygon, IoError, TooLarge

Point = tuple[int, int]


class Cell(NamedTuple):
    col: int
    row: int


#: Most unit cells a polygon or a curve may have: far above the paper-scale
#: instances (704 cells at most), far below what would exhaust memory.
MAX_CELLS = 100_000
#: Most vertices a polygon may have: validate_polygon's self-intersection
#: test is quadratic in them, and the largest preset polygon has 28.
MAX_VERTICES = 500
#: Cells' worth of derived values a grid may keep (see GridGraph.memo): no
#: preset grid comes near it, and every grid keeps at least two entries.
MAX_MEMO_CELLS = 1 << 21


def shown(value: object, show: Callable[[object], str] = str) -> str:
    """`show(value)` for a message, or a stand-in where `value` holds an int with
    more digits than `str()` takes (4,300 by default)."""
    try:
        return show(value)
    except ValueError:
        return "<too long to print>"


def is_int(value: object) -> bool:
    """Whether `value` is an integer; JSON true and false load as bools, which are Integral too."""
    # An exact int answers before the slower check against the Integral ABC.
    return type(value) is int or isinstance(value, Integral) and not isinstance(value, bool)


def check_cells(count: int, what: str) -> None:
    """Raise TooLarge when `what` would have more than MAX_CELLS cells."""
    if count > MAX_CELLS:
        raise TooLarge(f"{what} has {shown(count)} cells; at most {MAX_CELLS} are supported")


def _as_cell(cell: object) -> Cell:
    """`cell`, a pair of integers (a Cell, tuple or list), as a Cell of plain ints; InvalidConfig otherwise."""
    if type(cell) is Cell and type(cell.col) is int and type(cell.row) is int:
        return cell
    if not (isinstance(cell, (tuple, list)) and len(cell) == 2 and all(map(is_int, cell))):
        raise InvalidConfig(f"cell {shown(cell, repr)} is not a pair of integers")
    return Cell(int(cell[0]), int(cell[1]))


@dataclass(frozen=True)
class OrthoPolygon:
    """Validated simple orthogonal polygon, CCW, translated to the first quadrant.

    Construct through validate_polygon() or polygon_from_cells(); the fields
    are trusted everywhere else.
    """

    vertices: tuple[Point, ...]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[tuple[Point, Point]]:
        v = self.vertices
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    @property
    def area(self) -> int:
        return abs(_shoelace(self.vertices))

    @property
    def bounds(self) -> tuple[int, int]:
        """Bounding box extents (width, height); min corner is (0, 0)."""
        xs = [x for x, _ in self.vertices]
        ys = [y for _, y in self.vertices]
        return max(xs), max(ys)


def _shoelace(vertices: Sequence[Point]) -> int:
    total = 0
    for i, (x0, y0) in enumerate(vertices):
        x1, y1 = vertices[(i + 1) % len(vertices)]
        total += x0 * y1 - x1 * y0
    return total // 2


def validate_polygon(vertices: Sequence[Sequence[float]]) -> OrthoPolygon:
    """Check a vertex loop and normalize it (CCW, min corner at origin).

    Raises InvalidPolygon when a vertex is not a pair of finite numbers
    (bools, as JSON true and false load, do not count) or not on the integer
    lattice, when the count is odd, and when an edge is zero-length, not
    axis-parallel, collinear with the next or meets another; more than
    MAX_VERTICES vertices, or a width or height above MAX_CELLS, raise
    TooLarge.
    """
    try:
        coords = [(v, tuple(v)) for v in vertices]
    except TypeError:
        raise InvalidPolygon("vertices must be a list of [x, y] pairs") from None
    pts: list[Point] = []
    for v, xy in coords:
        # An int is finite however large, but math.isfinite would overflow converting it.
        if len(xy) != 2 or not all(
            isinstance(c, Real) and type(c) is not bool and (isinstance(c, Rational) or math.isfinite(c)) for c in xy
        ):
            raise InvalidPolygon(f"vertex {shown(v, repr)} is not an [x, y] pair of finite numbers")
        x, y = xy
        if x != int(x) or y != int(y):
            raise InvalidPolygon(f"vertex ({shown(x)}, {shown(y)}) is not on the integer lattice")
        pts.append((int(x), int(y)))

    if len(pts) % 2 == 1:
        raise InvalidPolygon(f"{len(pts)} vertices; orthogonal polygons have an even count")
    if len(pts) < 4:
        raise InvalidPolygon("a polygon needs at least 4 vertices")
    if len(pts) > MAX_VERTICES:
        raise TooLarge(f"polygon has {len(pts)} vertices; at most {MAX_VERTICES} are supported")
    # Every column and row of a polygon holds a cell, so a wider or taller one
    # has too many cells. The extent may have too many digits for str().
    xs, ys = zip(*pts)
    if max(xs) - min(xs) > MAX_CELLS or max(ys) - min(ys) > MAX_CELLS:
        raise TooLarge(f"polygon is wider or taller than {MAX_CELLS} cells; at most {MAX_CELLS} cells are supported")

    n = len(pts)
    dirs: list[Point] = []
    for i in range(n):
        (x0, y0), (x1, y1) = pts[i], pts[(i + 1) % n]
        dx, dy = x1 - x0, y1 - y0
        if dx == 0 and dy == 0:
            raise InvalidPolygon(f"zero-length edge at vertex {i}")
        if dx != 0 and dy != 0:
            raise InvalidPolygon(f"edge {i} from {pts[i]} to {pts[(i + 1) % n]} is not axis-parallel")
        dirs.append((0 if dx == 0 else (1 if dx > 0 else -1), 0 if dy == 0 else (1 if dy > 0 else -1)))

    for i in range(n):
        a, b = dirs[i - 1], dirs[i]
        if (a[0] == 0) == (b[0] == 0):
            raise InvalidPolygon(f"edges meeting at vertex {i} do not alternate horizontal/vertical")

    _check_self_intersection(pts)

    if _shoelace(pts) < 0:
        pts = [pts[0]] + pts[1:][::-1]

    minx = min(x for x, _ in pts)
    miny = min(y for _, y in pts)
    return OrthoPolygon(tuple((x - minx, y - miny) for x, y in pts))


def _check_self_intersection(pts: list[Point]) -> None:
    # Axis-parallel edges meet exactly when their closed bounding boxes
    # overlap. Consecutive edges are perpendicular here, so they share their
    # common vertex and nothing else; every other pair must stay apart.
    # O(n^2), fine up to MAX_VERTICES.
    n = len(pts)
    boxes = []
    for i in range(n):
        (x0, y0), (x1, y1) = pts[i], pts[(i + 1) % n]
        boxes.append((min(x0, x1), max(x0, x1), min(y0, y1), max(y0, y1)))
    for i, (axlo, axhi, aylo, ayhi) in enumerate(boxes):
        for j in range(i + 2, n - (i == 0)):
            bxlo, bxhi, bylo, byhi = boxes[j]
            if axlo <= bxhi and bxlo <= axhi and aylo <= byhi and bylo <= ayhi:
                raise InvalidPolygon(f"edges {i} and {j} meet")


class GridGraph:
    """4-connected graph over the unit cells inside a polygon.

    Cells, pairs of integers by `require`'s rule, are deduplicated and sorted
    row-major (row, then col); `adjacency[i]` lists neighbor indices in
    N, E, S, W order, absent directions skipped.
    `bounds` is (width, height) of the box from (0, 0) that holds every
    cell. Treated as immutable; `memo` keeps what is derived from it in `cache`.
    """

    __slots__ = ("cells", "index", "adjacency", "cols", "rows", "bounds", "cache")

    def __init__(self, cells: Iterable[Cell]):
        cells = tuple(sorted(dict.fromkeys(map(_as_cell, cells)), key=lambda c: (c.row, c.col)))
        self.cells: tuple[Cell, ...] = cells
        self.index: dict[Cell, int] = dict(zip(cells, range(len(cells))))
        self.cols: tuple[int, ...] = tuple(c for c, _ in cells)
        self.rows: tuple[int, ...] = tuple(r for _, r in cells)
        self.bounds = (max(self.cols, default=-1) + 1, max(self.rows, default=-1) + 1)
        get = self.index.get  # probed N, E, S, W with plain (col, row) pairs
        adj = []
        for c, r in cells:
            nbrs = (get((c, r + 1)), get((c + 1, r)), get((c, r - 1)), get((c - 1, r)))
            adj.append(nbrs if None not in nbrs else tuple(i for i in nbrs if i is not None))
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(adj)
        self.cache: dict = {}

    def __len__(self) -> int:
        return len(self.cells)

    def memo(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The value kept under `key`; on a miss, `build()`'s result, kept.

        Each value holds about one entry per cell, so a grid keeps at most
        max(2, MAX_MEMO_CELLS // len(self)) of them; the oldest goes first.
        """
        try:
            return self.cache[key]
        except KeyError:
            pass
        value = self.cache[key] = build()
        if len(self.cache) > max(2, MAX_MEMO_CELLS // max(1, len(self.cells))):
            del self.cache[next(iter(self.cache))]
        return value

    def check_index(self, i: object, what: str = "cell index") -> int:
        """`int(i)` for an integer `i` in 0..len(self) - 1; InvalidConfig naming `what` otherwise."""
        if is_int(i) and 0 <= i < len(self.cells):
            return int(i)
        raise InvalidConfig(f"{what} {shown(i, repr)} is not an integer in 0..{len(self.cells) - 1}, the grid's cells")

    def require(self, cell: Cell) -> int:
        """The index of `cell`, a pair of integers (a Cell, tuple or list); InvalidConfig
        for anything else and for a cell outside the grid."""
        cell = _as_cell(cell)
        try:
            return self.index[cell]
        except KeyError:
            raise InvalidConfig(f"cell {shown(tuple(cell))} is not in the grid") from None


def rasterize(poly: OrthoPolygon) -> GridGraph:
    """Cells whose centers are inside by even-odd parity, one scanline per row.

    The line through a row's centers misses every vertex, so the vertical
    edges it crosses come in pairs: sorted by x, the inside runs are
    [xs[0], xs[1]), [xs[2], xs[3]), ... Crossing parity is the winding number
    mod 2, so a ray in any other direction would give the same cells.
    A polygon whose area exceeds MAX_CELLS raises TooLarge before any cell
    is built.
    """
    check_cells(poly.area, "polygon")
    vert = [(x0, min(y0, y1), max(y0, y1)) for (x0, y0), (x1, y1) in poly.edges() if x0 == x1]
    cells: list[Cell] = []  # row-major: rows upward, each row's runs left to right
    for row in range(poly.bounds[1]):
        xs = sorted(x for x, ylo, yhi in vert if ylo <= row < yhi)
        for lo, hi in zip(xs[::2], xs[1::2]):
            cells.extend(Cell(col, row) for col in range(lo, hi))

    if not cells:
        raise InvalidPolygon("polygon encloses no unit cells")
    g = GridGraph(cells)
    seen, stack = bytearray(len(cells)), [0]  # flood over adjacency indices
    while stack:
        i = stack.pop()
        if not seen[i]:
            seen[i] = 1
            stack.extend(g.adjacency[i])
    if not all(seen):
        raise InvalidPolygon("interior cells are not 4-connected; boundary is not simple")
    return g


def corner_counts(sw: np.ndarray, se: np.ndarray, nw: np.ndarray, ne: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cells around each lattice point, whether just two diagonal ones are)
    from the 0/1 flags of its sw, se, nw and ne cells. A vertex of the cells'
    boundary has one (convex) or three (reflex) cells around it."""
    n = sw + se + nw + ne
    return n, (n == 2) & (ne == sw)


def polygon_from_cells(cells: Iterable[Cell] | np.ndarray) -> OrthoPolygon:
    """Trace the boundary of a 4-connected, simply connected cell set.

    `cells` are pairs taken by `GridGraph.require`'s rule, or an integer
    array of (col, row) rows; anything else raises InvalidConfig. The corners
    with one or three cells around them are the vertices; sorted along each
    lattice line, they pair up into the edges. The walk starts east from the
    lowest-leftmost vertex. Raises InvalidPolygon on a pinch, or when the walk
    misses a vertex: a hole or a second piece.
    """
    if isinstance(cells, np.ndarray):
        if cells.ndim != 2 or cells.shape[1] != 2 or cells.dtype.kind not in "iu":
            raise InvalidConfig(
                f"a cell array must hold integer (col, row) rows, got {cells.dtype} of shape {cells.shape}"
            )
        xy = cells
    else:
        try:
            cells = iter(cells)
        except TypeError:
            raise InvalidConfig(f"{shown(cells, repr)} is not a collection of cells") from None
        xy = np.array([*map(_as_cell, cells)], dtype=object).reshape(-1, 2)  # Python ints, exact past int64
    if not len(xy):
        raise InvalidPolygon("no cells to trace")
    origin = xy.min(axis=0)
    # On exact ints: an int64 difference of far-apart cells would wrap.
    (x0, y0), (x1, y1) = origin.tolist(), xy.max(axis=0).tolist()
    w, h = x1 - x0 + 1, y1 - y0 + 1
    if w + h - 1 > len(xy):  # one 4-connected piece of n cells spans w + h <= n + 1
        raise InvalidPolygon("cell set has more than one boundary loop")
    xy = (xy - origin).astype(np.int64)  # offsets below n now
    stride = h + 1  # lattice point (x, y) is key x * stride + y, so keys sort by x, then y
    key = np.unique(xy[:, 0] * stride + xy[:, 1])
    # Cell (x, y) is the ne, se, nw and sw cell of points (x, y), (x, y + 1),
    # (x + 1, y) and (x + 1, y + 1): bits 8, 2, 4 and 1 of their masks.
    points, owner = np.unique(np.concatenate([key, key + 1, key + stride, key + stride + 1]), return_inverse=True)
    mask = np.bincount(owner, np.repeat([8, 2, 4, 1], len(key))).astype(np.uint8)
    n, pinch = corner_counts(mask & 1, mask >> 1 & 1, mask >> 2 & 1, mask >> 3)
    if pinch.any():
        x, y = divmod(int(points[pinch][0]), stride)
        raise InvalidPolygon(f"cell set pinches at point {(x + x0, y + y0)}")

    xs, ys = np.divmod(points[(n == 1) | (n == 3)], stride)  # vertical edges pair 2i, 2i + 1
    by_y = np.lexsort((xs, ys))  # horizontal edges pair its entries 2i, 2i + 1
    along = np.empty_like(by_y)  # the other end of each vertex's horizontal edge
    along[by_y[0::2]], along[by_y[1::2]] = by_y[1::2], by_y[0::2]
    along, start = along.tolist(), int(by_y[0])
    loop = [start, along[start]]  # east along the lowest row first
    while (i := loop[-1] ^ 1) != start:  # north or south, then east or west
        loop += (i, along[i])
    if len(loop) != len(xs):
        raise InvalidPolygon("cell set has more than one boundary loop")
    return validate_polygon(np.column_stack((xs, ys))[loop].tolist())


def read_json(path: str):
    """Parse a JSON file; unreadable or malformed files raise IoError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except (ValueError, RecursionError) as exc:
        raise IoError(f"{path} is not valid JSON: {exc}") from None


def read_polygon_file(path: str) -> OrthoPolygon:
    """Load {"vertices": [[x, y], ...]} from JSON; other keys are ignored."""
    data = read_json(path)
    if not isinstance(data, dict) or "vertices" not in data:
        raise InvalidPolygon(f"{path} has no \"vertices\" list")
    return validate_polygon(data["vertices"])


def write_text(path: str, text: str) -> None:
    """Write `text` to `path` as UTF-8, encoded before the file opens; a failure raises IoError."""
    try:
        data = text.encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(data)
    except (OSError, UnicodeEncodeError) as exc:
        raise IoError(str(exc)) from exc


def write_polygon_file(path: str, poly: OrthoPolygon) -> None:
    write_text(path, json.dumps({"vertices": [list(v) for v in poly.vertices]}) + "\n")
