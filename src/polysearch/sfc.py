"""Generalized Hilbert curves on rectangles, detour repair, patrol segments.

The curve generator recursively splits a w x h rectangle into an entry block,
a long middle block and an exit block (or halves a very wide block), emitting
a visit order that touches every cell exactly once with unit king-moves; the
rare diagonal step appears only for some odd dimensions and is removed by
repair_curve at the cost of revisiting one cell.
"""
from __future__ import annotations

from typing import Iterator

from .errors import InvalidConfig, TooFewRobots, TooManyRobots
from .geometry import Cell, _as_cell, check_cells, check_int, shown


def _sgn(x: int) -> int:
    return (x > 0) - (x < 0)


def _generate(x: int, y: int, ax: int, ay: int, bx: int, by: int) -> Iterator[Cell]:
    w = abs(ax + ay)
    h = abs(bx + by)
    dax, day = _sgn(ax), _sgn(ay)
    dbx, dby = _sgn(bx), _sgn(by)

    if h == 1:
        for _ in range(w):
            yield Cell(x, y)
            x += dax
            y += day
        return
    if w == 1:
        for _ in range(h):
            yield Cell(x, y)
            x += dbx
            y += dby
        return

    ax2, ay2 = ax // 2, ay // 2
    bx2, by2 = bx // 2, by // 2
    w2 = abs(ax2 + ay2)
    h2 = abs(bx2 + by2)

    if 2 * w > 3 * h:
        if (w2 % 2) and (w > 2):
            ax2, ay2 = ax2 + dax, ay2 + day
        # wide block: halve along the major axis
        yield from _generate(x, y, ax2, ay2, bx, by)
        yield from _generate(x + ax2, y + ay2, ax - ax2, ay - ay2, bx, by)
    else:
        if (h2 % 2) and (h > 2):
            bx2, by2 = bx2 + dbx, by2 + dby
        # entry block up, middle along the major axis, exit block back down
        yield from _generate(x, y, bx2, by2, ax2, ay2)
        yield from _generate(x + bx2, y + by2, ax, ay, bx - bx2, by - by2)
        yield from _generate(
            x + (ax - dax) + (bx2 - dbx),
            y + (ay - day) + (by2 - dby),
            -bx2,
            -by2,
            -(ax - ax2),
            -(ay - ay2),
        )


def gilbert_curve(width: int, height: int) -> tuple[Cell, ...]:
    """Space-filling visit order for a width x height rectangle at (0, 0).

    Every cell appears exactly once; consecutive cells are king-move
    adjacent, with at most a single diagonal step for odd x odd extents.
    More than MAX_CELLS cells raise TooLarge before any is built.
    """
    width, height = check_int(width, "width"), check_int(height, "height")
    what = f"rectangle {shown(width)}x{shown(height)}"
    if width < 1 or height < 1:
        raise InvalidConfig(f"{what} has no cells")
    check_cells(width * height, what)
    if width >= height:
        return tuple(_generate(0, 0, width, 0, 0, height))
    return tuple(_generate(0, 0, 0, height, width, 0))


def repair_curve(c: tuple[Cell, ...]) -> tuple[Cell, ...]:
    """Replace each diagonal step with an L-detour through its horizontal corner.

    Both corners of a diagonal step lie in any rectangle that holds its two
    ends, so the detour stays on the rectangle's cells. It revisits one cell:
    the result can be longer than the input but is 4-adjacent throughout.
    Each cell is a pair of integers, as `GridGraph.require` takes it.
    """
    if not c:
        raise InvalidConfig("curve has no cells")
    out: list[Cell] = [_as_cell(c[0])]
    for nxt in map(_as_cell, c[1:]):
        cur = out[-1]
        dx, dy = nxt.col - cur.col, nxt.row - cur.row
        if abs(dx) == 1 and abs(dy) == 1:
            out.append(Cell(nxt.col, cur.row))
        elif abs(dx) + abs(dy) != 1:
            raise InvalidConfig(f"curve jumps from {shown(tuple(cur))} to {shown(tuple(nxt))}")
        out.append(nxt)
    return tuple(out)


def segment_bounds(n: int, count: int) -> list[tuple[int, int]]:
    """(start, stop) pairs splitting an n-cell curve into `count` segments.

    Segment i spans [i*n//count, (i+1)*n//count), so lengths differ by at
    most one and every cell lands in exactly one segment.
    """
    n, count = check_int(n, "curve length"), check_int(count, "segment count")
    if count < 1:
        raise TooFewRobots("at least one robot per curve")
    if count > n:
        raise TooManyRobots(f"{shown(count)} robots on a {shown(n)}-cell curve")
    starts = [i * n // count for i in range(count)]
    stops = starts[1:] + [n]
    return list(zip(starts, stops))
